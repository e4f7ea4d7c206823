"""Tests for the CPU-only reference cost walk."""

import pytest

from repro.models import build_model
from repro.soc.cpu import BOOM, ROCKET
from repro.sw.cpu_reference import cpu_graph_cycles, cpu_node_cycles
from repro.sw.graph import Graph


class TestNodeCosts:
    def test_conv_cost(self):
        g = Graph("t")
        g.add_input("x", (8, 8, 3))
        g.add_weight("w", (3, 3, 3, 4))
        g.add_node("Conv", "c", ["x", "w"], "y", attrs={"kernel": 3, "out_ch": 4, "padding": 1})
        node = g.nodes[0]
        assert cpu_node_cycles(g, node, ROCKET) == ROCKET.conv_cycles(g.node_macs(node))

    def test_softmax_batch_attr(self):
        g = Graph("t")
        g.add_input("x", (4, 8))
        g.add_node("Softmax", "s", ["x"], "y", attrs={"batch": 12})
        assert cpu_node_cycles(g, g.nodes[0], ROCKET) == ROCKET.softmax_cycles(4 * 8 * 12)

    def test_views_free(self):
        g = Graph("t")
        g.add_input("x", (4, 8))
        g.add_node("Flatten", "f", ["x"], "y")
        assert cpu_node_cycles(g, g.nodes[0], ROCKET) == 0.0

    def test_pool_uses_input_elements(self):
        g = Graph("t")
        g.add_input("x", (8, 8, 4))
        g.add_node("MaxPool", "p", ["x"], "y", attrs={"kernel": 2, "stride": 2})
        assert cpu_node_cycles(g, g.nodes[0], ROCKET) == ROCKET.pool_cycles(8 * 8 * 4)


class TestGraphCosts:
    def test_resnet50_baseline_anchor(self):
        """Calibrated so the accelerator's ResNet50 speedup lands near the
        paper's 2,670x: the Rocket baseline is ~108 G
        cycles at 224x224."""
        cycles = cpu_graph_cycles(build_model("resnet50"), ROCKET)
        assert 95e9 <= cycles <= 120e9

    def test_boom_faster(self):
        g = build_model("squeezenet", input_hw=64)
        assert cpu_graph_cycles(g, BOOM) < cpu_graph_cycles(g, ROCKET)

    def test_conv_ratio_anchor(self):
        """Full-CNN Rocket/BOOM ratio approximates the paper's 2.36x."""
        g = build_model("resnet50", input_hw=112)
        ratio = cpu_graph_cycles(g, ROCKET) / cpu_graph_cycles(g, BOOM)
        assert ratio == pytest.approx(2.36, rel=0.05)

    def test_dispatch_charged_per_node(self):
        g = Graph("t")
        g.add_input("x", (4, 8))
        g.add_node("Relu", "r", ["x"], "y")
        total = cpu_graph_cycles(g, ROCKET)
        assert total == ROCKET.elementwise_cycles(32) + ROCKET.dispatch_cycles

    def test_bert_dominated_by_matmul(self):
        g = build_model("bert", seq=64, layers=2)
        matmul_macs = g.total_macs()
        total = cpu_graph_cycles(g, ROCKET)
        assert total > ROCKET.matmul_cycles(matmul_macs)
