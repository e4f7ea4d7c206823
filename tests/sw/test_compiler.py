"""Unit tests for the push-button compiler."""

from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.models import build_model
from repro.sw.compiler import Placement, compile_graph
from repro.sw.graph import Graph


PARAMS = SoftwareParams.from_config(default_config().with_im2col(True))


def conv_bn_relu_graph():
    g = Graph("t")
    g.add_input("x", (8, 8, 3))
    g.add_weight("w", (3, 3, 3, 16))
    g.add_node("Conv", "conv", ["x", "w"], "c",
               attrs={"kernel": 3, "padding": 1, "out_ch": 16})
    g.add_node("BatchNorm", "bn", ["c"], "b")
    g.add_node("Relu", "relu", ["b"], "y")
    g.mark_output("y")
    return g


class TestFusion:
    def test_bn_folded_into_conv(self):
        model = compile_graph(conv_bn_relu_graph(), PARAMS)
        assert len(model.plans) == 1
        plan = model.plans[0]
        assert plan.kind == "conv"
        assert plan.has_bias  # the folded BN becomes a bias
        assert plan.activation == "relu"
        assert plan.output == "y"

    def test_no_fusion_across_fanout(self):
        g = Graph("t")
        g.add_input("x", (8, 8, 3))
        g.add_weight("w", (1, 1, 3, 8))
        g.add_node("Conv", "conv", ["x", "w"], "c", attrs={"kernel": 1, "out_ch": 8})
        g.add_node("Relu", "relu", ["c"], "r")
        # 'c' also feeds an Add: fusing ReLU into the conv would corrupt it.
        g.add_node("Add", "add", ["c", "c"], "y")
        g.mark_output("y")
        model = compile_graph(g, PARAMS)
        kinds = [p.kind for p in model.plans]
        assert "resadd" in kinds
        conv_plan = next(p for p in model.plans if p.kind == "conv")
        assert conv_plan.activation == "none"

    def test_maxpool_fused_into_conv(self):
        g = Graph("t")
        g.add_input("x", (8, 8, 3))
        g.add_weight("w", (3, 3, 3, 16))
        g.add_node("Conv", "conv", ["x", "w"], "c",
                   attrs={"kernel": 3, "padding": 1, "out_ch": 16})
        g.add_node("MaxPool", "pool", ["c"], "y", attrs={"kernel": 2, "stride": 2})
        g.mark_output("y")
        model = compile_graph(g, PARAMS)
        assert len(model.plans) == 1
        assert model.plans[0].pool is not None
        assert model.plans[0].output == "y"

    def test_padded_maxpool_not_fused(self):
        g = Graph("t")
        g.add_input("x", (8, 8, 3))
        g.add_weight("w", (3, 3, 3, 16))
        g.add_node("Conv", "conv", ["x", "w"], "c",
                   attrs={"kernel": 3, "padding": 1, "out_ch": 16})
        g.add_node("MaxPool", "pool", ["c"], "y",
                   attrs={"kernel": 3, "stride": 2, "padding": 1})
        g.mark_output("y")
        model = compile_graph(g, PARAMS)
        assert len(model.plans) == 2
        assert model.plans[1].kind == "pool"


class TestPlacement:
    def test_matmul_on_accel(self):
        g = Graph("t")
        g.add_input("x", (4, 64))
        g.add_weight("w", (64, 32))
        g.add_node("Gemm", "fc", ["x", "w"], "y")
        g.mark_output("y")
        model = compile_graph(g, PARAMS)
        assert model.plans[0].placement is Placement.ACCEL
        assert model.plans[0].m == 4 and model.plans[0].k == 64 and model.plans[0].n == 32

    def test_softmax_on_cpu(self):
        g = Graph("t")
        g.add_input("x", (4, 64))
        g.add_node("Softmax", "sm", ["x"], "y", attrs={"batch": 12})
        g.mark_output("y")
        model = compile_graph(g, PARAMS)
        plan = model.plans[0]
        assert plan.placement is Placement.CPU
        assert plan.cpu_kind == "softmax"
        assert plan.elements == 4 * 64 * 12  # batch multiplier honoured

    def test_views_are_noops(self):
        g = Graph("t")
        g.add_input("x", (4, 6))
        g.add_node("Reshape", "r", ["x"], "y", attrs={"shape": [6, 4]})
        g.mark_output("y")
        model = compile_graph(g, PARAMS)
        assert model.plans[0].kind == "noop"

    def test_matmul_with_activation_operand(self):
        """BERT-style A@B where B is not a weight keeps both inputs."""
        g = Graph("t")
        g.add_input("a", (4, 8))
        g.add_input("b", (8, 4))
        g.add_node("MatMul", "mm", ["a", "b"], "y")
        g.mark_output("y")
        model = compile_graph(g, PARAMS)
        plan = model.plans[0]
        assert plan.weight is None
        assert plan.inputs == ("a", "b")


class TestModelCompilation:
    def test_resnet50_plan_mix(self):
        model = compile_graph(build_model("resnet50"), PARAMS)
        kinds = {}
        for plan in model.plans:
            kinds[plan.kind] = kinds.get(plan.kind, 0) + 1
        assert kinds["conv"] == 53
        assert kinds["resadd"] == 16
        assert kinds["matmul"] == 1

    def test_mobilenet_uses_dwconv(self):
        model = compile_graph(build_model("mobilenetv2"), PARAMS)
        kinds = [p.kind for p in model.plans]
        assert kinds.count("dwconv") == 17

    def test_bert_cpu_ops(self):
        model = compile_graph(build_model("bert", seq=32), PARAMS)
        cpu_kinds = [
            p.cpu_kind for p in model.plans
            if p.placement is Placement.CPU and p.kind == "cpu_op"
        ]
        assert cpu_kinds.count("softmax") == 12
        assert cpu_kinds.count("gelu") == 12
        assert cpu_kinds.count("layernorm") == 24

    def test_im2col_scratch_only_without_unit(self):
        params_no_unit = SoftwareParams.from_config(default_config())
        with_unit = compile_graph(build_model("alexnet"), PARAMS)
        without_unit = compile_graph(build_model("alexnet"), params_no_unit)
        assert with_unit.im2col_scratch_bytes == 0
        assert without_unit.im2col_scratch_bytes > 0

    def test_total_macs_match_graph(self):
        g = build_model("squeezenet")
        model = compile_graph(g, PARAMS)
        assert model.total_macs == g.total_macs()

    def test_summary_text(self):
        model = compile_graph(build_model("alexnet"), PARAMS)
        text = model.summary()
        assert "alexnet" in text
        assert "accel:conv" in text
