"""Model registry: build any of the paper's five workloads by name."""

from __future__ import annotations

from typing import Callable

from repro.models.alexnet import build_alexnet
from repro.models.bert import build_bert
from repro.models.mobilenetv2 import build_mobilenetv2
from repro.models.resnet50 import build_resnet50
from repro.models.squeezenet import build_squeezenet
from repro.sw.graph import Graph

MODEL_BUILDERS: dict[str, Callable[..., Graph]] = {
    "resnet50": build_resnet50,
    "alexnet": build_alexnet,
    "squeezenet": build_squeezenet,
    "mobilenetv2": build_mobilenetv2,
    "bert": build_bert,
}


def model_names() -> list[str]:
    return sorted(MODEL_BUILDERS)


def model_size_kwargs(name: str, input_hw: int = 224, seq: int = 128) -> dict:
    """The size kwargs :func:`build_model` takes for ``name``: bert is sized
    by its sequence length ``seq``, every CNN by its input ``input_hw``."""
    return {"seq": seq} if name == "bert" else {"input_hw": input_hw}


def build_model(name: str, **kwargs) -> Graph:
    """Build a zoo model by name (kwargs forwarded to the builder)."""
    try:
        builder = MODEL_BUILDERS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; known: {model_names()}") from None
    return builder(**kwargs)
