"""The model zoo: the five DNNs of the paper's evaluation (Section IV-A).

Each builder returns an ONNX-subset :class:`~repro.sw.graph.Graph` with the
exact layer shapes of the original architecture papers; weights are
synthetic (performance depends on shapes, not values).
"""

from repro.models.zoo import MODEL_BUILDERS, build_model, model_names, model_size_kwargs
from repro.models.resnet50 import build_resnet50
from repro.models.alexnet import build_alexnet
from repro.models.squeezenet import build_squeezenet
from repro.models.mobilenetv2 import build_mobilenetv2
from repro.models.bert import build_bert

__all__ = [
    "MODEL_BUILDERS",
    "build_model",
    "model_names",
    "model_size_kwargs",
    "build_resnet50",
    "build_alexnet",
    "build_squeezenet",
    "build_mobilenetv2",
    "build_bert",
]
