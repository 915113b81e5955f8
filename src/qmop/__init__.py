"""Query-guided mixture-of-projector visual token compression, desk scale."""

__version__ = "0.1.0"

from .bundle import FeatureBundle, read_bundle, synth_bundle, write_bundle
from .pipeline import (
    ProjectedTokens,
    ProjectorParams,
    forward,
    infer_forward,
    init_projector_params,
    stage1_forward,
    train_forward,
)

__all__ = [
    "FeatureBundle",
    "ProjectedTokens",
    "ProjectorParams",
    "forward",
    "infer_forward",
    "init_projector_params",
    "read_bundle",
    "stage1_forward",
    "synth_bundle",
    "train_forward",
    "write_bundle",
]
