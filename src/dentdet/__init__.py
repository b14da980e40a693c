"""Diffusion-based hierarchical multi-label tooth detection."""

from .diffusion import Schedule, ddim_step, forward_noise, pad_gt_boxes
from .geometry import nms
from .labels import (
    HEAD_NAMES,
    NUM_DIAGNOSES,
    NUM_ENUMERATIONS,
    NUM_QUADRANTS,
    HierarchyLevel,
)
from .manipulate import InferredBoxCache, manipulate_boxes
from .matching import LossBreakdown
from .model import (
    ModelConfig,
    decode,
    encode_image,
    init_params,
    load_checkpoint,
    loss_gradients,
    save_checkpoint,
    transfer_weights,
)
from .train import encode_images

__version__ = "0.1.0"

__all__ = [
    "HEAD_NAMES",
    "NUM_DIAGNOSES",
    "NUM_ENUMERATIONS",
    "HierarchyLevel",
    "InferredBoxCache",
    "LossBreakdown",
    "ModelConfig",
    "NUM_QUADRANTS",
    "Schedule",
    "ddim_step",
    "decode",
    "encode_image",
    "encode_images",
    "forward_noise",
    "init_params",
    "load_checkpoint",
    "loss_gradients",
    "manipulate_boxes",
    "nms",
    "pad_gt_boxes",
    "save_checkpoint",
    "transfer_weights",
    "__version__",
]
