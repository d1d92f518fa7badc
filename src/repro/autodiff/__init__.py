"""NumPy training substrate with schedule-driven (checkpointed) backprop."""

from .ops import (
    col2im,
    conv2d_backward,
    conv2d_forward,
    im2col,
    maxpool2d_backward,
    maxpool2d_forward,
)
from .layers import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    MaxPoolLayer,
    ReLULayer,
    TrainLayer,
    param_bytes,
)
from .blocks import AvgPoolLayer, DropoutLayer, ResidualBlockLayer
from .loss import accuracy, softmax, softmax_cross_entropy
from .optim import SGD, Momentum, Optimizer
from .network import SequentialNet
from .executor import CheckpointedResult, run_schedule
from .trainer import EpochRecord, FitCursor, Trainer, TrainerConfig
from .meter import MemoryMeter
from .data import Dataset, batches, gaussian_blobs, image_blobs

__all__ = [
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "TrainLayer",
    "DenseLayer",
    "ReLULayer",
    "ConvLayer",
    "MaxPoolLayer",
    "FlattenLayer",
    "BatchNormLayer",
    "ResidualBlockLayer",
    "AvgPoolLayer",
    "DropoutLayer",
    "param_bytes",
    "softmax",
    "softmax_cross_entropy",
    "accuracy",
    "Optimizer",
    "SGD",
    "Momentum",
    "SequentialNet",
    "CheckpointedResult",
    "run_schedule",
    "Trainer",
    "TrainerConfig",
    "EpochRecord",
    "FitCursor",
    "MemoryMeter",
    "Dataset",
    "gaussian_blobs",
    "image_blobs",
    "batches",
]
