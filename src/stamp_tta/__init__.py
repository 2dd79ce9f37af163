"""Outlier-aware test-time adaptation with a stable replay memory.

A batch-normalized classifier is adapted online over a stream that mixes
shifted in-distribution samples with unseen-class outliers. The method
averages predictions over randomized views, keeps a class-balanced replay
memory behind consistency and confidence filters, and minimizes a
self-weighted entropy with sharpness-aware steps under a cosine-decayed
rate. Per-sample entropies double as OOD scores.
"""

from .config import (
    DataConfig,
    ExperimentConfig,
    MethodConfig,
    ModelConfig,
    OutputConfig,
    config_from_dict,
    load_config,
)
from .datagen import StreamConfig, augment_views, corrupt, gen_source, gen_stream
from .diffnet import ForwardMode, forward, grad, init_model, load_model, pretrain, save_model
from .engine import (
    AdaptState,
    averaged_prediction,
    build_state,
    detect,
    run_experiment,
    stamp_step,
)
from .losses import WEIGHTINGS, entropy, make_entropy_objective, softmax
from .membank import FilterVerdict, MemoryBank, filter_masks
from .metrics import accuracy, auroc, h_score, roc_curve, summarize
from .optim import cosine_lr, sam_step, sgd_step

__version__ = "0.1.0"
