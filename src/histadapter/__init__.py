"""Statistical token-histogram adapters on a self-contained autodiff engine."""

from histadapter.adapter import FUSIONS, VARIANTS, HistAdapter
from histadapter.autodiff import (
    GradCheckReport,
    ShapeError,
    Tensor,
    finite_difference_check,
)
from histadapter.cdc import CdcConv
from histadapter.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from histadapter.config import RunConfig, load_config
from histadapter.histogram import SoftHistogram
from histadapter.losses import (
    batch_tsr,
    binary_cross_entropy_with_logits,
    gram,
    total_loss,
    tsr_average,
    tsr_pair,
)
from histadapter.metrics import (
    MetricReport,
    ScoreSet,
    acer_suite,
    auc,
    eer,
    evaluate_scores,
    hter,
    roc,
    tpr_at_fpr,
)
from histadapter.optim import Adam
from histadapter.overhead import account
from histadapter.synth import (
    DomainBatch,
    DomainStyle,
    SynthProtocol,
    generate,
    split_protocol,
    style_bank,
)
from histadapter.tokens import grid_to_seq, seq_to_grid
from histadapter.training import evaluate_run, train_run
from histadapter.vit import PRESETS, ViTConfig, VisionTransformer, build_model

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "CdcConv",
    "CheckpointError",
    "DomainBatch",
    "DomainStyle",
    "FUSIONS",
    "GradCheckReport",
    "HistAdapter",
    "MetricReport",
    "PRESETS",
    "RunConfig",
    "ScoreSet",
    "ShapeError",
    "SoftHistogram",
    "SynthProtocol",
    "Tensor",
    "VARIANTS",
    "ViTConfig",
    "VisionTransformer",
    "account",
    "acer_suite",
    "auc",
    "batch_tsr",
    "binary_cross_entropy_with_logits",
    "build_model",
    "eer",
    "evaluate_run",
    "evaluate_scores",
    "finite_difference_check",
    "generate",
    "gram",
    "grid_to_seq",
    "hter",
    "load_checkpoint",
    "load_config",
    "roc",
    "save_checkpoint",
    "seq_to_grid",
    "split_protocol",
    "style_bank",
    "total_loss",
    "tpr_at_fpr",
    "train_run",
    "tsr_average",
    "tsr_pair",
    "__version__",
]
