"""Desk-scale lab for debiasing class-imbalanced semi-supervised learning.

Pipeline: synthetic long-tailed Gaussian data, a tape-autodiff MLP,
two-view pseudo-label training, baseline-logit refinement, a
gradient-conflict projection that amplifies the debiasing signal, and
integrated-gradients audits tying the correction to attributions.
"""

from __future__ import annotations

from .config import ExperimentConfig, default_config, parse_config, parse_config_text
from .data import (
    AugmentConfig,
    LongTailSpec,
    SynthDataset,
    export_csv,
    load_dataset,
    longtail_counts,
    sample_minibatch,
    save_dataset,
    strong_aug,
    synthesize,
    weak_aug,
)
from .debias import (
    BASELINE_COLORS,
    BaselineInput,
    EvalReport,
    GradientVector,
    LCGCConfig,
    RunRecord,
    StepRecord,
    TheoremReport,
    TrainSettings,
    TrainState,
    baseline_logits,
    evaluate,
    grad_b,
    grad_d,
    integrated_gradients,
    kl_consistency_loss,
    lcgc_combine,
    make_baseline,
    run_training,
    train_step,
    verify_theorem1,
)
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    EvaluationError,
    InfeasibleSpecError,
    LabelError,
    SamplingError,
    TrainingDiverged,
)
from .losses import (
    PseudoLabelBatch,
    consistency_loss,
    distribution_alignment,
    ema_update,
    pseudo_label,
    sharpen,
    supervised_loss,
)
from .metrics import TrendReport, bacc, confusion, gm, trajectory_trend
from .model import (
    ModelParams,
    forward_logits,
    init_mlp,
    load_checkpoint,
    logits_array,
    predict,
    predict_batch,
    save_checkpoint,
)
from .runner import ablate_baseline_colors, ablate_components, run, sweep_lambda
from .tensor import (
    Tape,
    Tensor,
    backward,
    cross_entropy,
    finite_diff_grad,
    flatten_grads,
    flatten_values,
    log_softmax,
    matmul,
    no_tape,
    softmax,
    zero_grads,
)

__version__ = "0.1.0"
