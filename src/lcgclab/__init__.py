"""Desk-scale lab for debiasing class-imbalanced semi-supervised learning.

Pipeline: synthetic long-tailed Gaussian data, an MLP trained on
plain-array gradients (an autodiff tape is their reference), two-view
pseudo-label training, baseline-logit refinement, a gradient-conflict
projection that amplifies the debiasing signal, and integrated-gradients
audits tying the correction to attributions.

The autodiff tape is no package API: import it from ``lcgclab.tensor``,
and its wrappers from their modules (``model.forward_logits``,
``losses.supervised_loss`` and ``consistency_loss``,
``debias.kl_consistency_loss``).
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
    distribution_alignment,
    ema_update,
    pseudo_label,
    sharpen,
)
from .metrics import TrendReport, bacc, confusion, gm, trajectory_trend
from .model import (
    ModelParams,
    init_mlp,
    load_checkpoint,
    logits_array,
    save_checkpoint,
)
from .runner import ablate_baseline_colors, ablate_components, run, sweep_lambda

__version__ = "0.1.0"
