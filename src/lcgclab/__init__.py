"""Desk-scale lab for debiasing class-imbalanced semi-supervised learning.

Pipeline: synthetic long-tailed Gaussian data, an MLP trained on
plain-array gradients (an autodiff tape is their reference), two-view
pseudo-label training, baseline-logit refinement, a gradient-conflict
projection that amplifies the debiasing signal, and integrated-gradients
audits tying the correction to attributions.

The package namespace holds its modules only; each name is imported
from the module that defines it, e.g. ``from lcgclab.config import
default_config``. Importing the package loads every module but ``cli``.
"""

from . import config, data, debias, errors, losses, metrics, model, runner

__version__ = "0.1.0"
