"""Experiment configuration: a strict, line-oriented key = value format.

Every key has a default, so the empty file is a valid config. Unknown
keys, duplicates, and type errors are rejected with the offending line.
Lines starting with '#' and blank lines are ignored; values run to the
end of the line (no inline comments).

Keys and defaults:

    dataset.classes           int    10      number of classes C
    dataset.dim               int    32      input dimension d
    dataset.n_max_labeled     int    300     labeled head-class count N_1
    dataset.n_max_unlabeled   int    600     unlabeled head-class count M_1
    dataset.gamma_labeled     float  100.0   labeled imbalance N_1/N_C
    dataset.gamma_unlabeled   float  100.0   unlabeled imbalance M_1/M_C
    dataset.reversed_unlabeled bool  false   invert the unlabeled profile
    dataset.class_separation  float  3.5     pairwise distance of class means
    dataset.noise_sigma       float  1.2     within-class standard deviation
    dataset.test_per_class    int    100     balanced test split size
    dataset.seed              int    7       dataset realization seed
    augment.sigma_weak        float  0.1     weak view jitter
    augment.sigma_strong      float  0.5     strong view jitter
    augment.mask_fraction     float  0.25    strong view masked coordinates
    model.hidden              ints   64      hidden layer widths, comma list
    backbone                  choice fixmatch   fixmatch | remix-lite
    method                    choice lcgc       baseline | cdmad | lcgc
    seeds                     ints   1,2,3,4,5  training seeds, comma list
    output_dir                str    runs       artifact directory
    train.steps               int    3000
    train.batch_size          int    64      labeled rows per step (B)
    train.mu                  int    2       unlabeled ratio (mu*B rows)
    train.lr                  float  0.2
    train.tau                 float  0.0     pseudo-label confidence threshold
    train.consistency_weight  float  1.0
    lcgc.lambda               float  1.0     conflict correction scale
    lcgc.baseline             choice black   red|green|blue|gray|white|black
    lcgc.refine_pseudo_labels bool   true
    lcgc.refine_at_test       bool   true
    lcgc.ig_steps             int    128     attribution path resolution
    lcgc.double_subtract      bool   false   apply test correction twice
    remix.temperature         float  0.5     sharpening temperature
    remix.ema_decay           float  0.99    running-average decay
    remix.align               bool   true    distribution alignment on/off

``method`` resolves the refinement switches: baseline turns refinement
off everywhere and pins lambda to 0, cdmad keeps refinement on with
lambda 0, lcgc honors the lcgc.* keys. The LCGCLAB_OUTPUT_ROOT
environment variable, when set, prefixes output_dir.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

from .data import AugmentConfig, LongTailSpec
from .debias import BACKBONES, BASELINE_COLORS, LCGCConfig, TrainSettings
from .errors import ConfigError

_D_SPEC = LongTailSpec()
_D_AUG = AugmentConfig()
_D_TRAIN = TrainSettings()
_D_LCGC = LCGCConfig()

# LCGCConfig fields that each method pins, whatever the lcgc.* keys say.
_METHOD_PINS: dict[str, dict] = {
    "baseline": {
        "lam": 0.0,
        "refine_pseudo_labels": False,
        "refine_at_test": False,
        "double_subtract": False,
    },
    "cdmad": {"lam": 0.0, "refine_pseudo_labels": True, "refine_at_test": True},
    "lcgc": {},
}

# key -> (ExperimentConfig attribute, kind, default[, choices]). The one
# table behind parsing, building and the resolved() echo; a dotted
# attribute names a field of the nested spec/aug dataclass.
_SCHEMA: dict[str, tuple] = {
    "dataset.classes": ("spec.classes", "int", _D_SPEC.classes),
    "dataset.dim": ("spec.dim", "int", _D_SPEC.dim),
    "dataset.n_max_labeled": ("spec.n_max_labeled", "int", _D_SPEC.n_max_labeled),
    "dataset.n_max_unlabeled": (
        "spec.n_max_unlabeled", "int", _D_SPEC.n_max_unlabeled
    ),
    "dataset.gamma_labeled": ("spec.gamma_labeled", "float", _D_SPEC.gamma_labeled),
    "dataset.gamma_unlabeled": (
        "spec.gamma_unlabeled", "float", _D_SPEC.gamma_unlabeled
    ),
    "dataset.reversed_unlabeled": (
        "spec.reversed_unlabeled", "bool", _D_SPEC.reversed_unlabeled
    ),
    "dataset.class_separation": (
        "spec.class_separation", "float", _D_SPEC.class_separation
    ),
    "dataset.noise_sigma": ("spec.noise_sigma", "float", _D_SPEC.noise_sigma),
    "dataset.test_per_class": ("spec.test_per_class", "int", _D_SPEC.test_per_class),
    "dataset.seed": ("spec.seed", "int", _D_SPEC.seed),
    "augment.sigma_weak": ("aug.sigma_weak", "float", _D_AUG.sigma_weak),
    "augment.sigma_strong": ("aug.sigma_strong", "float", _D_AUG.sigma_strong),
    "augment.mask_fraction": ("aug.mask_fraction", "float", _D_AUG.mask_fraction),
    "model.hidden": ("hidden", "int_list", (64,)),
    "backbone": ("backbone", "choice", "fixmatch", BACKBONES),
    "method": ("method", "choice", "lcgc", tuple(_METHOD_PINS)),
    "seeds": ("seeds", "int_list", (1, 2, 3, 4, 5)),
    "output_dir": ("output_dir", "str", "runs"),
    "train.steps": ("steps", "int", _D_TRAIN.steps),
    "train.batch_size": ("batch_size", "int", _D_TRAIN.batch_size),
    "train.mu": ("mu", "int", _D_TRAIN.mu),
    "train.lr": ("lr", "float", _D_TRAIN.lr),
    "train.tau": ("tau", "float", _D_TRAIN.tau),
    "train.consistency_weight": (
        "consistency_weight", "float", _D_TRAIN.consistency_weight
    ),
    "lcgc.lambda": ("lam", "float", _D_LCGC.lam),
    "lcgc.baseline": ("baseline_color", "choice", _D_LCGC.baseline, BASELINE_COLORS),
    "lcgc.refine_pseudo_labels": (
        "refine_pseudo_labels", "bool", _D_LCGC.refine_pseudo_labels
    ),
    "lcgc.refine_at_test": ("refine_at_test", "bool", _D_LCGC.refine_at_test),
    "lcgc.ig_steps": ("ig_steps", "int", _D_LCGC.ig_steps),
    "lcgc.double_subtract": ("double_subtract", "bool", _D_LCGC.double_subtract),
    "remix.temperature": ("remix_temperature", "float", _D_TRAIN.remix_temperature),
    "remix.ema_decay": ("remix_ema_decay", "float", _D_TRAIN.remix_ema_decay),
    "remix.align": ("remix_align", "bool", _D_TRAIN.remix_align),
}


def _convert(key: str, raw: str, lineno: int):
    kind = _SCHEMA[key][1]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true or false")
            return low == "true"
        if kind in ("str", "choice"):
            return raw  # choices are checked with the other values
        if kind == "int_list":
            return tuple(int(s) for s in raw.split(",") if s.strip())
    except ValueError as e:
        raise ConfigError(
            f"line {lineno}: bad value for {key!r}: {raw!r} ({e})"
        ) from None
    raise AssertionError(f"unhandled kind {kind}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (all defaults applied)."""

    spec: LongTailSpec
    aug: AugmentConfig
    hidden: tuple[int, ...]
    backbone: str
    method: str
    seeds: tuple[int, ...]
    output_dir: str
    steps: int
    batch_size: int
    mu: int
    lr: float
    tau: float
    consistency_weight: float
    lam: float
    baseline_color: str
    refine_pseudo_labels: bool
    refine_at_test: bool
    ig_steps: int
    double_subtract: bool
    remix_temperature: float
    remix_ema_decay: float
    remix_align: bool

    def __post_init__(self):
        # One validation path for parsed configs and overrides alike.
        for key, (attr, kind, _, *choices) in _SCHEMA.items():
            value = attrgetter(attr)(self)
            if kind == "choice" and value not in choices[0]:
                raise ConfigError(
                    f"bad value for {key!r}: {value!r} "
                    f"(expected one of {', '.join(choices[0])})"
                )
            if kind == "int_list" and not value:
                raise ConfigError(f"{key!r} must be a non-empty list of ints")
        if min(self.hidden) < 1:
            raise ConfigError(f"'model.hidden' widths must be >= 1: {self.hidden}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"'seeds' must be distinct: {self.seeds}")
        try:
            self.train_settings()
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def effective_lcgc(self) -> LCGCConfig:
        """Refinement switches after method resolution."""
        fields = {
            "lam": self.lam,
            "baseline": self.baseline_color,
            "refine_pseudo_labels": self.refine_pseudo_labels,
            "refine_at_test": self.refine_at_test,
            "ig_steps": self.ig_steps,
            "double_subtract": self.double_subtract,
        }
        fields.update(_METHOD_PINS[self.method])
        return LCGCConfig(**fields)

    def train_settings(self) -> TrainSettings:
        return TrainSettings(
            steps=self.steps,
            batch_size=self.batch_size,
            mu=self.mu,
            lr=self.lr,
            tau=self.tau,
            consistency_weight=self.consistency_weight,
            backbone=self.backbone,
            remix_temperature=self.remix_temperature,
            remix_ema_decay=self.remix_ema_decay,
            remix_align=self.remix_align,
            aug=self.aug,
            lcgc=self.effective_lcgc(),
        )

    def output_root(self) -> Path:
        root = os.environ.get("LCGCLAB_OUTPUT_ROOT")
        if root:
            return Path(root) / self.output_dir
        return Path(self.output_dir)

    def override(self, **kw) -> "ExperimentConfig":
        """Copy with replaced fields (sweeps and ablations use this),
        validated like a parsed config."""
        return replace(self, **kw)

    def resolved(self) -> dict:
        """Every config key with its effective value, for provenance."""
        out = {}
        for key, (attr, kind, *_) in _SCHEMA.items():
            value = attrgetter(attr)(self)
            out[key] = list(value) if kind == "int_list" else value
        eff = self.effective_lcgc()
        out["effective.lambda"] = eff.lam
        out["effective.refine_pseudo_labels"] = eff.refine_pseudo_labels
        out["effective.refine_at_test"] = eff.refine_at_test
        return out


def _build(values: dict) -> ExperimentConfig:
    fields: dict = {"spec": {}, "aug": {}}
    for key, (attr, _, default, *_) in _SCHEMA.items():
        section, _, name = attr.rpartition(".")
        (fields[section] if section else fields)[name] = values.get(key, default)
    try:
        spec = LongTailSpec(**fields.pop("spec"))
        aug = AugmentConfig(**fields.pop("aug"))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return ExperimentConfig(spec=spec, aug=aug, **fields)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse config file contents; see the module docstring for keys."""
    values: dict = {}
    seen_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            hint = difflib.get_close_matches(key, _SCHEMA.keys(), n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ConfigError(f"line {lineno}: unknown key {key!r}{suffix}")
        if key in seen_lines:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} "
                f"(first set on line {seen_lines[key]})"
            )
        seen_lines[key] = lineno
        values[key] = _convert(key, val, lineno)
    return _build(values)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse a config file from disk."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"))


def default_config() -> ExperimentConfig:
    """The all-defaults configuration (equivalent to an empty file)."""
    return _build({})
