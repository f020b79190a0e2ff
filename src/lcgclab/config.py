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

A run's TrainSettings gets every ExperimentConfig field of the same
name: the train.*, augment.*, lcgc.* (but ig_steps), remix.* and
backbone values. ``method`` then pins some of those fields: baseline turns
refinement off everywhere and pins lambda to 0, cdmad keeps refinement
on with lambda 0, lcgc honors the lcgc.* keys. Every value is checked
as given, pinned or not. The LCGCLAB_OUTPUT_ROOT
environment variable, when set, prefixes output_dir, which must then
stay under it: neither absolute nor climbing out with '..'.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

from .data import AugmentConfig, LongTailSpec
from .debias import BACKBONES, BASELINE_COLORS, TrainSettings, make_baseline
from .errors import ConfigError

_D_SPEC = LongTailSpec()
_D_AUG = AugmentConfig()
_D_TRAIN = TrainSettings()

# TrainSettings fields that each method pins, whatever the lcgc.* keys say.
_METHOD_PINS: dict[str, dict] = {
    "baseline": {"lam": 0.0, "refine_pseudo_labels": False, "refine_at_test": False},
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
    "lcgc.lambda": ("lam", "float", _D_TRAIN.lam),
    "lcgc.baseline": (
        "baseline_color", "choice", _D_TRAIN.baseline_color, BASELINE_COLORS
    ),
    "lcgc.refine_pseudo_labels": (
        "refine_pseudo_labels", "bool", _D_TRAIN.refine_pseudo_labels
    ),
    "lcgc.refine_at_test": ("refine_at_test", "bool", _D_TRAIN.refine_at_test),
    "lcgc.ig_steps": ("ig_steps", "int", 128),
    "lcgc.double_subtract": ("double_subtract", "bool", _D_TRAIN.double_subtract),
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
            entries = [s.strip() for s in raw.split(",")]
            if "" in entries:
                raise ValueError("empty entry in the comma list")
            return tuple(int(s) for s in entries)
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
            if kind in ("int_list", "str") and not value:
                raise ConfigError(f"{key!r} must not be empty")
        if min(self.hidden) < 1:
            raise ConfigError(f"'model.hidden' widths must be >= 1: {self.hidden}")
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"'seeds' must be distinct and >= 0: {self.seeds}")
        if self.ig_steps < 1:
            raise ConfigError(f"'lcgc.ig_steps' must be >= 1: {self.ig_steps}")
        try:
            # The values as given, before a method pin can hide them.
            given = TrainSettings(**_shared_fields(self, TrainSettings))
            make_baseline(given.baseline_color, self.spec.dim, 1.0)
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def train_settings(self) -> TrainSettings:
        """The run's settings, after the method's pins."""
        return TrainSettings(
            **(_shared_fields(self, TrainSettings) | _METHOD_PINS[self.method])
        )

    def output_root(self) -> Path:
        root = os.environ.get("LCGCLAB_OUTPUT_ROOT", "")
        out = Path(self.output_dir)
        if root and (out.is_absolute() or ".." in out.parts):
            raise ConfigError(
                f"'output_dir' {self.output_dir!r} leaves LCGCLAB_OUTPUT_ROOT"
            )
        return Path(root) / out

    def override(self, **kw) -> "ExperimentConfig":
        """Copy with replaced fields (sweeps and ablations use this),
        validated like a parsed config."""
        return replace(self, **kw)

    def resolved(self) -> dict:
        """Every config key with its value as given, then one
        ``effective.<name>`` key per pinned field with the value the run
        uses, for provenance."""
        settings = self.train_settings()
        pinned = set().union(*_METHOD_PINS.values())
        out, effective = {}, {}
        for key, (attr, kind, *_) in _SCHEMA.items():
            value = attrgetter(attr)(self)
            out[key] = list(value) if kind == "int_list" else value
            if attr in pinned:
                name = key.partition(".")[2]
                effective[f"effective.{name}"] = getattr(settings, attr)
        return out | effective


def _shared_fields(config: ExperimentConfig, cls) -> dict:
    """The fields of dataclass ``cls`` that ``config`` holds, by name."""
    own = {f.name for f in fields(config)}
    return {f.name: getattr(config, f.name) for f in fields(cls) if f.name in own}


def _build(values: dict) -> ExperimentConfig:
    init: dict = {"spec": {}, "aug": {}}
    for key, (attr, _, default, *_) in _SCHEMA.items():
        section, _, name = attr.rpartition(".")
        (init[section] if section else init)[name] = values.get(key, default)
    try:
        spec = LongTailSpec(**init.pop("spec"))
        aug = AugmentConfig(**init.pop("aug"))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return ExperimentConfig(spec=spec, aug=aug, **init)


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
    """Parse a config file from disk (UTF-8, with or without a byte-order
    mark)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {p}: {e}") from None
    return parse_config_text(text)


def default_config() -> ExperimentConfig:
    """The all-defaults configuration (equivalent to an empty file)."""
    return _build({})
