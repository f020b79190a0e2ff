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

Each key names one field: _SCHEMA maps it to an ExperimentConfig
attribute (a dotted one is a field of the nested spec or aug). The
field declares everything about the key: its default is the key's
default and gives its kind (bool, int, float, str, or a comma list of
ints), and its metadata holds the key's bounds or, for a choice key,
the names its str must be one of (``errors.check_fields``). The train.*,
augment.*, lcgc.* (but ig_steps), remix.* and backbone keys set the
debias.RunSettings fields that the config shares with TrainSettings.
``method`` then pins some of those fields in the run's TrainSettings:
baseline turns refinement off everywhere and pins lambda to 0, cdmad
keeps refinement on with lambda 0, lcgc honors the lcgc.* keys. Every
value is checked as given, pinned or not. The LCGCLAB_OUTPUT_ROOT
environment variable, when set, prefixes output_dir, which must then
stay under it: neither absolute nor climbing out with '..'.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

from .data import AugmentConfig, LongTailSpec
from .debias import RunSettings, TrainSettings, make_baseline
from .errors import ConfigError, as_instance, as_path

# TrainSettings fields that each method pins, whatever the lcgc.* keys say.
_METHOD_PINS: dict[str, dict] = {
    "baseline": {"lam": 0.0, "refine_pseudo_labels": False, "refine_at_test": False},
    "cdmad": {"lam": 0.0, "refine_pseudo_labels": True, "refine_at_test": True},
    "lcgc": {},
}

# key -> ExperimentConfig attribute. The one table behind parsing,
# building and the resolved() echo; a dotted attribute names a field of
# the nested spec/aug dataclass. The field gives the key's default, its
# kind and its bounds or choices.
_SCHEMA: dict[str, str] = {
    "dataset.classes": "spec.classes",
    "dataset.dim": "spec.dim",
    "dataset.n_max_labeled": "spec.n_max_labeled",
    "dataset.n_max_unlabeled": "spec.n_max_unlabeled",
    "dataset.gamma_labeled": "spec.gamma_labeled",
    "dataset.gamma_unlabeled": "spec.gamma_unlabeled",
    "dataset.reversed_unlabeled": "spec.reversed_unlabeled",
    "dataset.class_separation": "spec.class_separation",
    "dataset.noise_sigma": "spec.noise_sigma",
    "dataset.test_per_class": "spec.test_per_class",
    "dataset.seed": "spec.seed",
    "augment.sigma_weak": "aug.sigma_weak",
    "augment.sigma_strong": "aug.sigma_strong",
    "augment.mask_fraction": "aug.mask_fraction",
    "model.hidden": "hidden",
    "backbone": "backbone",
    "method": "method",
    "seeds": "seeds",
    "output_dir": "output_dir",
    "train.steps": "steps",
    "train.batch_size": "batch_size",
    "train.mu": "mu",
    "train.lr": "lr",
    "train.tau": "tau",
    "train.consistency_weight": "consistency_weight",
    "lcgc.lambda": "lam",
    "lcgc.baseline": "baseline_color",
    "lcgc.refine_pseudo_labels": "refine_pseudo_labels",
    "lcgc.refine_at_test": "refine_at_test",
    "lcgc.ig_steps": "ig_steps",
    "lcgc.double_subtract": "double_subtract",
    "remix.temperature": "remix_temperature",
    "remix.ema_decay": "remix_ema_decay",
    "remix.align": "remix_align",
}


def _convert(key: str, raw: str, lineno: int):
    default = attrgetter(_SCHEMA[key])(_DEFAULTS)
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true or false")
            return low == "true"
        if isinstance(default, tuple):
            return comma_list(raw, int)
        return type(default)(raw)  # int, float or str; bounds are checked later
    except ValueError as e:
        raise ConfigError(
            f"line {lineno}: bad value for {key!r}: {raw!r} ({e})"
        ) from None


def comma_list(text: str, item) -> tuple:
    """The stripped entries of the comma list ``text``, each through ``item``
    (config list keys and CLI list flags); ConfigError on an empty one."""
    entries = [s.strip() for s in as_instance(text, "text", str).split(",")]
    if "" in entries:
        raise ConfigError("empty entry in the comma list")
    return tuple(item(s) for s in entries)


def as_output_dir(out: str | Path, name: str) -> Path:
    """``out``, a str or path-like, as a ``Path``: the one rule for an
    output directory, a config's ``output_dir`` and a runner's
    ``out_dir`` alike. ConfigError if it is empty or another spelling
    of the working directory (any text ``os.path.normpath`` makes ".",
    such as "./", "a/.." or the "." of ``Path("")``), holds a NUL byte
    (no path can), or has a line break or leading or trailing
    whitespace (a config file's values are stripped lines, so none can
    say it)."""
    text = os.fspath(as_instance(out, name, str, os.PathLike))
    if os.path.normpath(text) == ".":  # "" included
        raise ConfigError(
            f"{name} must not be empty or name the working directory: {text!r}"
        )
    if "\0" in text:
        raise ConfigError(f"{name} holds a NUL byte: {text!r}")
    if text != text.strip() or len(text.splitlines()) != 1:
        raise ConfigError(
            f"{name} has a line break or leading or trailing whitespace: {text!r}"
        )
    return Path(text)


@dataclass(frozen=True)
class ExperimentConfig(RunSettings):
    """Fully resolved experiment description: the RunSettings fields and
    the experiment's own, each with its default."""

    spec: LongTailSpec = field(default_factory=LongTailSpec)
    hidden: tuple[int, ...] = field(default=(64,), metadata=dict(lo=1))
    method: str = field(default="lcgc", metadata=dict(choices=tuple(_METHOD_PINS)))
    seeds: tuple[int, ...] = field(default=(1, 2, 3, 4, 5), metadata=dict(lo=0))
    output_dir: str = "runs"
    ig_steps: int = field(default=128, metadata=dict(lo=1))

    def __post_init__(self):
        # One validation path for parsed configs and overrides alike: each
        # field's own rule (RunSettings' check_fields) on the values as
        # given, before a method pin can hide them, then the rules that
        # join keys or fields. Any error is a ConfigError.
        try:
            super().__post_init__()
            for key, attr in _SCHEMA.items():
                value = attrgetter(attr)(self)
                if isinstance(value, (tuple, str)) and not value:
                    raise ConfigError(f"{key!r} must not be empty")
            as_output_dir(self.output_dir, "'output_dir'")
            if len(set(self.seeds)) != len(self.seeds):
                raise ConfigError(f"'seeds' must be distinct: {self.seeds}")
            make_baseline(self.baseline_color, self.spec.dim, 1.0)
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def train_settings(self) -> TrainSettings:
        """The run's settings, after the method's pins."""
        given = {f.name: getattr(self, f.name) for f in fields(RunSettings)}
        return TrainSettings(**given | _METHOD_PINS[self.method])

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
        for key, attr in _SCHEMA.items():
            value = attrgetter(attr)(self)
            out[key] = list(value) if isinstance(value, tuple) else value
            if attr in pinned:
                name = key.partition(".")[2]
                effective[f"effective.{name}"] = getattr(settings, attr)
        return out | effective


_DEFAULTS = ExperimentConfig()


def _build(values: dict) -> ExperimentConfig:
    """The config with the parsed ``values`` (key -> value) set and every
    other field at its default."""
    init: dict = {"spec": {}, "aug": {}}
    for key, value in values.items():
        section, _, name = _SCHEMA[key].rpartition(".")
        (init[section] if section else init)[name] = value
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
    for lineno, raw in enumerate(as_instance(text, "text", str).splitlines(), start=1):
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
    p = as_path(path, "path")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {p}: {e}") from None
    return parse_config_text(text)


def default_config() -> ExperimentConfig:
    """The all-defaults configuration (equivalent to an empty file)."""
    return ExperimentConfig()
