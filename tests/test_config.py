"""Experiment configuration: parsing, defaults, method resolution."""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from operator import attrgetter
from pathlib import Path

import pytest

from lcgclab import config as config_module
from lcgclab.config import (
    _SCHEMA,
    ExperimentConfig,
    as_output_dir,
    default_config,
    parse_config,
    parse_config_text,
)
from lcgclab.data import AugmentConfig, LongTailSpec
from lcgclab.debias import RunSettings, TrainSettings
from lcgclab.errors import ConfigError, ContractError


class TestDefaults:
    def test_empty_text_equals_defaults(self):
        assert parse_config_text("") == default_config()

    def test_comments_and_blanks_ignored(self):
        text = "\n# a comment\n\n   # another\n"
        assert parse_config_text(text) == default_config()

    def test_default_values(self):
        cfg = default_config()
        assert cfg.spec.classes == 10
        assert cfg.spec.dim == 32
        assert cfg.spec.gamma_labeled == 100.0
        assert cfg.method == "lcgc"
        assert cfg.seeds == (1, 2, 3, 4, 5)
        assert cfg.steps == 3000
        assert cfg.lr == 0.2
        assert cfg.lam == 1.0
        assert cfg.baseline_color == "black"
        assert cfg.hidden == (64,)

    def test_resolved_echo_roundtrips(self):
        cfg = default_config()
        r = cfg.resolved()
        assert r["train.steps"] == cfg.steps
        assert r["lcgc.lambda"] == cfg.lam
        assert r["dataset.gamma_unlabeled"] == cfg.spec.gamma_unlabeled
        assert "effective.lam" in r or "effective.lambda" in r


def _documented_keys() -> dict[str, tuple[str, str]]:
    """key -> (kind, default) from the module docstring's key table."""
    doc = config_module.__doc__
    table = doc.split("Keys and defaults:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        key, kind, default = line.split()[:3]
        rows[key] = (kind, default)
    return rows


def _field(attr: str):
    """The dataclass field that a _SCHEMA attribute names."""
    section, _, name = attr.rpartition(".")
    owner = attrgetter(section)(default_config()) if section else ExperimentConfig
    return next(f for f in fields(owner) if f.name == name)


class TestKeyTable:
    """The docstring, the schema and resolved() describe one key set."""

    def test_docstring_names_exactly_the_schema_keys(self):
        assert list(_documented_keys()) == list(_SCHEMA)

    def test_docstring_kinds_match_schema(self):
        """A key's kind is the type of its field's default; a choice key
        is a str whose field declares its choices."""
        doc_kind = {"ints": tuple, "choice": str, "str": str, "int": int,
                    "float": float, "bool": bool}
        cfg = default_config()
        for key, (kind, _) in _documented_keys().items():
            attr = _SCHEMA[key]
            assert type(attrgetter(attr)(cfg)) is doc_kind[kind], key
            assert ("choices" in _field(attr).metadata) == (kind == "choice"), key

    def test_every_field_has_exactly_one_key(self):
        """Each leaf field of ExperimentConfig, those of spec and aug
        included, is named by exactly one key, and every key's attribute
        resolves."""
        cfg = default_config()
        leaves = []
        for f in fields(ExperimentConfig):
            value = getattr(cfg, f.name)
            nested = fields(value) if is_dataclass(value) else ()
            leaves += [f"{f.name}.{g.name}" for g in nested] or [f.name]
        attrs = list(_SCHEMA.values())
        assert sorted(attrs) == sorted(leaves)
        for attr in attrs:
            attrgetter(attr)(cfg)

    def test_documented_defaults_parse_to_default_config(self):
        text = "\n".join(
            f"{key} = {default}" for key, (_, default) in _documented_keys().items()
        )
        assert parse_config_text(text) == default_config()

    def test_resolved_keys_are_schema_plus_effective(self):
        effective = {
            "effective.lambda",
            "effective.refine_pseudo_labels",
            "effective.refine_at_test",
        }
        for method in ("baseline", "cdmad", "lcgc"):
            cfg = default_config().override(method=method)
            assert set(cfg.resolved()) == set(_SCHEMA) | effective


class TestParsing:
    def test_full_file_roundtrip(self):
        text = """
        # experiment description
        dataset.classes = 4
        dataset.dim = 8
        dataset.n_max_labeled = 40
        dataset.n_max_unlabeled = 80
        dataset.gamma_labeled = 10
        dataset.gamma_unlabeled = 5
        dataset.reversed_unlabeled = true
        dataset.class_separation = 4.5
        dataset.noise_sigma = 0.9
        dataset.test_per_class = 50
        dataset.seed = 99
        augment.sigma_weak = 0.2
        augment.sigma_strong = 0.6
        augment.mask_fraction = 0.5
        model.hidden = 32, 16
        backbone = remix-lite
        method = cdmad
        seeds = 7, 8
        output_dir = out
        train.steps = 12
        train.batch_size = 16
        train.mu = 3
        train.lr = 0.01
        train.tau = 0.95
        train.consistency_weight = 0.5
        lcgc.lambda = 0.4
        lcgc.baseline = gray
        lcgc.refine_pseudo_labels = false
        lcgc.refine_at_test = false
        lcgc.ig_steps = 16
        lcgc.double_subtract = true
        remix.temperature = 0.25
        remix.ema_decay = 0.5
        remix.align = false
        """
        cfg = parse_config_text(text)
        assert cfg.spec.classes == 4
        assert cfg.spec.reversed_unlabeled is True
        assert cfg.spec.gamma_unlabeled == 5.0
        assert cfg.hidden == (32, 16)
        assert cfg.backbone == "remix-lite"
        assert cfg.method == "cdmad"
        assert cfg.seeds == (7, 8)
        assert cfg.steps == 12
        assert cfg.tau == 0.95
        assert cfg.lam == 0.4
        assert cfg.baseline_color == "gray"
        assert cfg.double_subtract is True
        assert cfg.remix_temperature == 0.25

    def test_unknown_key_suggests_neighbor(self):
        with pytest.raises(ConfigError, match=r"line 1.*train\.step.*train\.steps"):
            parse_config_text("train.step = 100")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 2.*duplicate.*line 1"):
            parse_config_text("train.steps = 1\ntrain.steps = 2")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("\n\njust words\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match=r"train\.steps"):
            parse_config_text("train.steps = ten")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="true or false"):
            parse_config_text("lcgc.refine_at_test = yes")

    def test_bad_choice_lists_options(self):
        with pytest.raises(ConfigError, match="baseline, cdmad, lcgc"):
            parse_config_text("method = fixmatch")

    def test_bad_color_choice(self):
        with pytest.raises(ConfigError):
            parse_config_text("lcgc.baseline = purple")

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("seeds = ")

    @pytest.mark.parametrize(
        "line",
        ["seeds = 1,,2", "model.hidden = 64,", "seeds = ,1", "seeds = 1, ,2"],
    )
    def test_empty_list_entry_names_line_and_key(self, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"line 2: .*'{key}'.*empty entry"):
            parse_config_text(f"# a list\n{line}\n")

    def test_domain_validation_becomes_config_error(self):
        """Out-of-domain values caught by the dataclasses surface as
        configuration errors, not raw tracebacks."""
        with pytest.raises(ConfigError):
            parse_config_text("dataset.gamma_labeled = 0.5")
        with pytest.raises(ConfigError):
            parse_config_text("train.tau = 1.5")
        with pytest.raises(ConfigError):
            parse_config_text(
                "dataset.n_max_labeled = 5\ndataset.gamma_labeled = 1000"
            )

    def test_parse_from_disk(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("train.steps = 4\nmethod = baseline\n")
        cfg = parse_config(path)
        assert cfg.steps == 4 and cfg.method == "baseline"

    @pytest.mark.parametrize(
        "text",
        ["train.steps = 4\nmethod = baseline\n", "# a comment\ntrain.steps = 4\n"],
    )
    def test_byte_order_mark_is_accepted(self, tmp_path, text):
        """A UTF-8 byte-order mark, before a key or a comment line, parses
        as the same file without it."""
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_config(marked) == parse_config(plain)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_unreadable_file_raises(self, tmp_path):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"train.steps = 4\n# caf\xff\n")
        for path in (bad, tmp_path):  # not UTF-8; a directory
            with pytest.raises(ConfigError, match="cannot read"):
                parse_config(path)


class TestMethodResolution:
    def test_baseline_disables_all_refinement(self):
        cfg = parse_config_text("method = baseline\nlcgc.lambda = 2.0")
        eff = cfg.train_settings()
        assert eff.lam == 0.0
        assert not eff.refine_pseudo_labels
        assert not eff.refine_at_test

    def test_cdmad_is_lambda_zero_with_refinement(self):
        cfg = parse_config_text("method = cdmad\nlcgc.lambda = 2.0")
        eff = cfg.train_settings()
        assert eff.lam == 0.0
        assert eff.refine_pseudo_labels
        assert eff.refine_at_test

    def test_lcgc_honors_switches(self):
        cfg = parse_config_text(
            "method = lcgc\nlcgc.lambda = 0.8\nlcgc.refine_at_test = false"
        )
        eff = cfg.train_settings()
        assert eff.lam == 0.8
        assert eff.refine_pseudo_labels
        assert not eff.refine_at_test

    def test_train_settings_carries_everything(self):
        cfg = parse_config_text(
            "train.steps = 9\ntrain.lr = 0.3\naugment.sigma_weak = 0.05"
        )
        st = cfg.train_settings()
        assert st.steps == 9
        assert st.lr == 0.3
        assert st.aug.sigma_weak == 0.05
        assert (st.lam, st.baseline_color) == (cfg.lam, cfg.baseline_color)

    def test_defaults_give_default_settings(self):
        assert default_config().train_settings() == TrainSettings()

    def test_every_settings_key_reaches_train_settings(self):
        """Each key that sets a TrainSettings field, given a value other
        than its default, arrives in train_settings()."""
        train = {f.name for f in fields(TrainSettings)}
        cfg = default_config()
        lines, expected = ["method = lcgc"], {}
        for key, name in _SCHEMA.items():
            if name not in train or key == "method":
                continue
            default = getattr(cfg, name)
            if isinstance(default, bool):
                value = not default
            elif isinstance(default, int):
                value = default + 1
            elif isinstance(default, float):
                value = default / 2 if default else 0.5
            else:
                choices = _field(name).metadata["choices"]
                value = next(c for c in choices if c != default)
            lines.append(f"{key} = {str(value).lower()}")
            expected[name] = value
        assert len(expected) == 15
        st = parse_config_text("\n".join(lines)).train_settings()
        for name, value in expected.items():
            assert getattr(st, name) == value, name

    def test_every_settings_field_is_a_config_field(self):
        """train_settings() hands the RunSettings fields over, so a
        TrainSettings field outside RunSettings would silently run at
        its default: only disable_projection, no config key, may be."""
        shared = {f.name for f in fields(RunSettings)}
        added = {f.name for f in fields(TrainSettings)} - shared
        assert added == {"disable_projection"}
        assert issubclass(ExperimentConfig, RunSettings)
        assert not issubclass(ExperimentConfig, TrainSettings)


class TestOverrideAndOutput:
    def test_override_replaces_fields(self):
        cfg = default_config()
        out = cfg.override(method="baseline", steps=1)
        assert out.method == "baseline" and out.steps == 1
        assert cfg.method == "lcgc"  # original untouched

    @pytest.mark.parametrize(
        "bad",
        [
            {"method": "bogus"},
            {"backbone": "resnet"},
            {"baseline_color": "mauve"},
            {"seeds": ()},
            {"hidden": ()},
            {"lam": -0.5},
            {"tau": 1.5},
            {"batch_size": 0},
            {"ig_steps": 0},
            {"hidden": (0,)},
            {"hidden": (64, -3)},
            {"seeds": (1, 1)},
            {"seeds": (-1,)},
            {"remix_temperature": 0.0},
            {"remix_temperature": -0.5},
            {"remix_ema_decay": 1.0},
            {"remix_ema_decay": -0.1},
            {"lam": float("nan")},
            {"lam": float("inf")},
            {"lr": float("inf")},
            {"lr": float("nan")},
            {"consistency_weight": float("nan")},
            {"remix_temperature": float("inf")},
            {"method": "baseline", "lam": float("nan")},
            {"method": "cdmad", "lam": float("inf")},
            {"method": "baseline", "lam": -1.0},
            {"method": "cdmad", "lam": -0.5},
            {"spec": 5},
            {"spec": AugmentConfig()},
            {"aug": None},
            {"aug": LongTailSpec()},
        ],
    )
    def test_override_validates_like_the_parser(self, bad):
        with pytest.raises(ConfigError):
            default_config().override(**bad)

    def test_duplicate_seeds_name_only_their_rule(self):
        """A negative seed fails the field's own bound first, so the
        duplicate rule says nothing about the sign."""
        with pytest.raises(ConfigError) as e:
            default_config().override(seeds=(1, 1))
        assert str(e.value) == "'seeds' must be distinct: (1, 1)"

    def test_the_first_bad_field_in_declaration_order_is_reported(self):
        """Each field's rule is checked in declaration order, the
        RunSettings fields before the config's own."""
        with pytest.raises(ConfigError, match="^tau must be"):
            default_config().override(seeds=(-1,), ig_steps=0, tau=2.0)

    @pytest.mark.parametrize("method", ["baseline", "cdmad", "lcgc"])
    def test_probe_that_lights_nothing_rejected(self, method):
        text = f"dataset.dim = 2\nmethod = {method}\n"
        with pytest.raises(ConfigError, match="lights no coordinate"):
            parse_config_text(text + "lcgc.baseline = blue\n")
        cfg = parse_config_text(text + "lcgc.baseline = green\n")
        with pytest.raises(ConfigError, match="lights no coordinate"):
            cfg.override(baseline_color="blue")
        one = parse_config_text("dataset.dim = 1\n").override(baseline_color="red")
        with pytest.raises(ConfigError, match="lights no coordinate"):
            one.override(baseline_color="green")

    def test_output_root_env(self, monkeypatch, tmp_path):
        cfg = default_config()
        monkeypatch.setenv("LCGCLAB_OUTPUT_ROOT", str(tmp_path))
        assert str(cfg.output_root()).startswith(str(tmp_path))
        monkeypatch.delenv("LCGCLAB_OUTPUT_ROOT")
        assert str(cfg.output_root()) == cfg.output_dir

    @pytest.mark.parametrize("out", ["/etc/abs", "../up", "a/../../up"])
    def test_output_dir_must_stay_under_the_root(self, monkeypatch, tmp_path, out):
        cfg = parse_config_text(f"output_dir = {out}\n")
        assert str(cfg.output_root()) == out  # no root: taken as given
        monkeypatch.setenv("LCGCLAB_OUTPUT_ROOT", str(tmp_path))
        with pytest.raises(ConfigError, match="leaves LCGCLAB_OUTPUT_ROOT"):
            cfg.output_root()
        inside = parse_config_text("output_dir = a/..b/c\n").output_root()
        assert inside == tmp_path / "a" / "..b" / "c"

    def test_empty_output_dir_rejected(self):
        """An empty output_dir, and every other spelling of the working
        directory, would write loose artifacts there."""
        with pytest.raises(ConfigError, match="'output_dir' must not be empty"):
            parse_config_text("output_dir =\n")
        for out in ("", ".", "./", "a/..", "./a/../."):
            with pytest.raises(ConfigError, match="'output_dir' must not be empty"):
                default_config().override(output_dir=out)
            if out:
                with pytest.raises(ConfigError, match="name the working directory"):
                    parse_config_text(f"output_dir = {out}\n")
            with pytest.raises(ConfigError, match="out_dir must not be empty"):
                as_output_dir(Path(out), "out_dir")

    @pytest.mark.parametrize("out", [" runs ", "runs\r", "\truns", "a\nb"])
    def test_output_dir_a_config_file_cannot_hold_rejected(self, out):
        with pytest.raises(ConfigError, match="'output_dir' has a line break"):
            default_config().override(output_dir=out)

    def test_config_is_hashable_and_frozen(self):
        cfg = default_config()
        with pytest.raises(AttributeError):
            cfg.steps = 5


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (TrainSettings, "steps", 2.5),
        (TrainSettings, "batch_size", True),
        (TrainSettings, "lr", "0.1"),
        (TrainSettings, "refine_at_test", 1),
        (TrainSettings, "backbone", None),
        (LongTailSpec, "classes", 2.5),
        (LongTailSpec, "classes", "a"),
        (LongTailSpec, "seed", None),
        (AugmentConfig, "sigma_weak", "a"),
        (AugmentConfig, "mask_fraction", True),
        (ExperimentConfig, "hidden", (64, 2.5)),
        (ExperimentConfig, "seeds", [1, 2]),
        (ExperimentConfig, "output_dir", 3),
        (ExperimentConfig, "spec", 5),
        (TrainSettings, "aug", 5),
        (RunSettings, "aug", None),
    ],
)
def test_fields_are_type_checked_at_construction(cls, field, value):
    """Each field holds a value of its annotation, or the constructor
    raises ContractError; through ExperimentConfig, ConfigError. Once
    TrainSettings(steps=2.5) constructed and failed inside range, and
    LongTailSpec(classes="a") raised a TypeError, and RunSettings(aug=5)
    constructed and failed inside its run's first step."""
    error = ConfigError if cls is ExperimentConfig else ContractError
    with pytest.raises(error, match=field):
        cls(**{field: value})
    if cls is TrainSettings:
        with pytest.raises(ConfigError, match=field):
            default_config().override(**{field: value})
