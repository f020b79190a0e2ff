"""Experiment configuration: parsing, defaults, method resolution."""

from __future__ import annotations

import pytest

from lcgclab import config as config_module
from lcgclab.config import (
    _SCHEMA,
    ExperimentConfig,
    default_config,
    parse_config,
    parse_config_text,
)
from lcgclab.errors import ConfigError


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


class TestKeyTable:
    """The docstring, the schema and resolved() describe one key set."""

    def test_docstring_names_exactly_the_schema_keys(self):
        assert list(_documented_keys()) == list(_SCHEMA)

    def test_docstring_kinds_match_schema(self):
        doc_kind = {"ints": "int_list"}
        for key, (kind, _) in _documented_keys().items():
            assert doc_kind.get(kind, kind) == _SCHEMA[key][1], key

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

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")


class TestMethodResolution:
    def test_baseline_disables_all_refinement(self):
        cfg = parse_config_text("method = baseline\nlcgc.lambda = 2.0")
        eff = cfg.effective_lcgc()
        assert eff.lam == 0.0
        assert not eff.refine_pseudo_labels
        assert not eff.refine_at_test

    def test_cdmad_is_lambda_zero_with_refinement(self):
        cfg = parse_config_text("method = cdmad\nlcgc.lambda = 2.0")
        eff = cfg.effective_lcgc()
        assert eff.lam == 0.0
        assert eff.refine_pseudo_labels
        assert eff.refine_at_test

    def test_lcgc_honors_switches(self):
        cfg = parse_config_text(
            "method = lcgc\nlcgc.lambda = 0.8\nlcgc.refine_at_test = false"
        )
        eff = cfg.effective_lcgc()
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
        assert st.lcgc == cfg.effective_lcgc()


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
            {"remix_temperature": 0.0},
            {"remix_temperature": -0.5},
            {"remix_ema_decay": 1.0},
            {"remix_ema_decay": -0.1},
        ],
    )
    def test_override_validates_like_the_parser(self, bad):
        with pytest.raises(ConfigError):
            default_config().override(**bad)

    def test_output_root_env(self, monkeypatch, tmp_path):
        cfg = default_config()
        monkeypatch.setenv("LCGCLAB_OUTPUT_ROOT", str(tmp_path))
        assert str(cfg.output_root()).startswith(str(tmp_path))
        monkeypatch.delenv("LCGCLAB_OUTPUT_ROOT")
        assert str(cfg.output_root()) == cfg.output_dir

    def test_config_is_hashable_and_frozen(self):
        cfg = default_config()
        with pytest.raises(AttributeError):
            cfg.steps = 5
