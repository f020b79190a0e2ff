"""Acceptance suite: nine go/no-go checks with pinned tolerances.

Each test records one PASS/FAIL line (printed in the terminal summary)
and asserts the same condition. The directional experiments (criteria
5, 6, 8) share one 45-run training grid: 3 methods x 3 unlabeled
imbalance ratios x 5 seeds at the package's default configuration.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import record_criterion
from lcgclab.config import default_config
from lcgclab.data import AugmentConfig, LongTailSpec, synthesize
from lcgclab.debias import (
    GradientVector,
    baseline_logits,
    evaluate,
    grad_b,
    grad_d,
    kl_consistency_loss,
    lcgc_combine,
    make_baseline,
    run_training,
    verify_theorem1,
)
from lcgclab.losses import consistency_loss, pseudo_label, supervised_loss
from lcgclab.metrics import bacc, gm, trajectory_trend
from lcgclab.model import ModelParams, logits_array
from lcgclab.runner import run
from lcgclab.tensor import (
    Tape,
    Tensor,
    backward,
    finite_diff_grad,
    flatten_grads,
    zero_grads,
)

GRID_METHODS = ("baseline", "cdmad", "lcgc")
GRID_GAMMAS = (1.0, 100.0, 150.0)
GRID_SEEDS = (1, 2, 3, 4, 5)

IDENTITY_AUG = AugmentConfig(
    sigma_weak=0.0, sigma_strong=0.0, mask_fraction=0.0
)


def generic_net(dims, seed, wscale=0.5, bscale=0.3):
    """Random weights and random NONZERO biases.

    Fresh zero-bias nets put the refinement KL exactly at its minimum
    for a zero-response probe (its true gradient is zero there), which
    makes finite differences return pure noise; derivative checks need
    a generic point in parameter space.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(
            Tensor(
                rng.normal(scale=wscale, size=(fan_in, fan_out)),
                requires_grad=True,
            )
        )
        biases.append(
            Tensor(rng.normal(scale=bscale, size=fan_out), requires_grad=True)
        )
    return ModelParams(dims=tuple(dims), weights=weights, biases=biases)


def relative_error(g: np.ndarray, fd: np.ndarray) -> float:
    floor = np.full_like(g, 1e-4)
    denom = np.maximum.reduce([np.abs(g), np.abs(fd), floor])
    return float(np.max(np.abs(g - fd) / denom))


def away_from_relu_kinks(params: ModelParams, x: np.ndarray, margin=1e-3):
    """True when every hidden pre-activation clears the ReLU kink.

    Central differences step parameters by 1e-6; a pre-activation
    inside the margin could cross zero during the probe, invalidating
    the finite-difference oracle itself.
    """
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        pre = h @ w.data + b.data
        if np.abs(pre).min() < margin:
            return False
        h = np.maximum(pre, 0.0)
    return True


class TestCriterion1GradientOracles:
    def test_autodiff_matches_finite_differences(self):
        """25 random small nets; supervised, consistency, and refinement
        KL gradients each match central differences, rel err < 1e-5."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        colors = ("black", "gray", "white")
        for trial in range(25):
            d = int(rng.integers(3, 7))
            h = int(rng.integers(4, 9))
            c = int(rng.integers(3, 6))
            n = int(rng.integers(2, 5))
            params = generic_net((d, h, c), seed=3000 + trial)
            baseline = make_baseline(colors[trial % 3], d, 1.0)
            while True:
                x = rng.normal(size=(n, d))
                y = rng.integers(1, c + 1, size=n)
                probe = baseline.vector[None, :]
                if away_from_relu_kinks(params, np.vstack([x, probe])):
                    break
            pseudo = pseudo_label(logits_array(params, x), tau=0.0)

            # L_Sup
            zero_grads(params.tensors())
            with Tape():
                loss = supervised_loss(params, x, y)
            backward(loss)
            g = flatten_grads(params.tensors())
            fd = finite_diff_grad(
                lambda: supervised_loss(params, x, y).item(), params.tensors()
            )
            worst = max(worst, relative_error(g, fd))

            # L_Con (identity views so the value function is deterministic)
            g = grad_b(
                params, x, pseudo, IDENTITY_AUG, np.random.default_rng(0)
            ).values
            fd = finite_diff_grad(
                lambda: consistency_loss(
                    params, x, pseudo, IDENTITY_AUG, np.random.default_rng(0)
                ).item(),
                params.tensors(),
            )
            worst = max(worst, relative_error(g, fd))

            # L_kl (raw vs refined logits of the weak views)
            g = grad_d(params, x, baseline).values

            def kl_value():
                logits = logits_array(params, x)
                base = baseline_logits(params, baseline)
                return kl_consistency_loss(logits, logits - base).item()

            fd = finite_diff_grad(kl_value, params.tensors())
            worst = max(worst, relative_error(g, fd))

        elapsed = time.perf_counter() - t0
        passed = worst < 1e-5 and elapsed < 60.0
        record_criterion(
            1, passed,
            f"gradient oracles on 25 nets: max rel err {worst:.2e} < 1e-5",
            elapsed,
        )
        assert worst < 1e-5
        assert elapsed < 60.0


class TestCriterion2ProjectionAlgebra:
    def test_passthrough_and_conflict_identity(self):
        """10^4 random (Gb, Gd, lam) triples: agreement passes Gb through
        unchanged; conflicts satisfy G.Gd = (1+lam)(Gb.Gd) within 1e-10;
        the worked example reproduces exactly."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        worst_identity = 0.0
        passthrough_ok = True
        n_conflict = 0
        for _ in range(10_000):
            gb = GradientVector(rng.normal(size=8))
            gd = GradientVector(rng.normal(size=8))
            lam = float(rng.uniform(0.0, 3.0))
            dot = gd.dot(gb)
            out = lcgc_combine(gb, gd, lam)
            if dot >= 0.0:
                passthrough_ok = passthrough_ok and (out is gb)
            else:
                n_conflict += 1
                worst_identity = max(
                    worst_identity, abs(out.dot(gd) - (1.0 + lam) * dot)
                )
        example = lcgc_combine(
            GradientVector([1.0, 0.0]), GradientVector([-1.0, 1.0]), 1.0
        )
        example_exact = np.array_equal(example.values, [1.5, -0.5])

        elapsed = time.perf_counter() - t0
        passed = (
            passthrough_ok
            and worst_identity < 1e-10
            and example_exact
            and elapsed < 10.0
        )
        record_criterion(
            2, passed,
            f"projection algebra on 10^4 triples ({n_conflict} conflicts): "
            f"amplification residual {worst_identity:.2e} < 1e-10, "
            f"passthrough exact, worked example exact",
            elapsed,
        )
        assert passthrough_ok
        assert worst_identity < 1e-10
        assert example_exact
        assert elapsed < 10.0


class TestCriterion3LambdaZeroEquivalence:
    @pytest.mark.slow
    def test_lambda_zero_equals_projection_removed(self):
        """Two full 2000-step runs on the default synthetic setting
        (C=10, d=32, N1=300, M1=600, gamma_l=gamma_u=100), one with
        lam=0 and one with the projection branch bypassed, produce
        bit-identical parameter trajectories and metrics."""
        t0 = time.perf_counter()
        cfg = default_config().override(method="lcgc", steps=2000)
        ds = synthesize(cfg.spec)
        base_settings = cfg.train_settings()

        def one_run(lcgc_cfg):
            settings = replace(base_settings, lcgc=lcgc_cfg)
            digests = []

            def capture(params, rec):
                h = hashlib.sha256()
                for t in params.tensors():
                    h.update(t.data.tobytes())
                digests.append(h.hexdigest())

            params, record = run_training(
                ds, cfg.hidden, settings, seed=1, step_callback=capture
            )
            return params, record, digests

        p_lam0, rec_lam0, hash_lam0 = one_run(
            replace(base_settings.lcgc, lam=0.0)
        )
        p_off, rec_off, hash_off = one_run(
            replace(base_settings.lcgc, disable_projection=True)
        )

        trajectories_match = hash_lam0 == hash_off and len(hash_lam0) == 2000
        final_match = all(
            a.data.tobytes() == b.data.tobytes()
            for a, b in zip(p_lam0.tensors(), p_off.tensors())
        )
        records_match = (
            rec_lam0.steps == rec_off.steps
            and rec_lam0.final_bacc == rec_off.final_bacc
            and rec_lam0.final_gm == rec_off.final_gm
            and np.array_equal(rec_lam0.confusion, rec_off.confusion)
        )

        elapsed = time.perf_counter() - t0
        passed = (
            trajectories_match
            and final_match
            and records_match
            and elapsed < 300.0
        )
        record_criterion(
            3, passed,
            "lam=0 vs projection-branch-removed: 2000-step parameter "
            "trajectories, final weights, and metrics bit-identical "
            f"(final bacc {rec_lam0.final_bacc:.4f})",
            elapsed,
        )
        assert trajectories_match
        assert final_match
        assert records_match
        assert elapsed < 300.0


class TestCriterion4AttributionCompleteness:
    def test_riemann_sums_close_the_logit_gap(self):
        """10 random two-hidden-layer nets x 20 inputs: the attribution
        coordinates sum to the logit gap within 1e-3 at 512 path steps;
        linear models are exact to 1e-10 at a single step."""
        t0 = time.perf_counter()
        worst_mlp = 0.0
        for trial in range(10):
            params = generic_net(
                (8, 14, 14, 4), seed=4000 + trial, wscale=0.15, bscale=0.1
            )
            baseline = make_baseline("black", 8, 1.0)
            x = np.random.default_rng(5000 + trial).normal(
                scale=0.4, size=(20, 8)
            )
            report = verify_theorem1(params, x, baseline, steps=512, tol=1e-3)
            worst_mlp = max(worst_mlp, report.max_residual)

        worst_linear = 0.0
        rng = np.random.default_rng(6000)
        for _ in range(10):
            lin = ModelParams(
                dims=(6, 3),
                weights=[Tensor(rng.normal(size=(6, 3)), requires_grad=True)],
                biases=[Tensor(rng.normal(size=3), requires_grad=True)],
            )
            baseline = make_baseline("gray", 6, 1.0)
            x = rng.normal(size=(20, 6))
            report = verify_theorem1(lin, x, baseline, steps=1, tol=1e-10)
            worst_linear = max(worst_linear, report.max_residual)

        elapsed = time.perf_counter() - t0
        passed = worst_mlp < 1e-3 and worst_linear < 1e-10 and elapsed < 120.0
        record_criterion(
            4, passed,
            f"attribution completeness: max residual {worst_mlp:.2e} < 1e-3 "
            f"at 512 steps (10 nets x 20 inputs); linear max "
            f"{worst_linear:.2e} < 1e-10 at 1 step",
            elapsed,
        )
        assert worst_mlp < 1e-3
        assert worst_linear < 1e-10
        assert elapsed < 120.0


# --------------------------------------------------------------- the grid


@pytest.fixture(scope="session")
def grid():
    """45 full training runs shared by criteria 5, 6, and 8.

    Everything below the method/imbalance/seed grid is the package
    default configuration; each imbalance level shares one dataset
    realization across methods and seeds.
    """
    t0 = time.perf_counter()
    results = {}
    for gu in GRID_GAMMAS:
        spec = LongTailSpec(gamma_unlabeled=gu)
        ds = synthesize(spec)
        for method in GRID_METHODS:
            cfg = default_config().override(spec=spec, method=method)
            settings = cfg.train_settings()
            for seed in GRID_SEEDS:
                params, rec = run_training(ds, cfg.hidden, settings, seed)
                entry = {
                    "bacc": rec.final_bacc,
                    "gm": rec.final_gm,
                    "diverged": rec.diverged,
                }
                if method == "cdmad" and gu == 100.0:
                    entry["kl_traj"] = rec.kl_trajectory()
                if method == "lcgc" and gu == 150.0:
                    entry["bacc_unrefined"] = evaluate(
                        params, ds.test_x, ds.test_y
                    ).bacc
                results[(method, gu, seed)] = entry
    results["_seconds"] = time.perf_counter() - t0
    return results


def _medians(grid, method, gu):
    vals = [grid[(method, gu, s)]["bacc"] for s in GRID_SEEDS]
    return float(np.median(vals))


class TestCriterion5RefinementShrinksBias:
    @pytest.mark.slow
    def test_kl_trajectory_trends_down(self, grid):
        """With pseudo-label refinement active (cdmad path, gamma_l =
        gamma_u = 100), the KL trajectory's final-10% median sits below
        its first-10% median in at least 4 of 5 seeds."""
        t0 = time.perf_counter()
        outcomes = []
        details = []
        for seed in GRID_SEEDS:
            traj = grid[("cdmad", 100.0, seed)]["kl_traj"]
            tr = trajectory_trend(traj)
            outcomes.append(tr.decreasing)
            details.append(
                f"seed {seed}: {tr.head_median:.4f}->{tr.tail_median:.4f}"
            )
        n_down = sum(outcomes)
        elapsed = time.perf_counter() - t0
        passed = n_down >= 4
        record_criterion(
            5, passed,
            f"bias-KL head->tail medians decreasing in {n_down}/5 seeds "
            f"({'; '.join(details)}) [shared grid]",
            elapsed + grid["_seconds"] / 3.0,
        )
        assert n_down >= 4

    @pytest.mark.slow
    def test_divergence_free_grid(self, grid):
        diverged = [
            key for key, v in grid.items()
            if isinstance(v, dict) and v.get("diverged")
        ]
        assert diverged == []


class TestCriterion6DirectionalDebiasing:
    @pytest.mark.slow
    def test_method_ordering_on_medians(self, grid):
        """Median final bACC over 5 seeds: LCGC >= CDMAD-path >=
        baseline at every unlabeled imbalance (ties within 0.3 points
        tolerated), and LCGC beats the baseline by at least one point
        at gamma_u = 150."""
        t0 = time.perf_counter()
        tol = 0.003
        ok = True
        details = []
        for gu in GRID_GAMMAS:
            b = _medians(grid, "baseline", gu)
            c = _medians(grid, "cdmad", gu)
            l = _medians(grid, "lcgc", gu)
            ok = ok and (l >= c - tol) and (c >= b - tol)
            details.append(f"gu={gu:g}: {b:.3f}/{c:.3f}/{l:.3f}")
        margin = _medians(grid, "lcgc", 150.0) - _medians(
            grid, "baseline", 150.0
        )
        ok = ok and margin >= 0.01
        elapsed = time.perf_counter() - t0
        record_criterion(
            6, ok,
            "median bACC baseline/cdmad/lcgc: " + "; ".join(details)
            + f"; lcgc-baseline at gu=150: {margin * 100:+.1f}pt >= +1pt "
            f"[grid: {grid['_seconds']:.0f}s for 45 runs]",
            elapsed + grid["_seconds"] / 3.0,
        )
        for gu in GRID_GAMMAS:
            assert _medians(grid, "lcgc", gu) >= _medians(grid, "cdmad", gu) - tol
            assert _medians(grid, "cdmad", gu) >= _medians(grid, "baseline", gu) - tol
        assert margin >= 0.01


class TestCriterion7MetricCorrectness:
    def test_hand_values_and_ordering_property(self):
        """bacc and gm reproduce [[5,0],[2,3]] -> 0.8 and ~0.7746, and
        GM <= bACC holds on 10^4 random confusion matrices."""
        t0 = time.perf_counter()
        cm = np.array([[5, 0], [2, 3]])
        hand_ok = (
            abs(bacc(cm) - 0.8) < 1e-12
            and abs(gm(cm) - 0.7745966692414834) < 1e-12
        )
        rng = np.random.default_rng(77)
        property_ok = True
        for _ in range(10_000):
            c = int(rng.integers(2, 9))
            m = rng.integers(0, 40, size=(c, c))
            m[np.arange(c), np.arange(c)] += 1
            if gm(m) > bacc(m) + 1e-12:
                property_ok = False
                break
        elapsed = time.perf_counter() - t0
        passed = hand_ok and property_ok and elapsed < 10.0
        record_criterion(
            7, passed,
            "metrics: bacc([[5,0],[2,3]])=0.8, gm=0.77460 exact; "
            "GM <= bACC on 10^4 random confusion matrices",
            elapsed,
        )
        assert hand_ok
        assert property_ok
        assert elapsed < 10.0


class TestCriterion8TestRefinementAblation:
    @pytest.mark.slow
    def test_removing_test_refinement_hurts(self, grid):
        """Evaluating the trained LCGC models (gamma_u = 150) without
        the test-time correction strictly decreases the median bACC."""
        t0 = time.perf_counter()
        with_ref = [
            grid[("lcgc", 150.0, s)]["bacc"] for s in GRID_SEEDS
        ]
        without_ref = [
            grid[("lcgc", 150.0, s)]["bacc_unrefined"] for s in GRID_SEEDS
        ]
        med_with = float(np.median(with_ref))
        med_without = float(np.median(without_ref))
        elapsed = time.perf_counter() - t0
        passed = med_without < med_with
        record_criterion(
            8, passed,
            f"test-time refinement ablation at gu=150: median bACC "
            f"{med_with:.4f} -> {med_without:.4f} "
            f"({(med_without - med_with) * 100:+.1f}pt, strict decrease) "
            "[shared grid]",
            elapsed + grid["_seconds"] / 3.0,
        )
        assert med_without < med_with


class TestCriterion9Determinism:
    def test_repeated_run_is_bit_identical(self, tmp_path):
        """The same config run twice produces byte-identical CSVs and
        JSON artifacts once wall-clock timings are stripped."""
        t0 = time.perf_counter()
        cfg = default_config().override(steps=25, seeds=(1, 2))
        run(cfg, out_dir=tmp_path / "first")
        run(cfg, out_dir=tmp_path / "second")

        def strip(obj):
            if isinstance(obj, dict):
                return {
                    k: strip(v) for k, v in obj.items() if k != "wall_time_s"
                }
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        csv_ok = True
        for seed in (1, 2):
            a = (tmp_path / "first" / f"steps_seed{seed}.csv").read_bytes()
            b = (tmp_path / "second" / f"steps_seed{seed}.csv").read_bytes()
            csv_ok = csv_ok and a == b

        json_ok = True
        for name in ("run_seed1.json", "run_seed2.json", "aggregate.json"):
            a = json.loads((tmp_path / "first" / name).read_text())
            b = json.loads((tmp_path / "second" / name).read_text())
            json_ok = json_ok and strip(a) == strip(b)

        elapsed = time.perf_counter() - t0
        passed = csv_ok and json_ok
        record_criterion(
            9, passed,
            "repeated runs: step CSVs byte-identical, JSON artifacts "
            "identical after dropping wall-clock fields",
            elapsed,
        )
        assert csv_ok
        assert json_ok
