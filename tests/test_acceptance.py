"""Acceptance suite: nine go/no-go checks with pinned tolerances.

Each test records one PASS/FAIL line (printed in the terminal summary)
and asserts the same condition. The directional experiments (criteria
5, 6, 8) share one 45-run training grid: 3 methods x 3 unlabeled
imbalance ratios x 5 seeds at the package's default configuration. The
runs are independent and go through a small process pool.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    finite_diff_grad,
    generic_net,
    grad_b,
    grad_d,
    record_criterion,
    relative_error,
)
from lcgclab.config import default_config
from lcgclab.data import AugmentConfig, LongTailSpec, synthesize
from lcgclab.debias import (
    GradientVector,
    _grad_d_with_loss,
    baseline_logits,
    evaluate,
    kl_consistency_terms,
    lcgc_combine,
    make_baseline,
    run_training,
    verify_theorem1,
)
from lcgclab.kernels import log_softmax_rows, softmax_rows
from lcgclab.losses import consistency_inputs, pseudo_label
from lcgclab.metrics import bacc, gm, trajectory_trend
from lcgclab.model import ModelParams, StepBuffers, logits_array
from lcgclab.runner import run
from lcgclab.tensor import cross_entropy_terms

GRID_METHODS = ("baseline", "cdmad", "lcgc")
GRID_GAMMAS = (1.0, 100.0, 150.0)
GRID_SEEDS = (1, 2, 3, 4, 5)

IDENTITY_AUG = AugmentConfig(
    sigma_weak=0.0, sigma_strong=0.0, mask_fraction=0.0
)


def away_from_relu_kinks(params: ModelParams, x: np.ndarray, margin=1e-3):
    """True when every hidden pre-activation clears the ReLU kink.

    Central differences step parameters by 1e-6; a pre-activation
    inside the margin could cross zero during the probe, invalidating
    the finite-difference oracle itself.
    """
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        pre = h @ w + b
        if np.abs(pre).min() < margin:
            return False
        h = np.maximum(pre, 0.0)
    return True


class TestCriterion1GradientOracles:
    def test_autodiff_matches_finite_differences(self):
        """25 random small nets; the supervised, consistency, and
        refinement KL gradients the training step applies each match
        central differences of plain-array loss values, rel err < 1e-5."""
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
                probe = baseline[None, :]
                if away_from_relu_kinks(params, np.vstack([x, probe])):
                    break
            pseudo = pseudo_label(softmax_rows(logits_array(params, x)), tau=0.0)

            # L_Sup: the supervised block of the step's one forward
            bufs = StepBuffers(params, n, n, baseline)
            bufs.stacked[:n] = bufs.stacked[n + 1 :] = x
            g = _grad_d_with_loss(params, bufs.stacked, n, y, bufs, True)[3]
            fd = finite_diff_grad(
                lambda: cross_entropy_terms(
                    log_softmax_rows(logits_array(params, x)), y
                )[0],
                params.tensors(),
            )
            worst = max(worst, relative_error(g, fd))

            # L_Con (identity views so the value function is deterministic)
            g = grad_b(
                params, x, pseudo, IDENTITY_AUG, np.random.default_rng(0)
            ).values

            def con_value():
                strong, target, weights = consistency_inputs(
                    x, pseudo, IDENTITY_AUG, np.random.default_rng(0)
                )
                lsm = log_softmax_rows(logits_array(params, strong))
                return cross_entropy_terms(lsm, target, weights=weights)[0]

            fd = finite_diff_grad(con_value, params.tensors())
            worst = max(worst, relative_error(g, fd))

            # L_kl (raw vs refined logits of the weak views)
            g = grad_d(params, x, baseline).values

            def kl_value():
                logits = logits_array(params, x)
                base = baseline_logits(params, baseline)
                return kl_consistency_terms(
                    log_softmax_rows(logits), log_softmax_rows(logits - base)
                )[0]

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

        def one_run(settings):
            digests = []

            def capture(params, rec):
                h = hashlib.sha256()
                for t in params.tensors():
                    h.update(t.tobytes())
                digests.append(h.hexdigest())

            params, record = run_training(
                ds, cfg.hidden, settings, seed=1, step_callback=capture
            )
            return params, record, digests

        p_lam0, rec_lam0, hash_lam0 = one_run(replace(base_settings, lam=0.0))
        p_off, rec_off, hash_off = one_run(
            replace(base_settings, disable_projection=True)
        )

        trajectories_match = hash_lam0 == hash_off and len(hash_lam0) == 2000
        final_match = all(
            a.tobytes() == b.tobytes()
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
                weights=[rng.normal(size=(6, 3))],
                biases=[rng.normal(size=3)],
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


@functools.lru_cache(maxsize=None)
def _grid_dataset(gu):
    return synthesize(LongTailSpec(gamma_unlabeled=gu))


def _grid_run(method, gu, seed, steps=None):
    """One grid run and what the criteria read of it. Everything but the
    method, imbalance and seed (and ``steps``, when given) is the package
    default configuration. Each imbalance level's dataset is one
    realization of its spec, rebuilt once per process."""
    spec = LongTailSpec(gamma_unlabeled=gu)
    cfg = default_config().override(spec=spec, method=method)
    if steps is not None:
        cfg = cfg.override(steps=steps)
    ds = _grid_dataset(gu)
    params, rec = run_training(ds, cfg.hidden, cfg.train_settings(), seed)
    entry = {
        "bacc": rec.final_bacc,
        "gm": rec.final_gm,
        "diverged": rec.diverged,
    }
    if method == "cdmad" and gu == 100.0:
        entry["kl_traj"] = np.array([r.loss_kl for r in rec.steps])
    if method == "lcgc" and gu == 150.0:
        entry["bacc_unrefined"] = evaluate(params, ds.test_x, ds.test_y).bacc
    return entry


def _pooled(runs):
    """``_grid_run(*args)`` for every args tuple in ``runs``, keyed by it,
    on a spawn pool of at most four workers (never more than the cores
    this process may use), each with its BLAS on one thread."""
    workers = min(len(os.sched_getaffinity(0)), 4)
    with pytest.MonkeyPatch.context() as env:
        # Read by the BLAS when a worker loads numpy.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setenv(var, "1")
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
            futures = {args: pool.submit(_grid_run, *args) for args in runs}
            return {args: f.result() for args, f in futures.items()}


@pytest.fixture(scope="session")
def grid():
    """45 full training runs shared by criteria 5, 6, and 8, keyed by
    (method, gamma_unlabeled, seed)."""
    t0 = time.perf_counter()
    results = _pooled(
        [
            (method, gu, seed)
            for gu in GRID_GAMMAS
            for method in GRID_METHODS
            for seed in GRID_SEEDS
        ]
    )
    results["_seconds"] = time.perf_counter() - t0
    return results


class TestGridPool:
    def test_pooled_runs_equal_serial(self):
        """The pool changes no bit of what the criteria read: two short
        runs, one per special cell, give the same bytes either way."""

        def as_bytes(results):
            return {
                args: {k: np.asarray(v).tobytes() for k, v in entry.items()}
                for args, entry in results.items()
            }

        runs = [("cdmad", 100.0, 1, 60), ("lcgc", 150.0, 2, 60)]
        serial = {args: _grid_run(*args) for args in runs}
        assert "kl_traj" in serial[runs[0]]
        assert "bacc_unrefined" in serial[runs[1]]
        assert as_bytes(_pooled(runs)) == as_bytes(serial)


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
