"""Acceptance gate: one test per criterion clause, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them all).

The three reference scenarios run once per session at N = 200 and
dt_max = 1e-3 d over the full 10 d horizon.
"""

import dataclasses
import math

import numpy as np
import pytest

from biofilm1d.elliptic import _homogeneous_solve, solve_problem
from biofilm1d.model import CONSTRAINT_TOL
from biofilm1d.oracle import (box_from_run, characteristic_trace,
                              cross_check_errors, estimate_contraction,
                              map_run_to_char_grid, picard_solve)
from biofilm1d.cli import EXIT_OK, cli
from biofilm1d.output import BOUNDARY_NAME, MANIFEST_NAME, PROFILE_NAME
from biofilm1d.presets import DEFAULT_T1, build_preset
from biofilm1d.stepper import run

pytestmark = pytest.mark.filterwarnings(
    "ignore::biofilm1d.errors.BoundaryLayerResolutionWarning")

T1 = DEFAULT_T1


def report(tag, ok, detail):
    print(f"CRITERION {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def case1_run():
    return run(build_preset("case1").cfg, record_profiles=True, profile_t_max=1.05)


@pytest.fixture(scope="session")
def case2_run():
    return run(build_preset("case2").cfg, record_profiles=True, profile_t_max=0.55)


@pytest.fixture(scope="session")
def case3_run():
    return run(build_preset("case3").cfg)


def snapshot_at(result, t):
    for snap in result.snapshots:
        if abs(snap.t - t) < 1e-9:
            return snap
    raise AssertionError(f"no snapshot at t = {t}")


class TestCriterion1Exclusion:
    def test_third_species_absent_below_characteristic(self, case1_run):
        checked = 0
        worst = 0.0
        for snap in case1_run.snapshots:
            t = snap.t
            if t < T1 or not snap.attachment:
                continue
            checked += 1
            c_t = characteristic_trace(case1_run, T1, t).z[-1]
            st = snap
            h = st.L / st.N
            mask = st.zeta * st.L < c_t - 3.0 * h
            assert mask.any()
            worst = max(worst, float(st.f[2][mask].max()))
        assert checked >= 2
        ok = worst <= 1e-10
        report("1a", ok, f"max f3 below c(t1,t)-3h over {checked} attachment "
                         f"snapshots = {worst:.3e}, tol 1e-10")
        assert ok

    def test_washout_at_final_time(self, case1_run):
        f3_max = float(snapshot_at(case1_run, 10.0).f[2].max())
        ok = f3_max <= 1e-3
        report("1b", ok, f"max f3 at t=10 d = {f3_max:.3e}, tol 1e-3")
        assert ok


class TestCriterion2Invasion:
    def test_colonized_everywhere_at_half_day(self, case2_run):
        snap = snapshot_at(case2_run, 0.5)
        st = snap
        c_t = characteristic_trace(case2_run, T1, 0.5).z[-1]
        inner = st.zeta * st.L < c_t
        assert inner.any()
        min_inner = float(st.f[2][inner].min())
        min_all = float(st.f[2].min())
        ok = min_all > 0.0
        report("2a", ok, f"min f3 at t=0.5 d = {min_all:.3e} "
                         f"(inner region min {min_inner:.3e}); required > 0")
        assert ok

    def test_no_washout_at_final_time(self, case2_run):
        f3_min = float(snapshot_at(case2_run, 10.0).f[2].min())
        ok = f3_min > 1e-3
        report("2b", ok, f"min f3 at t=10 d = {f3_min:.3e}, required > 1e-3")
        assert ok

    def test_substrate_three_depressed_by_invasion(self, case1_run, case2_run):
        s3_case2 = float(snapshot_at(case2_run, 10.0).S[2].max())
        s3_case1 = float(snapshot_at(case1_run, 10.0).S[2].max())
        ok = s3_case2 < s3_case1
        report("2c", ok, f"max S3 at t=10 d: colonizing {s3_case2:.6f} vs "
                         f"attachment-only {s3_case1:.6f}; required strictly lower")
        assert ok


class TestCriterion3PureColonization:
    def test_thinner_than_attaching_case(self, case2_run, case3_run):
        pairs = []
        for s2, s3 in zip(case2_run.snapshots, case3_run.snapshots):
            assert s2.t == s3.t
            pairs.append((s3.L, s2.L))
        ok = all(L3 < L2 for L3, L2 in pairs)
        detail = ", ".join(f"{L3:.3e}<{L2:.3e}" for L3, L2 in pairs)
        report("3a", ok, f"L(case3) vs L(case2) at snapshots: {detail}")
        assert ok

    def test_growth_concentrates_in_inner_layers(self, case3_run):
        st = snapshot_at(case3_run, 10.0)
        k = int(np.argmax(st.f[2]))
        ok = st.zeta[k] < 0.5
        report("3b", ok, f"argmax f3 at t=10 d sits at z/L = {st.zeta[k]:.3f}, "
                         f"required < 0.5 (max f3 = {st.f[2][k]:.3e})")
        assert ok


class TestCriterion4RegimeTransition:
    def test_attachment_start_detachment_end(self, case1_run):
        b = case1_run.boundary
        start = b.sigma_a[0] - b.sigma_d[0]
        end = b.sigma_a[-1] - b.sigma_d[-1]
        ok = start > 0.0 and end < 0.0
        report("4a", ok, f"sigma_a - sigma_d: {start:.3e} at start, {end:.3e} at end")
        assert ok

    def test_thickness_plateau(self, case1_run):
        b = case1_run.boundary
        L9 = float(np.interp(9.0, b.t, b.L))
        L10 = float(b.L[-1])
        rel = abs(L10 - L9) / L10
        # at the plateau the interface sits at its flux fixed point:
        # u(L) + sigma_a ~ delta L^2, so one step barely moves it
        dt = float(b.t[-1] - b.t[-2])
        step_rel = abs(b.u_L[-1] + b.sigma_a[-1] - b.sigma_d[-1]) * dt / L10
        ok = rel < 1e-3 and step_rel < 1e-4
        report("4b", ok, f"|L(10)-L(9)|/L(10) = {rel:.3e} (tol 1e-3); "
                         f"per-step |dL|/L at the fixed point = {step_rel:.3e} "
                         f"(tol 1e-4)")
        assert ok


class TestCriterion5ConstraintPositivity:
    def test_all_snapshots(self, case1_run, case2_run, case3_run):
        worst_drift = 0.0
        worst_min = math.inf
        count = 0
        for res in (case1_run, case2_run, case3_run):
            for snap in res.snapshots:
                st = snap
                count += 1
                worst_drift = max(worst_drift, st.sum_f_drift())
                worst_min = min(worst_min, float(st.f.min()),
                                float(st.S.min()), float(st.Psi.min()))
        ok = worst_drift <= CONSTRAINT_TOL and worst_min >= 0.0
        report("5", ok, f"{count} snapshots: max |sum f - 1| = {worst_drift:.2e} "
                        f"(tol {CONSTRAINT_TOL:g}), min field value = {worst_min:.2e}")
        assert ok


class TestCriterion6EllipticConvergence:
    def test_closed_form_convergence(self):
        # The quadratic goes through the substrate Newton solve and the
        # screened profile through the planktonic solve.
        q, L, D, bulk = 100.0, 1e-3, 1e-5, 100.0
        k = 5.0
        mu = math.sqrt(k / D)

        def solve_quad(N):
            return solve_problem(lambda v: np.full_like(v, -q), np.zeros_like,
                                 np.full(N + 1, bulk), bulk, (L / N) ** 2 / D,
                                 1e-9, 50).values

        def solve_screen(N):
            return _homogeneous_solve(np.full(N + 1, (L / N) ** 2 / D * k), bulk)

        def exact_quad(zeta):
            return bulk - (q * L * L / (2 * D)) * (1 - zeta ** 2)

        def exact_screen(zeta):
            return bulk * np.cosh(mu * zeta * L) / math.cosh(mu * L)

        errs = {}
        for N in (200, 400):
            zeta = np.linspace(0.0, 1.0, N + 1)
            e_quad = np.max(np.abs(solve_quad(N) - exact_quad(zeta)))
            e_scr = np.max(np.abs(solve_screen(N) - exact_screen(zeta)))
            errs[N] = (e_quad, e_scr)

        # central differences are exact on the quadratic solution, so its
        # error sits at round-off and the N->2N ratio signal comes from the
        # screened profile; the combined max error carries that signal.
        ratio = max(errs[200]) / max(errs[400])
        rel400 = max(errs[400]) / bulk
        ok = (3.5 <= ratio <= 4.5 and rel400 <= 1e-6
              and errs[200][0] / bulk <= 1e-12 and errs[400][0] / bulk <= 1e-12)
        report("6", ok, f"error ratio N=200/N=400 = {ratio:.2f} (in [3.5, 4.5]), "
                        f"relative error at N=400 = {rel400:.2e} (tol 1e-6), "
                        f"quadratic exact to {errs[400][0] / bulk:.1e}")
        assert ok


def _short_cfg(cfg, horizon, N, dt_max):
    nm = dataclasses.replace(cfg.numerics, N=N, dt_max=dt_max)
    return dataclasses.replace(cfg, numerics=nm, horizon=horizon,
                               snapshot_times=())


def _oracle_errors(cfg, T_o, N, dt_max, grid_n):
    res = run(_short_cfg(cfg, T_o, N, dt_max), record_profiles=True)
    fields, history = picard_solve(cfg, T_o=T_o, grid_n=grid_n)
    errs = cross_check_errors(fields, *map_run_to_char_grid(res, fields.times))
    return res, history, errs


class TestCriterion7OracleEquivalence:
    def test_fields_agree_and_improve_under_refinement(self):
        cfg = build_preset("case1").cfg
        T_o = 0.02
        _, hist_c, errs_c = _oracle_errors(cfg, T_o, N=50, dt_max=8e-4, grid_n=25)
        res_f, hist_f, errs_f = _oracle_errors(cfg, T_o, N=100, dt_max=4e-4,
                                               grid_n=50)
        converged = hist_f[-1] < cfg.numerics.picard_tol

        est = estimate_contraction(cfg, box_from_run(res_f), t_max=T_o)
        lam = est.contraction_factor(T_o)
        ratios = [hist_f[k + 1] / hist_f[k]
                  for k in range(1, len(hist_f) - 1) if hist_f[k] > 0]
        ratio_ok = all(r <= 1.1 * lam for r in ratios) if ratios else True

        within = max(errs_c) <= 0.05 and max(errs_f) <= 0.05
        improves = max(errs_f) < max(errs_c)
        ok = converged and ratio_ok and within and improves
        report("7", ok,
               f"errors (x, c, L) coarse = ({errs_c[0]:.2e}, {errs_c[1]:.2e}, "
               f"{errs_c[2]:.2e}), fine = ({errs_f[0]:.2e}, {errs_f[1]:.2e}, "
               f"{errs_f[2]:.2e}), tol 5e-2; iterate ratios <= 1.1*Lambda("
               f"{T_o}) = {1.1 * lam:.2f}")
        assert ok


class TestCriterion8ContractionWindow:
    def test_window_positive_and_iteration_contracts_inside(self):
        cfg = build_preset("case1").cfg
        res = run(_short_cfg(cfg, 0.05, 100, 5e-4), record_profiles=True)
        est = estimate_contraction(cfg, box_from_run(res), t_max=0.05)
        T_star = est.T_star
        window_ok = T_star > 0.0 and est.contraction_factor(T_star) < 1.0

        T_o = T_star / 2.0
        fields, history = picard_solve(cfg, T_o=T_o, grid_n=60)
        lam_o = est.contraction_factor(T_o)
        ratios = [history[k + 1] / history[k]
                  for k in range(1, len(history) - 1) if history[k] > 0]
        measured = max(ratios) if ratios else 0.0
        contract_ok = (history[-1] < cfg.numerics.picard_tol and lam_o < 1.0
                       and measured <= 1.1 * lam_o)
        ok = window_ok and contract_ok
        report("8", ok, f"T_star = {T_star:.4e} d, a = {est.a:.3e}, "
                        f"b = {est.b:.3e}; at T_o = T_star/2: Lambda = "
                        f"{lam_o:.3f}, measured ratio = {measured:.3f}")
        assert ok


class TestCriterion9Determinism:
    def test_repeated_cli_runs_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli(["run", "--preset", "case2", "--out", str(out_a)]) == EXIT_OK
        assert cli(["run", "--preset", "case2", "--out", str(out_b)]) == EXIT_OK
        same = all(
            (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in (PROFILE_NAME, BOUNDARY_NAME, MANIFEST_NAME))
        report("9", same, "two `run --preset case2` invocations produced "
                          + ("byte-identical" if same else "DIFFERING") + " bundles")
        assert same
