import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import biofilm1d
from biofilm1d import elliptic, kinetics, stepper
from biofilm1d.elliptic import (_clamp_solution, _homogeneous_solve, _residual,
                                resolution_limit, solve_planktonic, solve_problem,
                                solve_substrates, tridiagonal_solve, warn_under_resolved)
from biofilm1d.errors import (BoundaryLayerResolutionWarning, NonConvergence,
                              SingularJacobian)
from biofilm1d.kinetics import inflow_fractions, planktonic_sink_coefficients
from biofilm1d.model import Stoichiometry, SubstrateParams
from biofilm1d.presets import build_preset
from biofilm1d.traces import BulkTraces, ConstantTrace


def stencil_bands(n):
    """The solver's fixed off-diagonals at size n: -2 above row 0, -1 inside,
    nothing below the Dirichlet row."""
    lower = np.full(n - 1, -1.0)
    lower[-1] = 0.0
    upper = np.full(n - 1, -1.0)
    upper[0] = -2.0
    return lower, upper


def dominant_system(rng, n):
    """A random diagonally dominant system of size n on the solver's stencil."""
    diag = 4.0 + np.abs(rng.standard_normal(n))
    return diag, rng.standard_normal(n)


def thomas_numpy_scalars(lower, diag, upper, rhs):
    """Reference Thomas sweep over numpy float64 scalars, in the kernel's operation order."""
    n = diag.size
    gamma = np.empty(n - 1)
    x = np.empty(n)
    gamma[0] = upper[0] / diag[0]
    x[0] = rhs[0] / diag[0]
    for k in range(1, n):
        piv = diag[k] - lower[k - 1] * gamma[k - 1]
        if k < n - 1:
            gamma[k] = upper[k] / piv
        x[k] = (rhs[k] - lower[k - 1] * x[k - 1]) / piv
    for k in range(n - 2, -1, -1):
        x[k] -= gamma[k] * x[k + 1]
    return x


def stencil_reference(diag, rhs):
    lower, upper = stencil_bands(diag.size)
    return thomas_numpy_scalars(lower, diag, upper, rhs)


def assert_bitwise_equal(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


class TestTridiagonal:
    def test_identity(self):
        # The stencil's trivial system: diagonal 2 (1 on the Dirichlet row)
        # and a zero right-hand side make every pivot 1, so the solution is
        # the Dirichlet value everywhere, with no round-off.
        diag = np.append(np.full(5, 2.0), 1.0)
        rhs = np.append(np.zeros(5), 3.25)
        np.testing.assert_array_equal(tridiagonal_solve(diag, rhs), np.full(6, 3.25))

    def test_hand_solution(self):
        # [4 -2 0; -1 4 -1; 0 0 1] x = [0, 4, 3]  ->  x = [1, 2, 3]
        x = tridiagonal_solve(np.array([4.0, 4.0, 1.0]), np.array([0.0, 4.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], rtol=1e-12)

    def test_random_diagonally_dominant_residual(self):
        diag, rhs = dominant_system(np.random.default_rng(3), 100)
        x = tridiagonal_solve(diag, rhs)
        lower, upper = stencil_bands(diag.size)
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        res = np.max(np.abs(A @ x - rhs))
        assert res <= 1e-10 * np.max(np.abs(rhs))

    def test_vanishing_pivot_rejected(self):
        with pytest.raises(SingularJacobian):
            tridiagonal_solve(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_pivot_vanishing_mid_sweep_names_row(self):
        # the first pivot is 2, so gamma_0 = -1 and the second 1 - 1 = 0
        with pytest.raises(SingularJacobian, match="at row 1"):
            tridiagonal_solve(np.array([2.0, 1.0, 1.0]), np.ones(3))

    def test_vanishing_dirichlet_pivot_names_row(self):
        with pytest.raises(SingularJacobian, match="at row 2"):
            tridiagonal_solve(np.array([2.0, 2.0, 0.0]), np.ones(3))

    def test_single_row(self):
        x = tridiagonal_solve(np.array([4.0]), np.array([2.0]))
        np.testing.assert_array_equal(x, [0.5])
        with pytest.raises(SingularJacobian, match="at row 0"):
            tridiagonal_solve(np.array([0.0]), np.array([2.0]))

    @pytest.mark.parametrize("n", [2, 201, 2401])
    def test_bitwise_equal_to_numpy_scalar_sweep(self, n):
        diag, rhs = dominant_system(np.random.default_rng(n), n)
        assert_bitwise_equal(tridiagonal_solve(diag, rhs), stencil_reference(diag, rhs))

    @pytest.mark.parametrize("n", [2, 3, 201])
    def test_newton_rhs_negative_zero_on_dirichlet_row(self, n):
        # A Newton correction's last entry is -res[-1] = -0.0.  After a
        # negative forward value the sweep's -0.0 - 0.0 * y is +0.0, and
        # after a positive one it stays -0.0.
        for sign in (-1.0, 1.0):
            diag = np.append(np.full(n - 1, 2.5), 1.0)
            rhs = np.append(np.full(n - 1, sign * 0.75), -0.0)
            expected = stencil_reference(diag, rhs)
            assert np.signbit(expected[-1]) == (sign > 0)
            assert_bitwise_equal(tridiagonal_solve(diag, rhs), expected)

    def test_inconsistent_bands_rejected(self):
        with pytest.raises(ValueError):
            tridiagonal_solve(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            tridiagonal_solve(np.empty(0), np.empty(0))


def leading_run_system(rng, K, p, last=1.0):
    """A dominant system of size K whose rows 0..p-1 have diagonal exactly 2
    (a substrate no species there consumes), then rows that are not."""
    diag, rhs = dominant_system(rng, K)
    diag[:p] = 2.0
    if p < K - 1:
        diag[-1] = last
    return diag, rhs


def reference_solve(diag, rhs):
    if diag.size == 1:
        return rhs / diag
    with np.errstate(all="ignore"):
        return stencil_reference(diag, rhs)


def solve_without_warnings(diag, rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return tridiagonal_solve(diag, rhs)


def run_lengths(K, rng):
    return sorted({p for p in (0, 1, K - 2, K - 1, int(rng.integers(0, K)))
                   if 0 <= p <= K - 1})


class TestLeadingTwoRows:
    """Rows 0..p-1 with diagonal exactly 2 are swept as running sums; the
    result stays bitwise that of the full sweep."""

    @pytest.mark.parametrize("K", [1, 2, 3, 201, 2401])
    def test_bitwise_equal_to_sweep(self, K):
        rng = np.random.default_rng(K)
        for p in run_lengths(K, rng):
            for last in (1.0, 2.0):
                diag, rhs = leading_run_system(rng, K, p, last)
                assert_bitwise_equal(solve_without_warnings(diag, rhs),
                                     reference_solve(diag, rhs))

    @pytest.mark.parametrize("K", [2, 3, 201, 2401])
    def test_special_values_in_rhs(self, K):
        rng = np.random.default_rng(K + 1)
        specials = (0.0, -0.0, math.inf, -math.inf, math.nan)
        for p in run_lengths(K, rng):
            for value in specials:
                for at in {0, max(p - 1, 0), p, K - 1}:
                    diag, rhs = leading_run_system(rng, K, p)
                    rhs[at] = value
                    assert_bitwise_equal(solve_without_warnings(diag, rhs),
                                         reference_solve(diag, rhs))
            diag, _ = leading_run_system(rng, K, p)
            for zeros in (np.zeros(K), -np.zeros(K)):
                assert_bitwise_equal(solve_without_warnings(diag, zeros),
                                     reference_solve(diag, zeros))

    @pytest.mark.parametrize("K", [2, 3, 201, 2401])
    def test_zero_pivot_after_run_names_row(self, K):
        for p in sorted({1, K // 2, K - 2, K - 1} - {0}):
            # the pivot after the run is 1 - 1 = 0, or 0 - 0 * gamma on the
            # Dirichlet row
            diag, rhs = leading_run_system(np.random.default_rng(p), K, p)
            diag[p] = 1.0 if p < K - 1 else 0.0
            with pytest.raises(SingularJacobian, match=f"at row {p}$"):
                tridiagonal_solve(diag, rhs)


class TestPivotGuard:
    """A pivot of magnitude below 1e-30 raises, naming its row; NaN, +-inf
    and a pivot at the floor itself pass through."""

    @staticmethod
    def system(p, K=6):
        # rows 0..p-1 have diagonal exactly 2 (p = 0: a plain sweep), row p
        # has an infinite pivot, so gamma_p = -0.0 and the pivot of row p + 1
        # is exactly its diagonal entry
        diag = np.full(K, 4.0)
        diag[:p] = 2.0
        diag[p] = math.inf
        diag[-1] = 1.0
        return diag, np.linspace(1.0, 2.0, K)

    @pytest.mark.parametrize("p", [0, 3])
    @pytest.mark.parametrize("pivot", [0.0, -0.0, 1e-31, -1e-31])
    def test_tiny_pivot_raises_with_row(self, p, pivot):
        diag, rhs = self.system(p)
        diag[p + 1] = pivot
        with pytest.raises(SingularJacobian,
                           match=rf"^pivot magnitude below 1e-30 at row {p + 1}$"):
            tridiagonal_solve(diag, rhs)

    @pytest.mark.parametrize("p", [0, 3])
    @pytest.mark.parametrize("pivot", [1e-30, -1e-30, math.inf, -math.inf, math.nan])
    def test_other_pivots_pass_through(self, p, pivot):
        diag, rhs = self.system(p)
        diag[p + 1] = pivot
        assert_bitwise_equal(tridiagonal_solve(diag, rhs), reference_solve(diag, rhs))

    @pytest.mark.parametrize("p", [0, 3])
    def test_nan_dirichlet_pivot_passes_through(self, p):
        diag, rhs = leading_run_system(np.random.default_rng(p), 6, p, last=math.nan)
        x = tridiagonal_solve(diag, rhs)
        assert np.isnan(x).all()
        assert_bitwise_equal(x, reference_solve(diag, rhs))


def clamp_inputs(K):
    """Length-K fields for :func:`_clamp_solution`, as ``(values, kept)``:
    ``kept`` says that every value is above zero."""
    rng = np.random.default_rng(K)
    positive = rng.uniform(0.5, 2.0, K)
    tiny = positive.copy()
    tiny[::3] = 5e-324
    zeros = np.zeros(K)
    signed_zeros = positive.copy()
    signed_zeros[::3] = -0.0
    signed_zeros[1::7] = 0.0
    with_nan = positive.copy()
    with_nan[::5] = math.nan
    negative_nan = positive.copy()
    negative_nan[K // 2] = math.copysign(math.nan, -1.0)
    negative = positive.copy()
    negative[::4] = -rng.uniform(0.0, 1.0, len(negative[::4]))
    negative[1::9] = -0.0
    nan_then_negative = negative.copy()
    nan_then_negative[0] = math.nan
    return [(positive, True), (tiny, True), (zeros, False), (signed_zeros, False),
            (with_nan, False), (negative_nan, False), (negative, False),
            (nan_then_negative, False)]


class TestClampSolution:
    """``_clamp_solution`` is bitwise ``np.maximum(values, 0.0)`` with the
    Dirichlet node set, and copies unless every value is above zero."""

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64).tolist()

    @pytest.mark.parametrize("K", [4, 201, 2401])
    @pytest.mark.parametrize("case", range(8))
    def test_bitwise_clamp_at_zero(self, K, case):
        values, kept = clamp_inputs(K)[case]
        before = self.bits(values)
        expected = np.maximum(values, 0.0)
        expected[-1] = 7.0
        given = values.copy()
        out = _clamp_solution(given, 7.0)
        assert self.bits(out) == self.bits(expected)
        assert (out is given) == kept
        if not kept:
            assert self.bits(given) == before


class TestHomogeneousSolve:
    """The planktonic solve against the full sweep over its linear system:
    the sink ``-kappa * v`` assembled at ``v = 0``, so the right-hand side is
    ``scale * (-kappa * 0) = -0.0`` off the Dirichlet row."""

    @staticmethod
    def swept(k, scale, dirichlet):
        zero = np.zeros(k.size)
        rhs = scale * (-k * zero)
        rhs[-1] = dirichlet
        diag = 2.0 - scale * (-k)
        diag[-1] = 1.0
        return stencil_reference(diag, rhs)

    @pytest.mark.parametrize("n", [2, 9, 201, 2401])
    def test_bitwise_equal_to_sweep(self, n):
        rng = np.random.default_rng(n)
        for dirichlet in (0.0, -0.0, 1e-300, 3.7, 100.0):
            for top in (0.0, 1e-3, 1.0, 1e3, 1e7):
                k = top * rng.random(n)
                k[rng.random(n) < 0.3] = 0.0  # rows without colonization
                scale = rng.uniform(0.2, 1.0)
                x = _homogeneous_solve(scale * k, dirichlet)
                assert_bitwise_equal(x, self.swept(k, scale, dirichlet))

    def test_strong_sink_underflows_to_zero(self):
        k = np.full(201, 1e7)
        x = _homogeneous_solve(k, 100.0)
        assert x[-1] == 100.0
        assert x[0] == 0.0 and not np.signbit(x[0])
        assert_bitwise_equal(x, self.swept(k, 1.0, 100.0))


D, L, BULK = 1e-5, 1e-3, 100.0


def scale_at(N):
    return (L / N) ** 2 / D


def quadratic_solve(N, q=100.0):
    """-D v'' = -q, v(L) = bulk, v'(0) = 0, by Newton from the bulk value."""
    return solve_problem(lambda v: np.full_like(v, -q), np.zeros_like,
                         np.full(N + 1, BULK), BULK, scale_at(N), 1e-9, 50)


def quadratic_exact(zeta, q=100.0):
    return BULK - (q * L * L / (2.0 * D)) * (1.0 - zeta ** 2)


def screening_solve(N, k=5.0):
    """-D v'' = -k v, v(L) = bulk, v'(0) = 0, by the planktonic solve."""
    return _homogeneous_solve(np.full(N + 1, scale_at(N) * k), BULK)


def screening_exact(zeta, k=5.0):
    """v = bulk cosh(mu z)/cosh(mu L)."""
    mu = math.sqrt(k / D)
    return BULK * np.cosh(mu * zeta * L) / math.cosh(mu * L)


class TestClosedForms:
    def test_quadratic_profile_exact(self):
        sol = quadratic_solve(200)
        zeta = np.linspace(0, 1, 201)
        assert sol.values[0] == pytest.approx(95.0, abs=1e-10)
        # central differences are exact on quadratics, so only round-off
        # remains, and the first Newton correction already lands there
        assert np.max(np.abs(sol.values - quadratic_exact(zeta))) < 1e-10
        assert sol.iterations == 1

    def test_screening_profile(self):
        zeta = np.linspace(0, 1, 401)
        err = np.max(np.abs(screening_solve(400) - screening_exact(zeta)))
        assert err <= 1e-6 * BULK

    def test_second_order_convergence(self):
        errs = []
        for N in (200, 400):
            zeta = np.linspace(0, 1, N + 1)
            errs.append(np.max(np.abs(screening_solve(N) - screening_exact(zeta))))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_dirichlet_exact_and_neumann_small(self):
        k, N = 5.0, 100
        v = screening_solve(N, k)
        assert v[-1] == BULK
        # ghost-node closure: residual row 0 within solver tolerance
        res = _residual(v, -k * v, BULK, scale_at(N))
        assert np.max(np.abs(res)) <= 1e-9 * BULK * 10

    def test_maximum_principle_pure_consumption(self):
        v = screening_solve(64, k=50.0)
        assert np.all(v >= 0.0)
        assert np.all(v <= BULK)

    def test_interface_flux_balances_consumption(self):
        # trapezoid of the sink equals the diffusive flux through z = L, to O(h)
        q, N = 100.0, 100
        v = quadratic_solve(N, q).values
        flux = D * (v[-1] - v[-2]) / (L / N)
        assert flux == pytest.approx(q * L, rel=2.0 / N)


CASE1 = build_preset("case1").cfg
CASE2 = build_preset("case2").cfg


def developed(cfg, L=1e-4):
    """``(t, L, f, S)`` of a film of thickness L at t = 0: the attachment
    inflow fractions throughout, substrates at their bulk values."""
    ones = np.ones(cfg.numerics.N + 1)
    return (0.0, L, np.outer(inflow_fractions(cfg.psi_star(0.0), cfg), ones),
            np.outer(cfg.s_star(0.0), ones))


class TestSubstrateSolves:
    def test_zero_reaction_gives_bulk_everywhere(self):
        dead = tuple(dataclasses.replace(sp, mu_max=0.0) for sp in CASE1.species)
        cfg = dataclasses.replace(CASE1, species=dead)
        sols = solve_substrates(*developed(cfg), cfg)
        for sol, bulk in zip(sols, (100.0, 100.0, 0.0)):
            np.testing.assert_allclose(sol.values, bulk, atol=1e-9)

    def test_interior_production_peak(self):
        # substrate 3 enters at zero on the interface and is produced inside
        sols = solve_substrates(*developed(CASE1), CASE1)
        s3 = sols[2].values
        assert s3[-1] == 0.0
        assert s3.max() > 0.0
        assert np.argmax(s3) < s3.size - 1

    def test_resolve_is_idempotent(self):
        args = developed(CASE1)
        first = solve_substrates(*args, CASE1)
        second = solve_substrates(*args[:3], np.stack([s.values for s in first]), CASE1)
        for a, b in zip(first, second):
            np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_positivity(self):
        sols = solve_substrates(*developed(CASE1, L=5e-4), CASE1)
        for sol in sols:
            assert np.all(sol.values >= 0.0)

    def test_empty_domain_rejected(self):
        t, _, f, S = developed(CASE1)
        with pytest.raises(ValueError, match="domain length"):
            solve_substrates(t, 0.0, f, S, CASE1)


def one_substrate_at(s_star, N=8):
    """One species without growth on one substrate of bulk value ``s_star``;
    ``(L, D)`` make ``h^2/D = 1``."""
    cfg = dataclasses.replace(
        CASE1, species=(dataclasses.replace(CASE1.species[0], mu_max=0.0),),
        substrates=(SubstrateParams(D=2.0 ** -20),),
        stoichiometry=Stoichiometry(substrate_of=(0,), production=((-1.0,),)),
        bulk=BulkTraces(psi_star=(ConstantTrace(0.0),), s_star=(ConstantTrace(s_star),)),
        numerics=dataclasses.replace(CASE1.numerics, N=N, newton_tol=1e-9))
    return cfg, N * 2.0 ** -10


class TestSubstrateStop:
    """The coupled check accepts a field by the rule its Newton stops on: the
    residual inf-norm at most ``newton_tol * max(1, |S*|)``."""

    @pytest.mark.parametrize("above", [False, True], ids=["at-bound", "one-ulp-above"])
    def test_check_uses_the_newton_stop(self, above, monkeypatch):
        cfg, L = one_substrate_at(125.0)
        bound = 1e-9 * 125.0  # 1.2500000000000002e-07; over 125 it exceeds 1e-9
        node0 = np.nextafter(bound, math.inf) if above else bound

        def rates(f, S, cfg):
            # with h^2/D = 1 on a flat field, node 0's residual is -rate
            out = np.zeros_like(S)
            out[0, 0] = -node0
            return out

        monkeypatch.setattr(kinetics, "substrate_rates", rates)
        f = np.ones((1, cfg.numerics.N + 1))
        S = np.full((1, cfg.numerics.N + 1), 125.0)
        assert _residual(S[0], rates(f, S, cfg)[0], 125.0, 1.0)[0] == node0
        if not above:
            # the Newton accepts the start at once, and so does the check
            assert [sol.iterations for sol in solve_substrates(0.0, L, f, S, cfg)] == [0]
            return
        with pytest.raises(NonConvergence) as info:
            solve_substrates(0.0, L, f, S, cfg)
        assert (info.value.iterations, info.value.residual) == (0, node0)


def clamping_case():
    """``(t, L, f, S)`` and a config whose second substrate field is clamped.

    Species 1 also consumes substrate 2, at a rate that substrate does not
    limit, and substrate 2 is absent from the bulk, so the Newton solution of
    field 2 dips below zero throughout.  The sink is weak enough that the
    clamped field still meets the coupled tolerance, and species 2, growing
    on substrate 2, produces substrate 3, so field 3 reads the clamped one.
    """
    N = 8
    st = dataclasses.replace(CASE1.stoichiometry, production=(
        (-1.0, 0.0, 0.0), (-1e-9, -1.0, 0.0), (0.0, 0.5, -1.0)))
    bulk = dataclasses.replace(CASE1.bulk, s_star=(
        CASE1.bulk.s_star[0], ConstantTrace(0.0), ConstantTrace(1.0)))
    cfg = dataclasses.replace(CASE1, stoichiometry=st, bulk=bulk,
                              numerics=dataclasses.replace(CASE1.numerics, N=N))
    t, L, f, S = developed(cfg)
    S[1], S[2] = 1.0, 0.0
    return (t, L, f, S), cfg


class TestRowEvaluations:
    """The Newton's last reaction call is at the field it accepts, so no row
    is evaluated again; the rates clamp a negative substrate value as the
    solution's clamp does, so a clamped field needs no evaluation either."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Substrate rows evaluated, and whether each clamp changed a value."""
        calls = {"rows": [], "clamped": []}
        row_rates, clamp = elliptic.kinetics.substrate_row_rates, elliptic._clamp_solution

        def counting_row_rates(*args):
            rate = row_rates(*args)

            def counted(j, s):
                calls["rows"].append(j)
                return rate(j, s)
            return counted

        def recording_clamp(values, dirichlet):
            calls["clamped"].append(bool((values < 0.0).any()))
            return clamp(values, dirichlet)

        monkeypatch.setattr(elliptic.kinetics, "substrate_row_rates", counting_row_rates)
        monkeypatch.setattr(elliptic, "_clamp_solution", recording_clamp)
        return calls

    def test_one_evaluation_per_newton_residual(self, calls):
        sols = solve_substrates(*developed(CASE1), CASE1)
        assert calls["clamped"] == [False] * CASE1.m
        iterations = [sol.iterations for sol in sols]
        assert sum(iterations) > 0
        # the starting residual and one per accepted step: no line search
        # halved, and the accepted field is not evaluated again
        assert len(calls["rows"]) == CASE1.m + sum(iterations)
        for j, its in enumerate(iterations):
            assert calls["rows"].count(j) == 1 + its

    def test_clamped_field_matches_reevaluation(self, calls, monkeypatch):
        args, cfg = clamping_case()
        sols = solve_substrates(*args, cfg)
        assert calls["clamped"] == [False, True, False]
        # Reference: every accepted field evaluated again before the next
        # field is solved.
        solve = elliptic.solve_problem

        def reevaluated(reaction, *a):
            sol = solve(reaction, *a)
            reaction(sol.values)
            return sol

        monkeypatch.setattr(elliptic, "solve_problem", reevaluated)
        reference = solve_substrates(*args, cfg)
        assert calls["clamped"] == [False, True, False] * 2
        for sol, ref in zip(sols, reference):
            assert sol.iterations == ref.iterations
            assert_bitwise_equal(sol.values, ref.values)


def planktonic(cfg, L=1e-4):
    t, L, _, S = developed(cfg, L)
    return solve_planktonic(t, L, S, cfg)


class TestPlanktonicSolves:
    def test_no_sink_gives_bulk(self):
        Psi = planktonic(CASE1)
        assert Psi.shape == (CASE1.n, CASE1.numerics.N + 1)
        np.testing.assert_allclose(Psi[0], 100.0, atol=1e-9)
        np.testing.assert_allclose(Psi[2], 0.0, atol=1e-12)

    def test_zero_bulk_gives_zero_field(self):
        # the solve itself never warns; the run warns once per species
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Psi = planktonic(CASE2)
        np.testing.assert_array_equal(Psi[2], np.zeros(CASE2.numerics.N + 1))

    def test_boundary_layer_warning_threshold(self):
        # need = L / (0.5 sqrt(D Y / k_col)); at L = 1e-4 that is ~224 > N = 200
        sp = CASE2.species[0]
        assert resolution_limit(1e-4, sp) == pytest.approx(
            1e-4 / (0.5 * math.sqrt(1e-5 * 2e-7 / 2.5)), rel=1e-12)
        with pytest.warns(BoundaryLayerResolutionWarning) as record:
            warn_under_resolved(1e-4, CASE2)
        assert [str(w.message).split(":")[0] for w in record] \
            == ["species 1", "species 2", "species 3"]
        assert "needs N >= 224 at L = 1.000e-04 m (have N = 200)" \
            in str(record[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warn_under_resolved(0.99 * 200 / 224 * 1e-4, CASE2)

    def test_screened_profile_decays_monotonically(self):
        v = planktonic(CASE2, L=1e-4)[0]
        assert v[-1] == 100.0
        assert np.all(np.diff(v) >= -1e-12)
        # the continuum attenuation 1/cosh(L sqrt(k/D)) is astronomically
        # small here; the discrete profile is at least strongly screened
        k = (2.5 / 2e-7) * (100.0 / 101.0)
        assert 1.0 / math.cosh(1e-4 * math.sqrt(k / 1e-5)) < 1e-40
        assert v[0] < 1e-30

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="domain length"):
            planktonic(CASE1, L=0.0)

    @pytest.mark.parametrize("bulk", [0.0, -0.0])
    def test_zero_bulk_colonizer_equals_sweep(self, bulk):
        # species 1 colonizes (k_col > 0), so only its zero bulk value lets
        # the solve skip the sweep
        assert CASE2.species[0].k_col > 0
        cfg = dataclasses.replace(CASE2, bulk=dataclasses.replace(
            CASE2.bulk, psi_star=(ConstantTrace(bulk),) + CASE2.bulk.psi_star[1:]))
        t, L, _, S = developed(cfg)
        kappa = planktonic_sink_coefficients(S, cfg)[0]
        assert kappa.min() > 0.0
        N = cfg.numerics.N
        swept = TestHomogeneousSolve.swept(kappa, (L / N) ** 2 / cfg.species[0].D_psi,
                                           bulk)
        assert_bitwise_equal(solve_planktonic(t, L, S, cfg)[0],
                             _clamp_solution(swept, bulk))

    def test_zero_bulk_species_skip_the_sweep(self, monkeypatch):
        # case2's third species is absent from the bulk until t1 = 0.2 d, so
        # up to 0.05 d only the first two are swept
        assert CASE2.psi_star(0.05)[2] == 0.0
        calls = {"solve_planktonic": 0, "_homogeneous_solve": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(elliptic, "_homogeneous_solve")
        counted(stepper, "solve_planktonic")
        cfg = dataclasses.replace(CASE2, horizon=0.05, snapshot_times=(0.0, 0.05))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
            stepper.run(cfg)
        assert calls["solve_planktonic"] > 0
        assert calls["_homogeneous_solve"] == 2 * calls["solve_planktonic"]



# The dissolved-field solves as they stood with a closure factory, an
# ``alpha == 1.0`` fork in the Newton update, one coupled check over both
# axes and a clamp pass over every planktonic field, kept as a bitwise
# reference.

def frozen_residual(v, rate, dirichlet, scale):
    """The scaled residual along the first axis; fields may run along a
    second axis, with one ``dirichlet`` and ``scale`` each."""
    r = rate * -scale
    mid = 2.0 * v[1:-1]
    mid -= v[:-2]
    mid -= v[2:]
    r[1:-1] += mid
    r[0] += 2.0 * v[0] - 2.0 * v[1]
    r[-1] = v[-1] - dirichlet
    return r


def frozen_solve_problem(reaction, jacobian, initial, dirichlet, scale, tol, max_iter):
    tol_abs = tol * max(1.0, abs(dirichlet))
    v = np.array(initial, dtype=float)
    v[-1] = dirichlet
    res = frozen_residual(v, reaction(v), dirichlet, scale)
    res_norm = float(np.abs(res).max())
    for it in range(1, max_iter + 1):
        if res_norm <= tol_abs:
            return elliptic.EllipticSolution(_clamp_solution(v, dirichlet), it - 1)
        diag = 2.0 - scale * jacobian(v)
        diag[-1] = 1.0
        delta = tridiagonal_solve(diag, -res)
        alpha = 1.0
        for _ in range(30):
            v_try = v + delta if alpha == 1.0 else v + alpha * delta
            res_try = frozen_residual(v_try, reaction(v_try), dirichlet, scale)
            norm_try = float(np.abs(res_try).max())
            if norm_try <= (1.0 - 1e-4 * alpha) * res_norm:
                v, res, res_norm = v_try, res_try, norm_try
                break
            alpha *= 0.5
        else:
            raise NonConvergence("elliptic line search stalled",
                                 iterations=it, residual=res_norm)
    if res_norm <= tol_abs:
        return elliptic.EllipticSolution(_clamp_solution(v, dirichlet), max_iter)
    raise NonConvergence("elliptic Newton exceeded max iterations",
                         iterations=max_iter, residual=res_norm)


def frozen_solve_substrates(t, L, f, S, cfg):
    """The Gauss-Seidel sweep; returns the solutions and the sweeps made."""
    nm = cfg.numerics
    S_work = np.maximum(np.asarray(S, dtype=float), 0.0)
    h = L / (S_work.shape[1] - 1)
    scales = [h * h / sb.D for sb in cfg.substrates]
    dirichlet = cfg.s_star(t)
    iters = [0] * cfg.m
    worst = math.inf
    row_rate = kinetics.substrate_row_rates(f, S_work, cfg)

    def closures(j):
        def reaction(v):
            return row_rate(j, v)

        def jacobian(v):
            return kinetics.substrate_rate_jacobian_diag(f, v, j, cfg)

        return reaction, jacobian

    for sweep in range(1, nm.newton_max_iter + 1):
        for j in range(cfg.m):
            sol = frozen_solve_problem(*closures(j), S_work[j], float(dirichlet[j]),
                                       scales[j], nm.newton_tol, nm.newton_max_iter)
            S_work[j] = sol.values
            iters[j] += sol.iterations
        rates = kinetics.substrate_rates(f, S_work, cfg)
        norms = np.abs(frozen_residual(S_work.T, rates.T, dirichlet,
                                       np.array(scales))).max(axis=0)
        worst = float((norms / np.maximum(1.0, np.abs(dirichlet))).max())
        if worst <= nm.newton_tol:
            return [elliptic.EllipticSolution(S_work[j], iters[j])
                    for j in range(cfg.m)], sweep
    raise NonConvergence("coupled substrate sweeps did not converge",
                         iterations=sum(iters), residual=worst)


def frozen_solve_planktonic(t, L, S, cfg):
    N = S.shape[1] - 1
    h = L / N
    kappa = kinetics.planktonic_sink_coefficients(S, cfg)
    psi_bulk = cfg.psi_star(t)
    Psi = np.empty((cfg.n, N + 1))
    for i, sp in enumerate(cfg.species):
        dirichlet = float(psi_bulk[i])
        if sp.k_col == 0 or dirichlet == 0.0:
            v = np.full(N + 1, dirichlet + 0.0)
        else:
            v = _homogeneous_solve(h * h / sp.D_psi * kappa[i], dirichlet)
        Psi[i] = _clamp_solution(v, dirichlet)
    return Psi


# Substrate 1 feeds species 1 and 3 and is produced by species 2; substrate 2
# feeds species 2 and is produced by species 1, so neither field can be
# solved before the other and the sweep count depends on the start.
CYCLIC = dataclasses.replace(CASE1, stoichiometry=dataclasses.replace(
    CASE1.stoichiometry, substrate_of=(0, 1, 0),
    production=((-1.0, 0.9, -1.0), (0.9, -1.0, 0.0), (1.0, 0.0, 0.0))))


@pytest.fixture(scope="module")
def states():
    """``{name: (cfg, snapshot)}``: each preset, and the cyclic network, run
    to 0.5 d."""
    out = {}
    for name, cfg in (("case1", CASE1), ("case2", CASE2),
                      ("case3", build_preset("case3").cfg), ("cyclic", CYCLIC)):
        cfg = dataclasses.replace(cfg, horizon=0.5, snapshot_times=(0.5,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
            out[name] = cfg, stepper.run(cfg).snapshots[-1]
    return out


def newton_starts(cfg, snap):
    """The state's own solution, the bulk values and half the solution."""
    bulk = np.outer(cfg.s_star(snap.t), np.ones(snap.N + 1))
    return {"own": snap.S, "bulk": bulk, "half": 0.5 * snap.S}


def colonizer_bulk(bulk):
    """case2 with the bulk value of species 1, a colonizer, set to ``bulk``."""
    return dataclasses.replace(CASE2, bulk=dataclasses.replace(
        CASE2.bulk, psi_star=(ConstantTrace(bulk),) + CASE2.bulk.psi_star[1:]))


class TestFrozenReference:
    """The solves agree bit for bit, zero signs and Newton iterations
    included, with the frozen reference above."""

    @pytest.mark.parametrize("name", ["case1", "case2", "case3", "cyclic"])
    def test_substrates(self, states, name, monkeypatch):
        cfg, snap = states[name]
        rates, sweeps = kinetics.substrate_rates, {}
        for start, S in newton_starts(cfg, snap).items():
            calls = []  # the coupled check evaluates every row once a sweep
            with monkeypatch.context() as m:
                m.setattr(kinetics, "substrate_rates",
                          lambda *args: calls.append(args) or rates(*args))
                sols = solve_substrates(snap.t, snap.L, snap.f, S, cfg)
            ref, sweeps[start] = frozen_solve_substrates(snap.t, snap.L, snap.f, S, cfg)
            assert len(calls) == sweeps[start], start
            for sol, expected in zip(sols, ref):
                assert sol.iterations == expected.iterations, start
                assert_bitwise_equal(sol.values, expected.values)
        if name == "cyclic":
            # from its own solution one sweep suffices; the others iterate
            assert sweeps == {"own": 1, "bulk": 2, "half": 3}

    @pytest.mark.parametrize("name", ["case1", "case2", "case3", "cyclic"])
    def test_planktonic(self, states, name):
        cfg, snap = states[name]
        assert_bitwise_equal(solve_planktonic(snap.t, snap.L, snap.S, cfg),
                             frozen_solve_planktonic(snap.t, snap.L, snap.S, cfg))

    @pytest.mark.parametrize("bulk", [-0.0, 0.0, 1e-300])
    def test_planktonic_colonizer_bulk(self, bulk):
        cfg = colonizer_bulk(bulk)
        t, L, _, S = developed(cfg)
        Psi = solve_planktonic(t, L, S, cfg)
        assert_bitwise_equal(Psi, frozen_solve_planktonic(t, L, S, cfg))
        assert math.copysign(1.0, Psi[0, -1]) == math.copysign(1.0, bulk)


class TestPlanktonicNonNegative:
    """The planktonic fields are >= +0.0 by construction: no clamp runs."""

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_no_clamp_on_developed_states(self, states, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("the planktonic solve clamped")

        monkeypatch.setattr(elliptic, "_clamp_solution", refuse)
        cfg, snap = states[name]
        Psi = solve_planktonic(snap.t, snap.L, snap.S, cfg)
        assert np.all(Psi >= 0.0) and not np.signbit(Psi).any()
        assert_bitwise_equal(Psi[:, -1], cfg.psi_star(snap.t))

def test_import_loads_neither_scipy_nor_numba():
    # Importing scipy.linalg more than doubles the package's import time and
    # adds over 20 MB of resident memory; numba cannot be installed offline.
    src = str(Path(biofilm1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, biofilm1d, biofilm1d.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'numba'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
