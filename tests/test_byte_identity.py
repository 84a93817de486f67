"""Byte-identity guard for the elliptic layer.

Short case1 and case2 runs are repeated with frozen copies of the earlier
general solver (the four-band Thomas kernel, ``solve_problem`` on its
``EllipticProblem`` wrapper with the planktonic linear branch, the substrate
sweep with a fresh scratch copy per closure call, and the per-species
Jacobian loop) patched in where the stepper and ``elliptic`` look them up.  Every snapshot field, the boundary
trace and the recorded profiles must agree bitwise, signs of zeros included.
"""

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from biofilm1d import elliptic, kinetics, stepper
from biofilm1d.elliptic import (EllipticSolution, _clamp_solution, _residual,
                                resolution_limit)
from biofilm1d.errors import (BoundaryLayerResolutionWarning, NonConvergence,
                              SingularJacobian)
from biofilm1d.presets import build_preset

# --- frozen copies of the general solver --------------------------------------


@dataclass(frozen=True)
class EllipticProblem:
    D: float
    L: float
    dirichlet_value: float
    reaction: Callable[[np.ndarray], np.ndarray]
    reaction_jacobian: Callable[[np.ndarray], np.ndarray]
    linear_in_unknown: bool = False


def _nodal(a, v):
    a = np.asarray(a, dtype=float)
    return a if a.shape == v.shape else np.broadcast_to(a, v.shape)


def _diagonal(problem, v, scale):
    diag = 2.0 - scale * _nodal(problem.reaction_jacobian(v), v)
    diag[-1] = 1.0
    return diag


def four_band_solve(lower, diag, upper, rhs):
    lower = np.ascontiguousarray(lower, dtype=float)
    diag = np.ascontiguousarray(diag, dtype=float)
    upper = np.ascontiguousarray(upper, dtype=float)
    rhs = np.ascontiguousarray(rhs, dtype=float)
    if lower.size != diag.size - 1 or upper.size != diag.size - 1 or rhs.size != diag.size:
        raise ValueError("tridiagonal band lengths are inconsistent")
    gamma, y = [], []
    g = yk = 0.0
    for a, b, c, d in zip([0.0] + lower.tolist(), diag.tolist(),
                          upper.tolist() + [0.0], rhs.tolist()):
        piv = b - a * g
        if abs(piv) < 1e-30:
            raise SingularJacobian(f"pivot magnitude below 1e-30 at row {len(y)}")
        g = c / piv
        yk = (d - a * yk) / piv
        gamma.append(g)
        y.append(yk)
    x = [yk]
    xk = yk
    for g, yk in zip(gamma[-2::-1], y[-2::-1]):
        xk = yk - g * xk
        x.append(xk)
    x.reverse()
    return np.array(x)


def off_diagonals(K):
    lower = np.full(K - 1, -1.0)
    lower[-1] = 0.0
    upper = np.full(K - 1, -1.0)
    upper[0] = -2.0
    return lower, upper


def general_solve_problem(problem, N, tol=1e-9, max_iter=50, initial=None):
    if problem.L <= 0:
        raise ValueError("domain length must be positive")
    h = problem.L / N
    scale = h * h / problem.D
    tol_abs = tol * max(1.0, abs(problem.dirichlet_value))
    lower, upper = off_diagonals(N + 1)

    def residual(v):
        return _residual(v, _nodal(problem.reaction(v), v), problem.dirichlet_value, scale)

    if problem.linear_in_unknown:
        zero = np.zeros(N + 1)
        rhs = scale * _nodal(problem.reaction(zero), zero)
        rhs[-1] = problem.dirichlet_value
        v = four_band_solve(lower, _diagonal(problem, zero, scale), upper, rhs)
        return EllipticSolution(_clamp_solution(v, problem.dirichlet_value), 1)

    v = np.full(N + 1, float(problem.dirichlet_value)) if initial is None \
        else np.array(initial, dtype=float)
    v[-1] = problem.dirichlet_value
    res = residual(v)
    res_norm = float(np.max(np.abs(res)))
    for it in range(1, max_iter + 1):
        if res_norm <= tol_abs:
            return EllipticSolution(_clamp_solution(v, problem.dirichlet_value), it - 1)
        delta = four_band_solve(lower, _diagonal(problem, v, scale), upper, -res)
        alpha = 1.0
        for _ in range(30):
            v_try = v + alpha * delta
            res_try = residual(v_try)
            norm_try = float(np.max(np.abs(res_try)))
            if norm_try <= (1.0 - 1e-4 * alpha) * res_norm:
                v, res, res_norm = v_try, res_try, norm_try
                break
            alpha *= 0.5
        else:
            raise NonConvergence("elliptic line search stalled",
                                 iterations=it, residual=res_norm)
    if res_norm <= tol_abs:
        return EllipticSolution(_clamp_solution(v, problem.dirichlet_value), max_iter)
    raise NonConvergence("elliptic Newton exceeded max iterations",
                         iterations=max_iter, residual=res_norm)


def species_loop_jacobian_diag(f, S, cfg):
    a = cfg.arrays
    f = kinetics._clamped(f, "fraction")
    S = np.asarray(S, dtype=float)
    trail = (1,) * (f.ndim - 1)
    mu = a["mu_max"].reshape((-1,) + trail)
    K = a["K"].reshape(mu.shape)
    s_sel = S[a["substrate_of"]]
    dload = mu * kinetics.dmonod(s_sel, K) * f * (a["rho"] / a["Y"]).reshape(mu.shape)
    out = np.zeros_like(S)
    for i, j in enumerate(a["substrate_of"]):
        out[j] += a["W"][j, i] * dload[i]
    return out


def general_solve_substrates(t, L, f, S, cfg):
    nm = cfg.numerics
    N = S.shape[1] - 1
    h = L / N
    dirichlet = cfg.s_star(t)
    S_work = np.maximum(np.asarray(S, dtype=float).copy(), 0.0)
    iters = [0] * cfg.m
    worst = math.inf

    def make_problem(j, frozen):
        def reaction(v):
            full = frozen.copy()
            full[j] = v
            return kinetics.substrate_rates(f, full, cfg)[j]

        def jacobian(v):
            full = frozen.copy()
            full[j] = v
            return species_loop_jacobian_diag(f, full, cfg)[j]

        return EllipticProblem(D=cfg.substrates[j].D, L=L,
                               dirichlet_value=float(dirichlet[j]),
                               reaction=reaction, reaction_jacobian=jacobian)

    for _sweep in range(nm.newton_max_iter):
        for j in range(cfg.m):
            sol = general_solve_problem(make_problem(j, S_work), N, tol=nm.newton_tol,
                                        max_iter=nm.newton_max_iter, initial=S_work[j])
            S_work[j] = sol.values
            iters[j] += sol.iterations
        rates = kinetics.substrate_rates(f, S_work, cfg)
        worst = 0.0
        for j in range(cfg.m):
            r = _residual(S_work[j], rates[j], dirichlet[j], h * h / cfg.substrates[j].D)
            norm = float(np.max(np.abs(r)))
            worst = max(worst, norm / max(1.0, abs(dirichlet[j])))
        if worst <= nm.newton_tol:
            return [EllipticSolution(S_work[j], iters[j]) for j in range(cfg.m)]
    raise NonConvergence("coupled substrate sweeps did not converge",
                         iterations=sum(iters), residual=worst)


def general_solve_planktonic(t, L, S, cfg):
    nm = cfg.numerics
    N = S.shape[1] - 1
    kappa = kinetics.planktonic_sink_coefficients(S, cfg)
    psi_bulk = cfg.psi_star(t)
    out = []
    for i, sp in enumerate(cfg.species):
        if resolution_limit(L, sp) > N:
            warnings.warn("under-resolved", BoundaryLayerResolutionWarning)
        k_row = kappa[i]
        problem = EllipticProblem(
            D=sp.D_psi, L=L, dirichlet_value=float(psi_bulk[i]),
            reaction=lambda v, k_row=k_row: -k_row * v,
            reaction_jacobian=lambda v, k_row=k_row: -k_row,
            linear_in_unknown=True)
        out.append(general_solve_problem(problem, N, tol=nm.newton_tol,
                                         max_iter=nm.newton_max_iter).values)
    return np.stack(out)


# --- the guard ----------------------------------------------------------------


def short_run(case, horizon):
    cfg = build_preset(case).cfg
    times = tuple(sorted({0.0, horizon / 2, horizon}
                         | {t for t in cfg.snapshot_times if t < horizon}))
    cfg = dataclasses.replace(cfg, horizon=horizon, snapshot_times=times)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
        return stepper.run(cfg, record_profiles=True)


def assert_bitwise_equal(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    np.testing.assert_array_equal(actual, expected, err_msg=what)
    if actual.dtype.kind == "f":
        np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected),
                                      err_msg=f"{what}: sign of zero")


def fields(obj):
    return [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]


@pytest.mark.parametrize("case, horizon", [("case2", 0.3), ("case1", 0.05)])
def test_runs_bitwise_equal_to_general_solver(monkeypatch, case, horizon):
    new = short_run(case, horizon)
    with monkeypatch.context() as m:
        m.setattr(elliptic, "tridiagonal_solve", four_band_solve)
        m.setattr(elliptic, "solve_problem", general_solve_problem)
        for module in (elliptic, stepper):
            m.setattr(module, "solve_substrates", general_solve_substrates)
            m.setattr(module, "solve_planktonic", general_solve_planktonic)
        old = short_run(case, horizon)

    assert len(new.snapshots) == len(old.snapshots) >= 2
    for a, b in zip(new.snapshots, old.snapshots):
        for name, value in fields(a.state):
            assert_bitwise_equal(value, getattr(b.state, name), f"snapshot {a.state.t} {name}")
        for name in ("sigma_a", "sigma_d", "u_L"):
            assert_bitwise_equal(getattr(a, name), getattr(b, name), f"snapshot {name}")
        assert a.regime == b.regime
    for name, value in fields(new.boundary):
        assert_bitwise_equal(value, getattr(old.boundary, name), f"boundary {name}")
    assert new.profiles is not None and old.profiles is not None
    for name, value in fields(new.profiles):
        if name.startswith("parcel_"):
            # one array per record, of the parcel count at that step
            assert len(value) == len(getattr(old.profiles, name))
            for k, (a, b) in enumerate(zip(value, getattr(old.profiles, name))):
                assert_bitwise_equal(a, b, f"profiles {name} record {k}")
        else:
            assert_bitwise_equal(value, getattr(old.profiles, name), f"profiles {name}")
