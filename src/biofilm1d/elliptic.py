"""Quasi-static two-point boundary-value solves on the biofilm depth.

Each dissolved field obeys ``-D v'' = r(v)`` on [0, L] with a no-flux
condition at the substratum (second-order ghost node) and a Dirichlet value
at the moving interface.  The discretization is central differences on the
uniform normalized grid; rows are scaled by ``h^2/D`` so residuals carry
concentration units and the tridiagonal systems stay well conditioned.

Substrate reactions are Monod-nonlinear, solved by damped Newton with an
analytic diagonal Jacobian; cross-substrate coupling is relaxed by
Gauss-Seidel sweeps until the coupled residual meets tolerance (the built-in
network is triangular, so one sweep already lands on the coupled solution).
Planktonic fields are linear in themselves at frozen substrates and need a
single tridiagonal solve each.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kinetics
from .errors import BoundaryLayerResolutionWarning, NonConvergence, SingularJacobian

logger = logging.getLogger(__name__)

_PIVOT_FLOOR = 1e-30


def tridiagonal_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas elimination for a tridiagonal system.

    ``diag`` has length K, ``lower``/``upper`` length K-1.  Raises
    :class:`SingularJacobian` when an elimination pivot falls below 1e-30.
    """
    lower = np.ascontiguousarray(lower, dtype=float)
    diag = np.ascontiguousarray(diag, dtype=float)
    upper = np.ascontiguousarray(upper, dtype=float)
    rhs = np.ascontiguousarray(rhs, dtype=float)
    if lower.size != diag.size - 1 or upper.size != diag.size - 1 or rhs.size != diag.size:
        raise ValueError("tridiagonal band lengths are inconsistent")
    # The sweeps run on Python floats, which are several times cheaper to
    # index and combine than numpy scalars.  They do the same IEEE-754 double
    # operations in the same order, so the result is bitwise that of a sweep
    # over numpy scalars.  The zero padding (row 0 has no subdiagonal, row K-1
    # no superdiagonal) leaves every pivot and forward value exact; the last
    # gamma is never read.
    gamma, y = [], []
    gamma_append, y_append = gamma.append, y.append
    g = yk = 0.0
    for a, b, c, d in zip([0.0] + lower.tolist(), diag.tolist(),
                          upper.tolist() + [0.0], rhs.tolist()):
        piv = b - a * g
        if abs(piv) < _PIVOT_FLOOR:
            raise SingularJacobian(
                f"pivot magnitude below {_PIVOT_FLOOR:g} at row {len(y)}")
        g = c / piv
        yk = (d - a * yk) / piv
        gamma_append(g)
        y_append(yk)
    x = [yk]
    xk = yk
    for g, yk in zip(gamma[-2::-1], y[-2::-1]):
        xk = yk - g * xk
        x.append(xk)
    x.reverse()
    return np.array(x)


@dataclass(frozen=True)
class EllipticProblem:
    """One field's boundary-value problem on [0, L].

    ``reaction(values)`` returns the nodal source (g/m^3/day) and
    ``reaction_jacobian(values)`` its derivative with respect to the local
    unknown; companion fields are frozen inside the closures.
    """

    D: float
    L: float
    dirichlet_value: float
    reaction: Callable[[np.ndarray], np.ndarray]
    reaction_jacobian: Callable[[np.ndarray], np.ndarray]
    linear_in_unknown: bool = False


@dataclass(frozen=True, eq=False)
class EllipticSolution:
    values: np.ndarray
    residual_norm: float
    iterations: int


def _nodal(a, v: np.ndarray) -> np.ndarray:
    """``a`` as a float array of ``v``'s shape (a scalar is broadcast)."""
    a = np.asarray(a, dtype=float)
    return a if a.shape == v.shape else np.broadcast_to(a, v.shape)


def _residual(v: np.ndarray, rate, dirichlet: float, scale: float) -> np.ndarray:
    """Scaled residual; rows carry g/m^3.  ``scale = h^2 / D``."""
    rate = _nodal(rate, v)
    r = np.empty_like(v)
    r[0] = 2.0 * v[0] - 2.0 * v[1] - scale * rate[0]
    r[1:-1] = -v[:-2] + 2.0 * v[1:-1] - v[2:] - scale * rate[1:-1]
    r[-1] = v[-1] - dirichlet
    return r


@functools.cache
def _off_diagonals(K: int):
    """Jacobian sub- and superdiagonal; unlike the diagonal they do not depend
    on v, so they are built once per K and shared read-only."""
    lower = np.full(K - 1, -1.0)
    lower[-1] = 0.0
    upper = np.full(K - 1, -1.0)
    upper[0] = -2.0
    lower.flags.writeable = False
    upper.flags.writeable = False
    return lower, upper


def _diagonal(problem: EllipticProblem, v: np.ndarray, scale: float) -> np.ndarray:
    diag = 2.0 - scale * _nodal(problem.reaction_jacobian(v), v)
    diag[-1] = 1.0
    return diag


def _clamp_solution(values: np.ndarray, dirichlet: float) -> np.ndarray:
    floor = -1e-12 * max(1.0, abs(dirichlet))
    low = float(values.min())
    if low < floor:
        logger.warning("elliptic solution undershoots zero by %.3e; clamping", -low)
    out = np.maximum(values, 0.0)
    out[-1] = dirichlet
    return out


def solve_problem(problem: EllipticProblem, N: int, tol: float = 1e-9,
                  max_iter: int = 50, initial: Optional[np.ndarray] = None) -> EllipticSolution:
    """Solve one boundary-value problem on N+1 uniform nodes.

    ``tol`` is relative: convergence at residual inf-norm below
    ``tol * max(1, |dirichlet|)``.
    """
    if problem.L <= 0:
        raise ValueError("domain length must be positive")
    h = problem.L / N
    scale = h * h / problem.D
    tol_abs = tol * max(1.0, abs(problem.dirichlet_value))
    lower, upper = _off_diagonals(N + 1)

    def residual(v):
        return _residual(v, problem.reaction(v), problem.dirichlet_value, scale)

    if problem.linear_in_unknown:
        zero = np.zeros(N + 1)
        rhs = scale * _nodal(problem.reaction(zero), zero)
        rhs[-1] = problem.dirichlet_value
        v = tridiagonal_solve(lower, _diagonal(problem, zero, scale), upper, rhs)
        res = float(np.max(np.abs(residual(v))))
        return EllipticSolution(_clamp_solution(v, problem.dirichlet_value), res, 1)

    v = np.full(N + 1, float(problem.dirichlet_value)) if initial is None \
        else np.array(initial, dtype=float)
    v[-1] = problem.dirichlet_value
    res = residual(v)
    res_norm = float(np.max(np.abs(res)))
    for it in range(1, max_iter + 1):
        if res_norm <= tol_abs:
            return EllipticSolution(_clamp_solution(v, problem.dirichlet_value),
                                    res_norm, it - 1)
        delta = tridiagonal_solve(lower, _diagonal(problem, v, scale), upper, -res)
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
        return EllipticSolution(_clamp_solution(v, problem.dirichlet_value),
                                res_norm, max_iter)
    raise NonConvergence("elliptic Newton exceeded max iterations",
                         iterations=max_iter, residual=res_norm)


def solve_substrates(state, cfg) -> list[EllipticSolution]:
    """Solve all substrate fields at frozen volume fractions.

    Substrates are swept in order with the latest companion fields until the
    fully coupled residual of every field meets tolerance.
    """
    nm = cfg.numerics
    N = state.N
    h = state.L / N
    f = state.f
    dirichlet = cfg.s_star(state.t)
    S_work = np.maximum(np.asarray(state.S, dtype=float).copy(), 0.0)
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
            return kinetics.substrate_rate_jacobian_diag(f, full, cfg)[j]

        return EllipticProblem(D=cfg.substrates[j].D, L=state.L,
                               dirichlet_value=float(dirichlet[j]),
                               reaction=reaction, reaction_jacobian=jacobian)

    for _sweep in range(nm.newton_max_iter):
        for j in range(cfg.m):
            sol = solve_problem(make_problem(j, S_work), N, tol=nm.newton_tol,
                                max_iter=nm.newton_max_iter, initial=S_work[j])
            S_work[j] = sol.values
            iters[j] += sol.iterations
        # Coupled convergence check with every field at its latest value.
        rates = kinetics.substrate_rates(f, S_work, cfg)
        residuals = []
        worst = 0.0
        for j in range(cfg.m):
            r = _residual(S_work[j], rates[j], dirichlet[j], h * h / cfg.substrates[j].D)
            norm = float(np.max(np.abs(r)))
            residuals.append(norm)
            worst = max(worst, norm / max(1.0, abs(dirichlet[j])))
        if worst <= nm.newton_tol:
            return [EllipticSolution(S_work[j], residuals[j], iters[j])
                    for j in range(cfg.m)]
    raise NonConvergence("coupled substrate sweeps did not converge",
                         iterations=sum(iters), residual=worst)


def resolution_limit(L, species) -> float:
    """Grid intervals needed to resolve the planktonic reaction layer."""
    if species.k_col <= 0:
        return 0.0
    return L / (0.5 * math.sqrt(species.D_psi * species.Y_psi / species.k_col))


def solve_planktonic(state, cfg) -> list[EllipticSolution]:
    """Solve all planktonic fields at frozen substrates (one linear solve each)."""
    nm = cfg.numerics
    N = state.N
    kappa = kinetics.planktonic_sink_coefficients(state.S, cfg)
    psi_bulk = cfg.psi_star(state.t)
    out = []
    for i, sp in enumerate(cfg.species):
        need = resolution_limit(state.L, sp)
        if need > N:
            warnings.warn(
                f"species {i + 1}: planktonic boundary layer needs N >= "
                f"{math.ceil(need)} at L = {state.L:.3e} m (have N = {N}); "
                "profile is under-resolved", BoundaryLayerResolutionWarning,
                stacklevel=2)
        k_row = kappa[i]
        problem = EllipticProblem(
            D=sp.D_psi, L=state.L, dirichlet_value=float(psi_bulk[i]),
            reaction=lambda v, k_row=k_row: -k_row * v,
            reaction_jacobian=lambda v, k_row=k_row: -k_row,
            linear_in_unknown=True)
        out.append(solve_problem(problem, N, tol=nm.newton_tol,
                                 max_iter=nm.newton_max_iter))
    return out
