"""Quasi-static two-point boundary-value solves on the biofilm depth.

Each dissolved field obeys ``-D v'' = r(v)`` on [0, L] with a no-flux
condition at the substratum (second-order ghost node) and a Dirichlet value
at the moving interface.  The discretization is central differences on the
uniform normalized grid; rows are scaled by ``h^2/D`` so residuals carry
concentration units and the systems stay well conditioned.  Every system
therefore has one stencil: the ghost-node row 0 with superdiagonal -2,
interior rows with -1 on both off-diagonals, and the Dirichlet row K-1 with
no subdiagonal.  Only the diagonal and the right-hand side vary, and there
are two solves for it:

* :func:`tridiagonal_solve`, a Thomas sweep with the off-diagonals fixed,
  for the Newton corrections of :func:`solve_problem`;
* a homogeneous solve for the planktonic fields, whose right-hand side is
  zero except on the Dirichlet row: the pivots, then one cumulative product.

Both sweeps run compiled from ``_sweeps.c`` where a C compiler has built it
(:func:`sweep_backend`), else as Python loops; the bits are the same.

The fields are constraints re-solved from the current sessile fractions at
every instant, so both solves take arrays: ``solve_substrates(t, L, f, S,
cfg)``, where S is the Newton starting guess (the stepper extrapolates it in
time), returns one :class:`EllipticSolution` per field (perfbench's tracer
reads its Newton ``iterations``), and ``solve_planktonic(t, L, S, cfg)``
returns the (n, N+1) array of planktonic fields.  Substrate reactions are
Monod-nonlinear, solved by damped Newton (:func:`solve_problem`, one call
per field) with an analytic diagonal Jacobian.  The Newton for field j
evaluates row j only: the growth load of the species on substrate j and the
species-order sum of row j (:func:`kinetics.substrate_row_rates`), and the
Jacobian of that row.  Cross-substrate coupling is relaxed by Gauss-Seidel
sweeps until the coupled residual of every field meets the stop its Newton
meets, one rule (:func:`_stop_tol`) for both (the built-in network is
triangular, so one sweep already lands on the coupled solution).  Planktonic
fields are linear in themselves at frozen substrates, so each is one
homogeneous solve, and a species without colonization (``k_col = 0``) or with
a zero bulk value is its Dirichlet value everywhere.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _sweeps, kinetics
from .errors import BoundaryLayerResolutionWarning, NonConvergence, SingularJacobian

_PIVOT_FLOOR = 1e-30


def sweep_backend() -> str:
    """``"compiled"`` when the sweeps run the compiled ``_sweeps.c``, else
    ``"python"``.  The first call of a process decides, building the library
    if the cache lacks it; the outputs are the same bits either way."""
    return "python" if _sweeps.library() is None else "compiled"


def _pivot_error(row: int) -> SingularJacobian:
    return SingularJacobian(f"pivot magnitude below {_PIVOT_FLOOR:g} at row {row}")


def tridiagonal_solve(diag, rhs) -> np.ndarray:
    """Thomas elimination for the package's one stencil.

    Row 0 is the ghost-node row (superdiagonal -2), rows 1..K-2 have -1 on
    both off-diagonals and row K-1 is the Dirichlet row (no subdiagonal);
    ``diag`` and ``rhs`` have length K.  Raises :class:`SingularJacobian`
    when an elimination pivot falls below 1e-30.  The sweep is compiled
    where :func:`sweep_backend` says so, else :func:`_thomas_loop`; both
    make the same operations in the same order.
    """
    diag = np.ascontiguousarray(diag, dtype=float)
    rhs = np.ascontiguousarray(rhs, dtype=float)
    if diag.ndim != 1 or rhs.ndim != 1:
        raise ValueError("diagonal and right-hand side must be one-dimensional")
    if not len(diag) or len(rhs) != len(diag):
        raise ValueError("diagonal and right-hand side lengths differ")
    lib = _sweeps.library()
    if lib is None:
        return _thomas_loop(diag, rhs)
    x, gamma = np.empty(len(diag)), np.empty(len(diag))
    row = lib.thomas_sweep(len(diag), diag.ctypes.data, rhs.ctypes.data,
                           gamma.ctypes.data, x.ctypes.data, _PIVOT_FLOOR)
    if row >= 0:
        raise _pivot_error(row)
    return x


def _thomas_loop(diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The sweep of :func:`tridiagonal_solve` over Python floats."""
    # A leading run of rows 0..p-1 with diagonal exactly 2 (a substrate no
    # species there consumes) has pivots 2, 1, 1, ... and gamma = -1, so its
    # forward values are the running sum y_k = r_k + y_{k-1} from r_0/2 and
    # its back substitution the running sum x_k = y_k + x_{k+1}.  A cumulative
    # sum makes the same IEEE-754 additions, so only rows p..K-1 are swept
    # below.
    p = 0
    if diag[0] == 2.0:
        other = np.flatnonzero(diag[:-1] != 2.0)
        p = int(other[0]) if other.size else len(diag) - 1
    # The sweeps run on Python floats, which are several times cheaper to
    # index and combine than numpy scalars.  With the off-diagonals fixed,
    # ``b - (-1)*g`` is ``b + g`` and ``d - (-1)*y`` is ``d + y``, the same
    # IEEE-754 operations, so every value is bitwise that of the general
    # four-band sweep.  The last row keeps its zero-subdiagonal products,
    # which decide the sign of a zero result.
    b = diag[p:].tolist()
    r = rhs[p:].tolist()
    # ``-floor < piv < floor`` is ``abs(piv) < floor`` for every float,
    # NaN (false), +-inf and +-0 included, without a call per row.
    floor = _PIVOT_FLOOR
    if p:
        out = np.empty(len(diag))
        run = out[:p]
        run[:] = rhs[:p]
        run[0] /= 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.accumulate(run, out=run)
        g, yk = -1.0, float(run[-1])
        gamma, y = [], []
    else:
        piv = b[0]
        if -floor < piv < floor:
            raise _pivot_error(0)
        g = -2.0 / piv
        yk = r[0] / piv
        if len(b) == 1:
            return np.array([yk])
        gamma, y = [g], [yk]
    gamma_append, y_append = gamma.append, y.append
    start = 0 if p else 1
    for bk, dk in zip(b[start:-1], r[start:-1]):
        piv = bk + g
        if -floor < piv < floor:
            raise _pivot_error(p + len(y))
        g = -1.0 / piv
        yk = (dk + yk) / piv
        gamma_append(g)
        y_append(yk)
    piv = b[-1] - 0.0 * g
    if -floor < piv < floor:
        raise _pivot_error(p + len(y))
    xk = (r[-1] - 0.0 * yk) / piv
    x = [xk]
    for g, yk in zip(reversed(gamma), reversed(y)):
        xk = yk - g * xk
        x.append(xk)
    x.reverse()
    if not p:
        return np.array(x, dtype=float)
    out[p:] = x
    back = out[p::-1]  # x_p, then y_{p-1} .. y_0
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.accumulate(back, out=back)
    return out


def _homogeneous_solve(sk: np.ndarray, dirichlet: float) -> np.ndarray:
    """:func:`tridiagonal_solve` of the stencil with diagonal ``2 + sk`` (last
    row 1), right-hand side ``-0.0`` and ``dirichlet >= 0`` on the last row.

    That is a planktonic field at ``sk = scale * kappa >= 0``.  Every pivot
    is at least 1 and every forward value a zero, so back substitution
    ``x_k = y_k - gamma_k x_{k+1}`` is the product ``(-gamma_k) x_{k+1}``:
    the sweep computes only the pivots and then one cumulative product,
    bitwise equal to the full sweep.  The last row turns a -0.0 Dirichlet
    value into +0.0, as the sweep does.  Compiled or :func:`_homogeneous_loop`,
    as for :func:`tridiagonal_solve`.
    """
    sk = np.ascontiguousarray(sk, dtype=float)
    if sk.ndim != 1 or len(sk) < 2:
        raise ValueError("sk must be one-dimensional with at least two rows")
    lib = _sweeps.library()
    if lib is None:
        return _homogeneous_loop(sk, dirichlet)
    x = np.empty(len(sk))
    lib.homogeneous_sweep(len(sk), sk.ctypes.data, dirichlet, x.ctypes.data)
    return x


def _homogeneous_loop(sk: np.ndarray, dirichlet: float) -> np.ndarray:
    """The sweep of :func:`_homogeneous_solve` over Python floats."""
    b = (2.0 + sk[:-1]).tolist()
    h = 2.0 / b[0]  # -gamma_0
    minus_gamma = [h] + [h := 1.0 / (bk - h) for bk in b[1:]]
    minus_gamma.append(dirichlet + 0.0)
    return np.cumprod(np.array(minus_gamma, dtype=float)[::-1])[::-1]


@dataclass(frozen=True, eq=False)
class EllipticSolution:
    values: np.ndarray
    iterations: int


def _residual(v: np.ndarray, rate: np.ndarray, dirichlet, scale) -> np.ndarray:
    """Scaled residual of one field; rows carry g/m^3 and ``scale = h^2 / D``.
    ``-(scale * rate)`` is added last, which is exactly subtracting
    ``scale * rate``."""
    r = rate * -scale
    mid = 2.0 * v[1:-1]
    mid -= v[:-2]
    mid -= v[2:]
    r[1:-1] += mid
    r[0] += 2.0 * v[0] - 2.0 * v[1]
    r[-1] = v[-1] - dirichlet
    return r


def _stop_tol(tol: float, dirichlet: float) -> float:
    """The substrate stop: the largest residual inf-norm a converged field has."""
    return tol * max(1.0, abs(dirichlet))


def solve_problem(reaction, jacobian, initial, dirichlet: float, scale: float,
                  tol: float, max_iter: int) -> EllipticSolution:
    """Damped Newton for one field on the nodes of ``initial``.

    ``reaction(v)`` is the nodal source (g/m^3/day) and ``jacobian(v)`` its
    derivative with respect to the local unknown; ``scale = h^2 / D``.
    ``tol`` is relative: convergence at residual inf-norm at most
    ``tol * max(1, |dirichlet|)`` (:func:`_stop_tol`).  The accepted field
    is returned as the Newton left it, its Dirichlet node reset.
    """
    tol_abs = _stop_tol(tol, dirichlet)
    v = np.array(initial, dtype=float)
    v[-1] = dirichlet
    res = _residual(v, reaction(v), dirichlet, scale)
    res_norm = float(np.abs(res).max())
    it = 0
    while not res_norm <= tol_abs:  # a NaN norm keeps iterating
        if it == max_iter:
            raise NonConvergence("elliptic Newton exceeded max iterations",
                                 iterations=max_iter, residual=res_norm)
        it += 1
        diag = 2.0 - scale * jacobian(v)
        diag[-1] = 1.0
        delta = tridiagonal_solve(diag, -res)
        alpha = 1.0
        for _ in range(30):
            v_try = v + alpha * delta
            res_try = _residual(v_try, reaction(v_try), dirichlet, scale)
            norm_try = float(np.abs(res_try).max())
            if norm_try <= (1.0 - 1e-4 * alpha) * res_norm:
                v, res, res_norm = v_try, res_try, norm_try
                break
            alpha *= 0.5
        else:
            raise NonConvergence("elliptic line search stalled",
                                 iterations=it, residual=res_norm)
    v[-1] = dirichlet
    return EllipticSolution(v, it)


def solve_substrates(t: float, L: float, f: np.ndarray, S: np.ndarray,
                     cfg) -> list[EllipticSolution]:
    """Solve all substrate fields at time t on [0, L] at frozen fractions f.

    ``S`` (m, N+1) is the Newton starting guess, and it must be a close one,
    as the stepper's extrapolation from its last two solves is: started from
    the bulk values on a depleted film (case1's inflow fractions at 0.5 d,
    N = 200, L = 2e-3 m) the Newton raises :class:`NonConvergence`.
    The start is projected onto S >= 0, because a Newton that meets its stop
    at the start returns it unchanged (an extrapolated start dips to about
    -1e-14 where a substrate vanishes); the projection acts on a guess, so
    the Monod factor stays the one clamp of a computed value.  Substrates
    are swept in order with the latest companion fields until the fully
    coupled residual of every field meets tolerance.
    """
    if L < 0:
        raise ValueError("domain length must not be negative")
    nm = cfg.numerics
    S_work = np.maximum(np.asarray(S, dtype=float), 0.0)
    h = L / (S_work.shape[1] - 1)
    scales = [h * h / sb.D for sb in cfg.substrates]
    dirichlet = cfg.s_star(t).tolist()
    iters = [0] * cfg.m
    norms = [math.inf]
    # The other rows stay at their latest values while field j is solved.
    # The Newton's last reaction call is at the field it accepts, so the
    # fields after it see that field's load without a further call.  The
    # accepted field differs from that call's only in the sign of a zero
    # at the Dirichlet node, whose rate no residual reads.
    row_rate = kinetics.substrate_row_rates(f, S_work, cfg)
    for _sweep in range(nm.newton_max_iter):
        for j in range(cfg.m):
            sol = solve_problem(
                functools.partial(row_rate, j),
                functools.partial(kinetics.substrate_rate_jacobian_diag, f, j=j, cfg=cfg),
                S_work[j], dirichlet[j], scales[j], nm.newton_tol, nm.newton_max_iter)
            S_work[j] = sol.values
            iters[j] += sol.iterations
        # Coupled check with every field at its latest value, by each
        # field's own Newton stop.
        rates = kinetics.substrate_rates(f, S_work, cfg)
        norms = [float(np.abs(_residual(s, r, d, scale)).max())
                 for s, r, d, scale in zip(S_work, rates, dirichlet, scales)]
        if all(norm <= _stop_tol(nm.newton_tol, d) for norm, d in zip(norms, dirichlet)):
            return [EllipticSolution(S_work[j], iters[j]) for j in range(cfg.m)]
    raise NonConvergence("coupled substrate sweeps did not converge",
                         iterations=sum(iters), residual=max(norms))


def resolution_limit(L, species) -> float:
    """Grid intervals needed to resolve the planktonic reaction layer."""
    if species.k_col <= 0:
        return 0.0
    return L / (0.5 * math.sqrt(species.D_psi * species.Y_psi / species.k_col))


def warn_under_resolved(L_max: float, cfg) -> None:
    """One :class:`BoundaryLayerResolutionWarning` per species whose planktonic
    layer the grid misses at ``L_max``, a run's largest and so worst L."""
    N = cfg.numerics.N
    for i, sp in enumerate(cfg.species):
        need = resolution_limit(L_max, sp)
        if need > N:
            warnings.warn(
                f"species {i + 1}: planktonic boundary layer needs N >= "
                f"{math.ceil(need)} at L = {L_max:.3e} m (have N = {N}); "
                "profile is under-resolved", BoundaryLayerResolutionWarning,
                stacklevel=2)


def solve_planktonic(t: float, L: float, S: np.ndarray, cfg) -> np.ndarray:
    """All planktonic fields (n, N+1) at time t on [0, L] at frozen
    substrates S (one homogeneous solve each)."""
    if L < 0:
        raise ValueError("domain length must not be negative")
    h = L / (S.shape[1] - 1)
    kappa = kinetics.planktonic_sink_coefficients(S, cfg)
    psi_bulk = cfg.psi_star(t)
    Psi = np.empty((cfg.n, S.shape[1]))
    for i, (sp, dirichlet) in enumerate(zip(cfg.species, psi_bulk.tolist())):
        if sp.k_col == 0 or dirichlet == 0.0:
            # kappa = 0: every pivot ratio is 1 and the product is constant;
            # a zero bulk value times the positive, finite pivot ratios is
            # +0.0 throughout.
            Psi[i] = dirichlet + 0.0
        else:
            Psi[i] = _homogeneous_solve(h * h / sp.D_psi * kappa[i], dirichlet)
    # Pivot ratios in (0, 1] and bulk values >= 0 (by validate_config) make
    # every field >= +0.0 without a clamp; the interface row takes the raw
    # bulk values, a -0.0 included.
    Psi[:, -1] = psi_bulk
    return Psi
