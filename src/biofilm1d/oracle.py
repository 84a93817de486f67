"""Short-horizon solver in characteristic coordinates, by fixed-point iteration.

The free-boundary system restricted to the attachment regime is equivalent
to a system of integral equations in the coordinates (t0, t), where t0 labels
the characteristic leaving the interface at time t0 and t >= t0 follows the
parcel.  Unknowns are the sessile concentrations x(t0, t), the dissolved
fields s(t0, t) and psi(t0, t) sampled along characteristics, the interface
position L(t0), the characteristic position c(t0, t) and its t0-derivative.
Successive substitution of the integral map contracts for short horizons;
this module iterates that map on a triangular grid (trapezoidal quadrature)
and estimates the horizon on which it contracts from integrand bounds and
Lipschitz constants sampled over a stated box.  Sampled maxima can understate
the suprema, so the horizon is estimated from sampled kernel bounds; it
becomes a bound once ROADMAP item 11 lands.

This solver shares only the kinetics with the time stepper, and imports no
stepper code, so it serves as an independent cross-check of the
finite-difference path.  It reads ``c(t0, t)`` and ``x(t0, t)`` from the
labelled parcels of a run's :class:`~biofilm1d.model.RunResult`, which are
interpolated in launch time and in time but never in space.

Interface law: the oracle solves ``L = Sigma + int u_L`` with
``Sigma = int sigma_a`` and launches each characteristic at
``c_t0 = sigma_a``, so it has attachment and no erosion; the detachment
flux ``delta L^2`` enters only the check that raises
:class:`DetachmentRegime`.  The time stepper moves the interface with
``u_L + sigma_a - delta L^2``, so the two solve different laws wherever
erosion is not negligible (ROADMAP item 3).

Memory: one Picard step holds the old and new iterates plus a few working
arrays, about ``9 * n * (G+1)**2 * 8`` bytes at its peak.

Known results are not computed, and the bits are those of computing them.
A species that does not colonize (``k_col = 0``) has planktonic rate -0.0,
so while ``c_t0 > 0`` its double integral is +0.0: the map gives it its
bulk value plus 0.0 without computing it, as
:func:`~biofilm1d.elliptic.solve_planktonic` does.  The attachment flux
and inflow fractions are evaluated once per distinct bulk state ``psi*`` on
the time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kinetics
from .errors import (ConfigError, DetachmentRegime, NoAttachment, NonConvergence,
                     OutOfDomain)
from .kinetics import attachment_flux, inflow_fractions
from .model import TIME_TOL, RunResult, attaching, validate_config


def _ctz(A, axis, delta):
    """Cumulative trapezoid along ``axis`` with step ``delta``, leading zero."""
    A = np.asarray(A, dtype=float)
    head = [slice(None)] * A.ndim
    tail = [slice(None)] * A.ndim
    head[axis] = slice(None, -1)
    tail[axis] = slice(1, None)
    head, tail = tuple(head), tuple(tail)
    # the trapezoids (A[tail] + A[head]) * (delta/2) are summed in place
    out = np.empty(A.shape)
    np.moveaxis(out, axis, 0)[0] = 0.0
    body = out[tail]
    np.add(A[tail], A[head], out=body)
    body *= 0.5 * delta
    np.cumsum(body, axis=axis, out=body)
    return out


def _from_launch(A, base, delta):
    """``base + C - diag(C)``, C the running integral of ``A`` along t (last axis)."""
    C = _ctz(A, axis=-1, delta=delta)
    idx = np.arange(C.shape[-1])
    diag = C[..., idx, idx][..., None]
    np.add(base[..., None], C, out=C)
    C -= diag
    return C


@dataclass(frozen=True, eq=False)
class CharField:
    """Solution on the triangular grid (valid where t index >= t0 index)."""

    times: np.ndarray  # (G+1,) shared grid for t0 and t
    x: np.ndarray      # (n, G+1, G+1) sessile concentrations along characteristics
    s: np.ndarray      # (m, G+1, G+1)
    psi: np.ndarray    # (n, G+1, G+1)
    c: np.ndarray      # (G+1, G+1) characteristic positions
    c_t0: np.ndarray   # (G+1, G+1) d c / d t0
    L: np.ndarray      # (G+1,) interface positions

    @property
    def wedge(self) -> np.ndarray:
        G1 = self.times.size
        return np.triu(np.ones((G1, G1), dtype=bool))


def _iterate_map(cfg, times, mask, X0, S_star, psi_star, Sigma, sigma_a,
                 x, s, psi, ct0):
    """One application of the integral map to the old ``(x, s, psi, c_t0)``;
    returns the new ``(x, s, psi, L, c, c_t0)``.

    Each (n, G+1, G+1) working array is built in place on a buffer the map
    owns and dropped once used, so a step holds the two iterates and a few
    working arrays; the arithmetic, operand order included, is the plain
    expression written in each comment.
    """
    delta = times[1] - times[0]
    a = cfg.arrays
    rho = a["rho"][:, None, None]
    idx = np.arange(times.size)

    bundle = kinetics.rate_bundle(x / rho, s, psi, cfg)
    F_x, xG, r_S, r_Psi, g = (bundle.r_M, bundle.r_col, bundle.r_S,
                              bundle.r_Psi, bundle.G)
    del bundle

    # F_x = (rho * (r_M + r_col) - x * G) * mask, with G unmasked.
    np.add(F_x, xG, out=F_x)
    np.multiply(rho, F_x, out=F_x)
    np.multiply(x, g, out=xG)
    np.subtract(F_x, xG, out=F_x)
    del xG
    F_x *= mask

    # Sessile concentrations: line integrals along each characteristic.
    x_new = _from_launch(F_x, X0, delta)
    del F_x

    # Dissolved fields: double integrals across the slice at fixed t,
    # written over the rate buffer.
    def dissolved(rate, Dcoef, bulk_t):
        # W = rate * mask * ct0, V = ct0 * I1, C2 = ctz(V),
        # result = bulk + (diag(C2) - C2) / D
        rate *= mask
        rate *= ct0
        I1 = _ctz(rate, axis=1, delta=delta)        # over the inner t0 coordinate
        np.multiply(ct0[None, :, :], I1, out=rate)
        del I1
        C2 = _ctz(rate, axis=1, delta=delta)
        diag = C2[:, idx, idx]
        np.subtract(diag[:, None, :], C2, out=C2)
        C2 /= Dcoef[:, None, None]
        return np.add(bulk_t[:, None, :], C2, out=rate)

    s_new = dissolved(r_S, a["D"], S_star)
    del r_S
    # A species that does not colonize has rate -0.0, so with c_t0 > 0 its
    # double integral is +0.0 everywhere and it keeps its bulk value plus
    # 0.0 (a -0.0 bulk becomes +0.0), the rule of solve_planktonic.
    for i, colonizes in enumerate(a["k_col"] != 0):
        if colonizes:
            dissolved(r_Psi[i:i + 1], a["D_psi"][i:i + 1], psi_star[i:i + 1])
        else:
            np.add(psi_star[i], 0.0, out=r_Psi[i])
    psi_new = r_Psi

    # Shared geometric integrand g = G * mask * ct0.
    g *= mask
    g *= ct0

    # Interface: Sigma plus the time integral of the interface velocity.
    Ig = _ctz(g, axis=0, delta=delta)              # integral over t0 up to row index
    u_iface = Ig[idx, idx]
    L_new = Sigma + _ctz(u_iface, axis=0, delta=delta)

    # Characteristic positions and their t0 derivative.
    c_new = _from_launch(Ig, L_new, delta)
    del Ig
    ct0_new = _from_launch(g, sigma_a, delta)

    return x_new, s_new, psi_new, L_new, c_new, ct0_new


def _distance(mask, old, new):
    """Summed per-component sup distances over the valid wedge."""
    diff = np.empty(mask.shape)
    total = 0.0
    for A, B in zip(old, new):
        if A.ndim == 1:
            total += float(np.max(np.abs(B - A)))
            continue
        for a_plane, b_plane in zip(A.reshape((-1,) + mask.shape),
                                    B.reshape((-1,) + mask.shape)):
            np.subtract(b_plane, a_plane, out=diff)
            np.abs(diff, out=diff)
            total += float(np.max(diff, where=mask, initial=0.0))
    return total


def _boundary_data(cfg, times):
    """Boundary data on ``times``: bulk supplies ``psi*`` (n, T) and ``S*``
    (m, T), attachment flux ``sigma_a`` (T,) and inflow concentrations
    ``X0`` (n, T).  Raises :class:`NoAttachment` where ``sigma_a`` vanishes."""
    psi_b = np.stack([cfg.psi_star(t) for t in times], axis=1)
    S_b = np.stack([cfg.s_star(t) for t in times], axis=1)
    # The kinetics run once per distinct bulk state, keyed on its bytes so
    # that -0.0 and +0.0 stay apart and NaN still finds itself.
    keys = [column.tobytes() for column in psi_b.T]
    states = dict(zip(keys, psi_b.T))
    flux = {key: attachment_flux(column, cfg) for key, column in states.items()}
    sigma_a = np.array([flux[key] for key in keys])
    if np.any(sigma_a <= 0.0):
        raise NoAttachment("attachment flux must stay positive on the horizon")
    inflow = {key: cfg.arrays["rho"] * inflow_fractions(column, cfg)
              for key, column in states.items()}
    X0 = np.stack([inflow[key] for key in keys], axis=1)
    return psi_b, S_b, sigma_a, X0


def picard_solve(cfg, T_o: float, grid_n: int, zeroth: Optional[tuple] = None):
    """Iterate the integral map on [0, T_o] until the iterate distance falls
    below ``cfg.numerics.picard_tol``.

    Returns ``(CharField, history)`` where ``history`` lists successive
    iterate distances.  Raises :class:`ConfigError` on an invalid ``cfg``,
    :class:`NonConvergence` when the distance fails to decrease three times
    in a row (the horizon is too long for contraction) or after
    ``picard_max_iter`` iterations, and :class:`DetachmentRegime` when
    ``cfg`` leaves the attachment regime.

    ``zeroth`` optionally replaces the default starting iterate with a
    ``(x, s, psi, L, c, c_t0)`` tuple of matching shapes (used to witness
    uniqueness: admissible starts converge to the same fixed point).
    """
    report = validate_config(cfg)
    if not report.ok:
        raise ConfigError(f"invalid configuration:\n{report}")
    if not (T_o > 0 and math.isfinite(T_o)):
        raise ValueError("oracle horizon must be positive and finite")
    if grid_n < 1:
        raise ValueError("grid_n must be at least 1")

    G1 = grid_n + 1
    times = np.linspace(0.0, T_o, G1)
    mask = np.triu(np.ones((G1, G1), dtype=bool))

    psi_b, S_b, sigma_a, X0 = _boundary_data(cfg, times)
    Sigma = _ctz(sigma_a, axis=0, delta=times[1] - times[0])

    # Zeroth iterate: boundary data swept across the wedge.
    if zeroth is None:
        ones = np.ones((G1, G1))
        x = X0[:, :, None] * ones
        s = S_b[:, None, :] * ones
        psi = psi_b[:, None, :] * ones
        L = Sigma.copy()
        c = Sigma[:, None] * ones
        ct0 = sigma_a[:, None] * ones
        del ones
    else:
        x, s, psi, L, c, ct0 = (np.array(a, dtype=float) for a in zeroth)

    nm = cfg.numerics
    history = []
    stall = 0
    for _ in range(nm.picard_max_iter):
        new = _iterate_map(cfg, times, mask, X0, S_b, psi_b, Sigma, sigma_a,
                           x, s, psi, ct0)
        d = _distance(mask, (x, s, psi, L, c, ct0), new)
        history.append(d)
        x, s, psi, L, c, ct0 = new
        if len(history) >= 2 and d >= history[-2]:
            stall += 1
            if stall >= 3:
                raise NonConvergence(
                    "iterate distances stopped decreasing (horizon outside "
                    "the contraction window)", iterations=len(history),
                    residual=d)
        else:
            stall = 0
        if d < nm.picard_tol:
            break
    else:
        raise NonConvergence("fixed-point iteration exceeded max_iter",
                             iterations=nm.picard_max_iter, residual=history[-1])

    if not np.all(attaching(sigma_a, kinetics.detachment_flux(L, cfg.delta))):
        raise DetachmentRegime(
            "detachment would dominate on this horizon; the characteristic "
            "formulation only covers the attachment regime")

    # The iterates are the map's own arrays: mask them in place.
    for A in (x, s, psi, c, ct0):
        A *= mask
    fields = CharField(times=times, x=x, s=s, psi=psi, c=c, c_t0=ct0, L=L)
    return fields, history


# ---------------------------------------------------------------------------
# Characteristic paths through a finite-difference run
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CharPath:
    t: np.ndarray
    z: np.ndarray
    f: np.ndarray  # (n, t.size) volume fractions carried along the path


def characteristic_trace(run_output: RunResult, t0,
                         t_end: Optional[float] = None) -> CharPath | list[CharPath]:
    """The characteristic ``c(t0, t)`` that leaves the interface at ``t0``,
    read from the labelled parcels of a run recorded by
    :func:`biofilm1d.stepper.run`.

    A path starts at ``(t0, L(t0))`` with the fractions of the last record at or
    before ``t0`` (clamped to its top parcel).  It visits every record time after
    ``t0`` up to ``t_end``, a record within ``TIME_TOL`` of ``t_end`` included, where
    its position and fractions are interpolated linearly in launch-time label
    between the two parcels that bracket ``t0``; a path launched at a record time
    is that record's top parcel.  An off-grid ``t_end`` is reached by interpolating
    linearly in time towards the next record.  A path ends at the last record where
    its parcel still exists, that is before detachment sheds it.  A float ``t0``
    returns one :class:`CharPath`; a 1-D array of launch times returns a list with
    one path per launch::

        path = characteristic_trace(result, 0.2, t_end=1.0)
        paths = characteristic_trace(result, np.linspace(0.0, 0.5, 6), 1.0)
    """
    profiles = run_output.profiles
    if profiles is None or len(profiles.parcel_z) < 2:
        raise OutOfDomain("run was not recorded with dense profiles")
    b, rows = run_output.boundary, slice(len(profiles.parcel_z))  # record k is row k
    pt, pL = b.t[rows], b.L[rows]
    t_end = float(pt[-1]) if t_end is None else float(t_end)
    tol = TIME_TOL * max(1.0, abs(t_end))
    launches = np.asarray(t0, dtype=float)
    t0s = launches.reshape(-1)
    if not (np.all((pt[0] <= t0s) & (t0s <= pt[-1]) & (t0s <= t_end))
            and t_end <= pt[-1] + tol):
        raise OutOfDomain("requested path leaves the recorded time span")
    if t0s.size == 0:
        return []

    def at_record(k):
        """Every launch's position and fractions (rows) at record k, and
        whether its parcel exists."""
        labels = profiles.parcel_t0[k]
        rows = (profiles.parcel_z[k], *profiles.parcel_f[k])
        return np.array([np.interp(t0s, labels, r) for r in rows]), t0s <= labels[-1]

    # The record times up to t_end, each once; an off-grid t_end is bracketed
    # by the last of them and the record after it.
    k_end = int(np.searchsorted(pt, t_end + tol, side="right"))
    ks = [k for k in range(k_end) if k == 0 or pt[k] > pt[k - 1]]
    vals, alive = (np.array(a) for a in zip(*map(at_record, ks)))
    off_grid = pt[ks[-1]] < t_end - tol and k_end < pt.size
    if off_grid:
        v_next, alive_next = at_record(k_end)
    z_launch = np.interp(t0s, pt, pL)

    tk = pt[ks]
    launch_rows = np.searchsorted(tk, t0s, side="right") - 1
    paths = []
    for i, ta in enumerate(t0s.tolist()):
        rows = np.flatnonzero(tk > ta)
        kept = np.logical_and.accumulate(alive[rows, i])
        rows = rows[kept]
        t = np.concatenate(([ta], tk[rows]))
        v = vals[np.concatenate(([launch_rows[i]], rows)), :, i].T
        v[0, 0] = z_launch[i]
        if off_grid and ta < t_end - tol and kept.all() and alive_next[i]:
            w = (t_end - t[-1]) / (pt[k_end] - t[-1])
            t = np.append(t, t_end)
            v = np.column_stack([v, v[:, -1] + w * (v_next[:, i] - v[:, -1])])
        paths.append(CharPath(t=t, z=v[0], f=v[1:]))
    return paths if launches.ndim else paths[0]


def map_run_to_char_grid(run_output: RunResult, times: np.ndarray):
    """Sample a recorded run on the oracle's (t0, t) grid.

    Returns ``(x, c, L)`` with the same layout as :class:`CharField`; entries
    outside the wedge are zero.  Row i is the path launched at ``times[i]``,
    interpolated linearly in time: its position and its fractions times the
    densities; ``L[i]`` is where it launches.  A path that detachment sheds
    before ``times[-1]`` raises :class:`OutOfDomain`.
    """
    paths = characteristic_trace(run_output, times, float(times[-1]))
    rho = run_output.cfg.arrays["rho"][:, None]
    G1 = times.size
    x = np.zeros((rho.shape[0], G1, G1))
    c = np.zeros((G1, G1))
    for i, path in enumerate(paths):
        if path.t[-1] < times[-1] - TIME_TOL * max(1.0, abs(times[-1])):
            raise OutOfDomain(f"path launched at {times[i]} is shed at {path.t[-1]}")
        c[i, i:] = np.interp(times[i:], path.t, path.z)
        x[:, i, i:] = rho * np.array([np.interp(times[i:], path.t, f) for f in path.f])
    return x, c, np.array([path.z[0] for path in paths])


def cross_check_errors(fields: CharField, x_fd, c_fd, L_fd):
    """Relative sup errors ``(err_x, err_c, err_L)`` of a run sampled by
    :func:`map_run_to_char_grid` against the fixed point, over the wedge;
    ``err_x`` is the worst species, each relative to its own scale."""
    wedge = fields.wedge

    def rel(ref, got):
        return float(np.max(np.abs(ref - got))) / max(float(np.max(np.abs(ref))), 1e-300)

    err_x = max(rel(x[wedge], x_run[wedge]) for x, x_run in zip(fields.x, x_fd))
    return err_x, rel(fields.c[wedge], c_fd[wedge]), rel(fields.L, L_fd)


# ---------------------------------------------------------------------------
# Contraction-window estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionBox:
    """Sup-norm deviation bounds around the boundary data."""

    h_x: tuple
    h_s: tuple
    h_psi: tuple
    h_L: float
    h_c1: float
    h_c2: float


@dataclass(frozen=True, eq=False)
class ContractionEstimate:
    M_x: np.ndarray
    M_s: np.ndarray
    M_psi: np.ndarray
    M_L: float          # bounds the geometric kernel G c_t0 of L, c and c_t0
    a: float
    b: float
    caps: dict
    T_star: float
    samples: int

    def contraction_factor(self, T: float) -> float:
        return self.a * T * T + self.b * T


def window_root(a: float, b: float) -> float:
    """Largest T with a T^2 + b T < 1 (open bound; inf when a = b = 0).

    Computed as 2 / (b + sqrt(b^2 + 4a)), which does not cancel when
    b^2 >> 4a and is 1/b at a = 0."""
    if a == b == 0.0:
        return math.inf
    return 2.0 / (b + math.sqrt(b * b + 4.0 * a))


def estimate_contraction(cfg, box: ContractionBox, t_max: float,
                         seed: int = 0) -> ContractionEstimate:
    """Bound and Lipschitz estimates for the integral-map kernels over a box.

    Bounds ``M`` are maxima over 4096 random points of the box and its
    corners, slopes ``lam`` the worst symmetric difference quotients; both
    are sampled, so the window is an estimate, not a bound (ROADMAP item 11).
    Each ``table`` row is a component with its kernel, radii, integral order
    ``q`` and kernel count ``w``: x and c_t0 (cap ``c2``) integrate once;
    s, psi, L and c (cap ``c1``, counting the kernel twice) integrate twice.
    A row caps T at ``(h / (w M))**(1/q)`` and adds ``w * sum(lam)`` to ``a``
    (q = 2) or ``b`` (q = 1) of ``Lambda(T) = a T^2 + b T``; ``T_star`` is
    0.99 times the least cap, the root of ``Lambda(T) = 1`` included.
    """
    a_ = cfg.arrays
    rho = a_["rho"][:, None]
    tgrid = np.linspace(0.0, max(t_max, 1e-12), 257)
    psi_b, S_b, sig, X0 = _boundary_data(cfg, tgrid)

    # The sampled arguments x, s, psi and c_t0: boundary data and box radii.
    args = [(X0, box.h_x), (S_b, box.h_s), (psi_b, box.h_psi),
            (sig[None, :], (box.h_c2,))]
    lo = np.concatenate([np.maximum(d.min(axis=1) - np.asarray(h), 0.0)
                         for d, h in args])
    hi = np.concatenate([d.max(axis=1) + np.asarray(h) for d, h in args])
    splits = np.cumsum([len(h) for _, h in args])[:-1]
    dim = lo.size
    rng = np.random.default_rng(seed)
    pts = lo + (hi - lo) * rng.random((4096, dim))
    # Corner points sharpen the bound estimates for monotone kernels.
    if dim <= 12:
        corners = np.array(np.meshgrid(*[(l, h) for l, h in zip(lo, hi)],
                                       indexing="ij")).reshape(dim, -1).T
        pts = np.vstack([pts, corners])

    def kernels(P):
        # F_x, F_s, F_psi, and the geometric kernel G c_t0 as one row
        x, s, psi, ct0 = np.split(P.T, splits)
        bundle = kinetics.rate_bundle(x / rho, s, psi, cfg)
        return (rho * (bundle.r_M + bundle.r_col) - x * bundle.G,
                bundle.r_S * ct0 ** 2 / a_["D"][:, None],
                bundle.r_Psi * ct0 ** 2 / a_["D_psi"][:, None],
                bundle.G * ct0)

    M = [np.max(np.abs(F), axis=1) for F in kernels(pts)]
    lam = [np.zeros(bound.size) for bound in M]
    width = hi - lo
    for d in range(dim):
        if width[d] == 0.0:
            continue
        step = max(1e-6 * width[d], 1e-12)
        inner = pts.copy()
        inner[:, d] = np.clip(inner[:, d], lo[d] + step, hi[d] - step)
        plus = inner.copy()
        plus[:, d] += step
        minus = inner.copy()
        minus[:, d] -= step
        scale = 1.0 / (2.0 * step)
        # slopes along arguments outside a kernel's signature are zero
        Fp = kernels(plus)
        Fm = kernels(minus)
        for k in range(len(lam)):
            lam[k] = np.maximum(lam[k], np.max(np.abs(Fp[k] - Fm[k]), axis=1) * scale)

    geo = 3
    table = (("x", 0, box.h_x, 1, 1), ("s", 1, box.h_s, 2, 1),
             ("psi", 2, box.h_psi, 2, 1), ("L", geo, (box.h_L,), 2, 1),
             ("c1", geo, (box.h_c1,), 2, 2), ("c2", geo, (box.h_c2,), 1, 1))
    caps, coef = {}, {1: 0.0, 2: 0.0}
    for name, k, radii, q, w in table:
        for i, h in enumerate(radii):
            wM = w * float(M[k][i])
            ratio = math.inf if wM == 0.0 else h / wM
            # per-species rows number their caps; geometric rows have one
            caps[name if k == geo else f"{name}{i + 1}"] = (
                ratio if q == 1 else math.sqrt(ratio))
        coef[q] += w * np.sum(lam[k])
    a, b = float(coef[2]), float(coef[1])
    caps["contraction"] = window_root(a, b)

    T_min = min(caps.values())
    T_star = T_min if math.isinf(T_min) else 0.99 * T_min

    return ContractionEstimate(
        M_x=M[0], M_s=M[1], M_psi=M[2], M_L=float(M[geo][0]), a=a, b=b,
        caps=caps, T_star=T_star, samples=pts.shape[0])


def box_from_run(run_output: RunResult) -> ContractionBox:
    """Deviation bounds observed in a recorded run, widened by a factor 2.

    A practical way to feed :func:`estimate_contraction`: the box then covers
    the region the solution actually inhabits on the run's horizon.
    """
    profiles = run_output.profiles
    if profiles is None:
        raise OutOfDomain("run was not recorded with dense profiles")
    cfg = run_output.cfg
    a_ = cfg.arrays
    b, rows = run_output.boundary, slice(len(profiles.parcel_z))  # record k is row k
    t, L, sigma_a, u_L = b.t[rows], b.L[rows], b.sigma_a[rows], b.u_L[rows]
    span = float(t[-1] - t[0])

    psi_b, S_b, _, X0 = _boundary_data(cfg, t)
    dev_x = np.max([np.max(np.abs(a_["rho"][:, None] * f - X0[:, k, None]), axis=1)
                    for k, f in enumerate(profiles.parcel_f)], axis=0)
    dev_s = np.max(np.abs(profiles.S - S_b.T[:, :, None]), axis=(0, 2))
    dev_psi = np.max(np.abs(profiles.Psi - psi_b.T[:, :, None]), axis=(0, 2))

    Sigma = _ctz(sigma_a, axis=0, delta=np.diff(t))
    dev_L = float(np.max(np.abs(L - Sigma)))
    u_max = float(np.max(np.abs(u_L)))
    with np.errstate(divide="ignore", invalid="ignore"):
        G_max = float(np.nanmax(np.where(L > 0, u_L / L, 0.0)))
    sig_max = float(np.max(sigma_a))

    floor, margin = 1e-9, 2.0
    h_x = tuple(margin * max(v, 1e-3 * r) for v, r in zip(dev_x, a_["rho"]))
    h_s = tuple(margin * max(v, floor) for v in dev_s)
    h_psi = tuple(margin * max(v, floor) for v in dev_psi)
    h_L = margin * max(dev_L, floor)
    h_c1 = margin * max(dev_L + u_max * span, floor)
    h_c2 = margin * max(sig_max * (math.exp(max(G_max, 0.0) * span) - 1.0),
                        0.05 * sig_max, floor)
    return ContractionBox(h_x=h_x, h_s=h_s, h_psi=h_psi,
                          h_L=h_L, h_c1=h_c1, h_c2=h_c2)
