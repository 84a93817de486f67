"""Time integration of the coupled free-boundary system.

A run starts from the paper's vanishing initial value, the empty film
L(0) = 0, and the sessile volume fractions are transported along
characteristics: material parcels carry them with the flow, so the grid of
unknowns moves with ``u``.  A parcel is injected at the interface while
attachment dominates, and parcels above the receding interface are shed
during detachment.  Composition fronts stay sharp to round-off because
fractions are never interpolated between parcels during a run; the parcels
are resampled onto the uniform normalized grid only for the dissolved-field
solves and for emitted snapshots.  Labelled with their launch times t0,
the parcels are the characteristics ``c(t0, t)`` (the substratum's t0 is 0),
and a recorded run keeps them with their fractions: the sessile unknowns
``x(t0, t)``.

One step evaluates the right-hand side and then commits it.  The
right-hand side (:func:`_rhs`) is pure: quasi-static substrate and
planktonic solves on the uniform grid, rate evaluation on the parcels,
velocity quadrature over the parcel spacing and the interface fluxes.  It
returns the solution at the parcels' time as a
:class:`~biofilm1d.model.Snapshot` (the resampled fractions, the dissolved
fields, the fluxes and ``u_L``) with the rates and velocity on the parcels.
The commit is the explicit interface update and the explicit parcel update,
with a parcel attached or parcels shed at the new top.  A snapshot
(:func:`make_snapshot`) is that same right-hand side's first part, so its
``u_L`` is the one a step from there would move the interface by (up to the
Newton start).  The dissolved fields are constraints re-solved from the
resampled fractions, so they pass between the solves as arrays.  The
substrate Newton of a step starts from the linear extrapolation in time of
the last two step solutions, the standard starting value for the algebraic
part of a differential-algebraic system; a snapshot starts from the last.
Between steps the sessile state is a frozen :class:`_Parcels` value, and
neither :func:`_rhs` nor :func:`_commit` writes an argument.  :func:`run`
alone holds the stepping state: the current parcels (whose ``t`` is the one
clock), the last two step snapshots, the emitted snapshots and the records;
it also issues the grid-resolution warning.  Its steps are capped at
``dt_max`` and land exactly on snapshot times and bulk-trace breakpoints, so
a run is deterministic for a fixed configuration.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .elliptic import solve_planktonic, solve_substrates, warn_under_resolved
from .errors import ConfigError, NoAttachment, NumericalBlowup
from .kinetics import attachment_flux, detachment_flux, inflow_fractions, rate_bundle
from .model import (CONSTRAINT_TOL, TIME_TOL, BoundaryTrace, ProfileTrace, RunResult,
                    ScenarioConfig, Snapshot, attaching, validate_config)


def compute_velocity(G, dz) -> np.ndarray:
    """Velocity profile from the source G by trapezoidal quadrature, u(0) = 0.

    ``dz`` is the node spacing, ``np.diff(z)`` (a scalar for even spacing);
    the stepper passes the parcels' spacing.
    """
    G = np.asarray(G, dtype=float)
    u = np.empty(G.size)
    u[0] = 0.0
    u[1:] = np.cumsum((G[:-1] + G[1:]) * (0.5 * dz))
    return u


def _resample(x, xp, fp) -> np.ndarray:
    """Each row of ``fp``, given at the nodes ``xp``, interpolated at ``x``."""
    return np.stack([np.interp(x, xp, row) for row in fp])


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------

def _forced_times(cfg: ScenarioConfig):
    pts = {float(s) for s in cfg.snapshot_times} | {cfg.horizon}
    pts.update(cfg.bulk.breakpoints())
    return sorted(p for p in pts if 0.0 < p <= cfg.horizon)


@dataclass(frozen=True, eq=False)
class _Parcels:
    """The sessile state at time ``t``: the thickness and the parcels'
    abscissae, launch times and fractions ``(n, parcel count)``, bottom to
    top.  Fractions never cross parcel boundaries."""

    t: float
    L: float
    z: np.ndarray
    t0: np.ndarray
    fz: np.ndarray


def _seed(cfg: ScenarioConfig) -> _Parcels:
    """The empty film at t = 0, L(0) = 0: one parcel at the substratum,
    launched at t0 = 0 with the inflow fractions.  On it the dissolved
    fields are their bulk values with no Newton iteration and ``u_L`` is
    zero, so the first step attaches ``L = sigma_a(0) dt``."""
    psi0 = cfg.psi_star(0.0)
    if attachment_flux(psi0, cfg) <= 0.0:
        raise NoAttachment("total attachment flux at t = 0 is zero")
    return _Parcels(t=0.0, L=0.0, z=np.zeros(1), t0=np.zeros(1),
                    fz=inflow_fractions(psi0, cfg)[:, None])


def _rhs(p: _Parcels, S_guess, cfg: ScenarioConfig):
    """The right-hand side at the parcels ``p``, mutating no argument: the
    :class:`Snapshot` at ``p.t``, then the rates and the velocity
    (``u(0) = 0``) on the parcels.  The fractions are resampled onto the
    uniform grid for the dissolved-field solves (Newton start ``S_guess``),
    whose results are resampled back onto the parcels for the rates; the
    velocity is the trapezoid over the parcel spacing."""
    N = cfg.numerics.N
    zu = np.arange(N + 1, dtype=float) / N * p.L
    f = _resample(zu, p.z, p.fz)
    S = np.stack([sol.values for sol in solve_substrates(p.t, p.L, f, S_guess, cfg)])
    Psi = solve_planktonic(p.t, p.L, S, cfg)
    rates = rate_bundle(p.fz, _resample(p.z, zu, S), _resample(p.z, zu, Psi), cfg)
    u = compute_velocity(rates.G, np.diff(p.z))
    return Snapshot(t=p.t, L=p.L, f=f, S=S, Psi=Psi,
                    sigma_a=attachment_flux(cfg.psi_star(p.t), cfg),
                    sigma_d=detachment_flux(p.L, cfg.delta), u_L=float(u[-1])), rates, u


def _last_S(solved, cfg: ScenarioConfig) -> np.ndarray:
    """The substrates of the last snapshot in ``solved``, or the bulk values
    before the first solve."""
    if solved:
        return solved[-1].S
    return np.outer(cfg.s_star(0.0), np.ones(cfg.numerics.N + 1))


def _predicted_S(solved, t: float, cfg: ScenarioConfig) -> np.ndarray:
    """Newton start for the substrates at time t from the snapshots of the
    last two solves, oldest first: their linear extrapolation in time (steps
    may be uneven), or the last solution while there are fewer than two."""
    if len(solved) < 2:
        return _last_S(solved, cfg)
    old, last = solved
    return last.S + (t - last.t) / (last.t - old.t) * (last.S - old.S)


def make_snapshot(p: _Parcels, S_guess, cfg: ScenarioConfig) -> Snapshot:
    """The snapshot of the step right-hand side at the parcels ``p`` (Newton
    start ``S_guess``)."""
    return _rhs(p, S_guess, cfg)[0]


def _commit(p: _Parcels, dt: float, t_new: float, rhs, cfg: ScenarioConfig):
    """The parcels moved by ``dt`` along ``rhs``, the triple of :func:`_rhs`,
    with a parcel attached or parcels shed at the new top, at time ``t_new``;
    a parcel attached over the step takes that label.  Returns them with the
    step's fraction-sum drift, writing no argument; a drift above
    ``CONSTRAINT_TOL`` raises, so the renormalisation only corrects rounding.
    The fractions stay non-negative without a clamp: ``validate_config`` bounds
    ``dt * G`` by 0.5, and the attached inflow fractions are never negative.
    A step that would empty the film (it needs ``dt delta L >= 1``) raises."""
    snap, rates, u = rhs
    L_new = p.L + dt * (snap.u_L + snap.sigma_a - snap.sigma_d)
    if L_new <= 0.0:
        raise NumericalBlowup(f"the step empties the film (L = {L_new:.3g} m)", t=t_new)

    growth = rates.r_M + rates.r_col
    f_new = p.fz + dt * (growth - p.fz * rates.G)
    col = f_new.sum(axis=0)
    drift = float(np.max(np.abs(col - 1.0)))
    if drift > CONSTRAINT_TOL:
        raise NumericalBlowup(f"volume-fraction sum drifted by {drift:.3g}", t=t_new)
    f_new = f_new / col

    z_new = p.z + dt * u

    # Parcel gaps never shrink (G >= 0 stretches material), so only the
    # interface node needs care to keep the abscissae strictly increasing.
    margin = 1e-9 * L_new / cfg.numerics.N
    if attaching(snap.sigma_a, snap.sigma_d) and L_new > z_new[-1]:
        # composition of the parcel attached over [t, t+dt], sampled at
        # the step start where the attachment regime is guaranteed
        f_top, t0_top = inflow_fractions(cfg.psi_star(p.t), cfg), t_new
        # a parcel attached within the margin of the top one replaces it
        keep = slice(None, -1 if L_new - z_new[-1] <= margin else None)
    else:
        # Receding interface: sample the material profile at the new top,
        # then shed everything above it.
        f_top = _resample(L_new, z_new, f_new)
        t0_top = np.interp(L_new, z_new, p.t0)
        keep = z_new < L_new - margin
        keep[0] = True
    return _Parcels(t=t_new, L=L_new, z=np.append(z_new[keep], L_new),
                    t0=np.append(p.t0[keep], t0_top),
                    fz=np.column_stack([f_new[:, keep], f_top])), drift


def run(cfg: ScenarioConfig, record_profiles: bool = False,
        profile_t_max: float = math.inf) -> RunResult:
    """Integrate from the empty film at t = 0 to the horizon, emitting
    scheduled snapshots.

    Steps land exactly on snapshot times and on bulk-trace breakpoints; two
    times within ``TIME_TOL * max(1, t)`` are one instant.  A species whose
    planktonic layer the grid misses at the run's largest thickness gets one
    :class:`BoundaryLayerResolutionWarning`.  ``record_profiles`` keeps a
    :class:`ProfileTrace` of every step that starts by ``profile_t_max``, so
    record k is boundary row k: the dissolved fields, and the labelled parcels
    with their fractions that :func:`biofilm1d.oracle.characteristic_trace` reads.
    """
    report = validate_config(cfg)
    if not report.ok:
        raise ConfigError(f"invalid configuration:\n{report}")
    p = _seed(cfg)
    solved = []  # the snapshots of the last two steps, oldest first
    snaps = []
    # per record one BoundaryTrace row and one ProfileTrace tuple, fields in order
    rows = array("d")
    records = []
    t_keep = profile_t_max + TIME_TOL * max(1.0, profile_t_max)

    def record(p, snap, drift):
        rows.extend((p.t, p.L, snap.sigma_a, snap.sigma_d, snap.u_L, drift))
        if record_profiles and p.t <= t_keep:
            records.append((snap.S, snap.Psi, p.z, p.t0, p.fz))

    # each snapshot right after its forced time; at t = 0 the empty film's
    for target in [0.0] + _forced_times(cfg):
        tol = TIME_TOL * max(1.0, target)
        while p.t < target - tol:
            dt = min(cfg.numerics.dt_max, target - p.t)
            # a step that ends within rounding of the forced time lands on it
            t_end = target if abs(p.t + dt - target) <= tol else p.t + dt
            rhs = _rhs(p, _predicted_S(solved, p.t, cfg), cfg)
            solved = solved[-1:] + [rhs[0]]
            nxt, drift = _commit(p, dt, t_end, rhs, cfg)
            if not (np.isfinite(nxt.L) and np.all(np.isfinite(nxt.fz))):
                raise NumericalBlowup("non-finite state after step", t=t_end)
            record(p, rhs[0], drift)
            p = nxt
        # a time listed more than once is solved once
        if count := sum(s == target for s in cfg.snapshot_times):
            snaps += [make_snapshot(p, _last_S(solved, cfg), cfg)] * count

    # Final row at the horizon (reuses the last snapshot if it is here).
    record(p, snaps[-1] if snaps and snaps[-1].t == p.t
           else make_snapshot(p, _last_S(solved, cfg), cfg), 0.0)

    # the boundary trace's fields view the one buffer's columns without a copy
    boundary = BoundaryTrace(*np.frombuffer(rows, dtype=np.float64).reshape(-1, 6).T)
    warn_under_resolved(float(boundary.L.max()), cfg)
    profiles = None
    if records:
        S, Psi, z, t0, fz = zip(*records)
        profiles = ProfileTrace(np.stack(S), np.stack(Psi), z, t0, fz)
    return RunResult(cfg=cfg, snapshots=snaps, boundary=boundary, profiles=profiles)
