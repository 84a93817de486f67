"""Byte-identity guards for the elliptic layer and the stepper.

Short case1, case2 and case3 runs are repeated with frozen copies of the
earlier general solver (the four-band Thomas kernel, ``solve_problem`` on its
``EllipticProblem`` wrapper with the planktonic linear branch, the substrate
sweep with a fresh scratch copy per closure call, and the per-species
Jacobian loop) patched in where the stepper and ``elliptic`` look them up.  Every snapshot field, the boundary
trace and the recorded profiles must agree bitwise, signs of zeros included.

A frozen copy of the earlier single-pass engine (``advance`` returning a
7-tuple, with ``_equilibrate`` and ``_interface_fluxes``) and of its
``make_snapshot`` (with ``u_L`` taken on the parcels, as ``advance`` takes
it), driven by a copy of the earlier run loop, is the reference for
:func:`stepper.run`, which evaluates a pure right-hand side and commits it
to a frozen parcel state.  Every profile record (the step-start parcels
and dissolved fields), every boundary row (fluxes, ``u_L``, drift and clamp
count) and every snapshot must agree bit for bit.

Short runs of the three presets, and of case2 with the corrected ramp, must
reproduce committed content hashes with libm's exp, log and pow patched to
raise, and so must the 10 d preset runs of the session fixtures.
"""

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from biofilm1d import elliptic, kinetics, stepper
from biofilm1d.elliptic import EllipticSolution, _residual, resolution_limit
from biofilm1d.errors import (BoundaryLayerResolutionWarning, NonConvergence,
                              NumericalBlowup, SingularJacobian)
from biofilm1d.kinetics import (attachment_flux, detachment_flux,
                                inflow_fractions)
from biofilm1d.model import (TIME_TOL, NumericsConfig, ScenarioConfig, Snapshot,
                             SpeciesParams, Stoichiometry, SubstrateParams)
from biofilm1d.output import emit
from biofilm1d.presets import build_preset
from biofilm1d.traces import BulkTraces, ConstantTrace, TableTrace

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


def clamp_solution(values, dirichlet):
    """The earlier clamp of every accepted field, less its warning."""
    low = float(values.min())
    out = values if low > 0.0 else np.maximum(values, 0.0)
    out[-1] = dirichlet
    return out


def clamped_fractions(f):
    """The earlier rate-side clamp of the fractions."""
    f = np.asarray(f, dtype=float)
    if np.fmin.reduce(f, axis=None, initial=0.0) < 0.0:
        f = np.maximum(f, 0.0)
    return f


def general_solve_problem(problem, N, tol=1e-9, max_iter=50, initial=None):
    if problem.L < 0:
        raise ValueError("domain length must not be negative")
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
        return EllipticSolution(clamp_solution(v, problem.dirichlet_value), 1)

    v = np.full(N + 1, float(problem.dirichlet_value)) if initial is None \
        else np.array(initial, dtype=float)
    v[-1] = problem.dirichlet_value
    res = residual(v)
    res_norm = float(np.max(np.abs(res)))
    for it in range(1, max_iter + 1):
        if res_norm <= tol_abs:
            return EllipticSolution(clamp_solution(v, problem.dirichlet_value), it - 1)
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
        return EllipticSolution(clamp_solution(v, problem.dirichlet_value), max_iter)
    raise NonConvergence("elliptic Newton exceeded max iterations",
                         iterations=max_iter, residual=res_norm)


def species_loop_jacobian_diag(f, S, cfg):
    a = cfg.arrays
    f = clamped_fractions(f)
    S = np.asarray(S, dtype=float)
    trail = (1,) * (f.ndim - 1)
    mu = a["mu_max"].reshape((-1,) + trail)
    K = a["K"].reshape(mu.shape)
    s_sel = S[a["substrate_of"]]
    dload = mu * kinetics.dmonod(s_sel, K) * f * a["rho_Y"].reshape(mu.shape)
    W = np.array(cfg.stoichiometry.production, dtype=float)
    out = np.zeros_like(S)
    for i, j in enumerate(a["substrate_of"]):
        out[j] += W[j, i] * dload[i]
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


def short_run(case, horizon, psi3=None):
    cfg = build_preset(case).cfg
    if psi3 is not None:
        cfg = dataclasses.replace(cfg, bulk=dataclasses.replace(
            cfg.bulk, psi_star=cfg.bulk.psi_star[:2] + (psi3,)))
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


# A bulk value that leaves 0 and returns to it: species 3's planktonic field
# is skipped as exactly zero on [0.02, 0.04] d, and substrate 3's rows are
# swept as running sums while species 3 is absent from the film.
PSI3_GAP = TableTrace((0.0, 0.02, 0.04, 0.06), (100.0, 0.0, 0.0, 100.0))


# case3's species 3 colonizes after its arrival at t1 = 0.2 d but cannot attach
@pytest.mark.parametrize("case, horizon, psi3", [
    pytest.param("case2", 0.3, None, id="case2-0.3"),
    pytest.param("case1", 0.05, None, id="case1-0.05"),
    pytest.param("case3", 0.3, None, id="case3-0.3"),
    pytest.param("case3", 0.08, PSI3_GAP, id="case3-psi3-gap-0.08"),
])
def test_runs_bitwise_equal_to_general_solver(monkeypatch, case, horizon, psi3):
    new = short_run(case, horizon, psi3)
    with monkeypatch.context() as m:
        m.setattr(elliptic, "tridiagonal_solve", four_band_solve)
        m.setattr(elliptic, "solve_problem", general_solve_problem)
        for module in (elliptic, stepper):
            m.setattr(module, "solve_substrates", general_solve_substrates)
            m.setattr(module, "solve_planktonic", general_solve_planktonic)
        old = short_run(case, horizon, psi3)

    assert len(new.snapshots) == len(old.snapshots) >= 2
    for a, b in zip(new.snapshots, old.snapshots):
        for name, value in fields(a):
            assert_bitwise_equal(value, getattr(b, name), f"snapshot {a.t} {name}")
        assert a.attachment == b.attachment
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


# --- frozen copy of the single-pass stepper -----------------------------------


def frozen_compute_velocity(G, dz):
    G = np.asarray(G, dtype=float)
    u = np.empty(G.size)
    u[0] = 0.0
    u[1:] = np.cumsum((G[:-1] + G[1:]) * (0.5 * dz))
    return u


def frozen_interface_fluxes(t, L, cfg):
    return attachment_flux(cfg.psi_star(t), cfg), detachment_flux(L, cfg.delta)


def frozen_equilibrate(t, L, f, S_guess, cfg):
    S = np.stack([sol.values for sol in elliptic.solve_substrates(t, L, f, S_guess, cfg)])
    return S, elliptic.solve_planktonic(t, L, S, cfg)


def frozen_parcel_rates(L, zeta, z, fz, S_u, Psi_u, cfg):
    zu = zeta * L
    S_lag = np.stack([np.interp(z, zu, S_u[j]) for j in range(cfg.m)])
    Psi_lag = np.stack([np.interp(z, zu, Psi_u[i]) for i in range(cfg.n)])
    rates = kinetics.rate_bundle(fz, S_lag, Psi_lag, cfg)
    return rates, frozen_compute_velocity(rates.G, np.diff(z))


def frozen_make_snapshot(t, L, zeta, f, S_guess, cfg, z, fz):
    # u_L is the parcel quadrature a step from here would use
    S, Psi = frozen_equilibrate(t, L, f, S_guess, cfg)
    _, u = frozen_parcel_rates(L, zeta, z, fz, S, Psi, cfg)
    sigma_a, sigma_d = frozen_interface_fluxes(t, L, cfg)
    return Snapshot(t=t, L=L, f=f, S=S, Psi=Psi, sigma_a=sigma_a, sigma_d=sigma_d,
                    u_L=float(u[-1]))


class FrozenEngine:
    def __init__(self, cfg):
        self.cfg = cfg
        nm = cfg.numerics
        psi0 = cfg.psi_star(0.0)
        self.t = 0.0
        self.L = 0.0
        self.z = np.zeros(1)
        self.t0 = np.zeros(1)
        self.fz = inflow_fractions(psi0, cfg)[:, None]
        self.zeta = np.arange(nm.N + 1, dtype=float) / nm.N
        self.S_uniform = np.outer(cfg.s_star(0.0), np.ones(nm.N + 1))
        self._solved = []
        self.drift = 0.0
        self.clamped = 0

    def uniform_f(self):
        zu = self.zeta * self.L
        return np.stack([np.interp(zu, self.z, self.fz[i])
                         for i in range(self.fz.shape[0])])

    def _predicted_S(self, t):
        if len(self._solved) < 2:
            return self.S_uniform
        (t2, S2), (t1, S1) = self._solved
        return S1 + (t - t1) / (t1 - t2) * (S1 - S2)

    def snapshot(self):
        return frozen_make_snapshot(self.t, self.L, self.zeta, self.uniform_f(),
                                    self.S_uniform, self.cfg, self.z, self.fz)

    def advance(self, dt, t_new=None):
        t_new = self.t + dt if t_new is None else t_new
        cfg = self.cfg
        S_u, Psi_u = frozen_equilibrate(self.t, self.L, self.uniform_f(),
                                        self._predicted_S(self.t), cfg)
        self.S_uniform = S_u
        self._solved = self._solved[-1:] + [(self.t, S_u)]

        rates, u = frozen_parcel_rates(self.L, self.zeta, self.z, self.fz, S_u, Psi_u, cfg)

        sigma_a, sigma_d = frozen_interface_fluxes(self.t, self.L, cfg)
        u_L = float(u[-1])
        L_new = self.L + dt * (u_L + sigma_a - sigma_d)
        if L_new <= 0.0:
            raise NumericalBlowup("the step empties the film", t=t_new)

        growth = rates.r_M + rates.r_col
        f_new = self.fz + dt * (growth - self.fz * rates.G)
        self.clamped = int(np.sum(np.any(f_new < 0.0, axis=0)))
        f_new = np.maximum(f_new, 0.0)
        col = f_new.sum(axis=0)
        self.drift = float(np.max(np.abs(col - 1.0)))
        if np.min(col) <= 0.1:
            raise NumericalBlowup("volume-fraction sum collapsed", t=t_new)
        f_new = f_new / col

        z = self.z
        z_new = z + dt * u
        margin = 1e-9 * L_new / cfg.numerics.N
        if sigma_a - sigma_d > 0.0 and L_new > z_new[-1]:
            f_top, t0_top = inflow_fractions(cfg.psi_star(self.t), cfg), t_new
            keep = slice(None, -1 if L_new - z_new[-1] <= margin else None)
        else:
            f_top = np.array([np.interp(L_new, z_new, f_new[i])
                              for i in range(f_new.shape[0])])
            t0_top = np.interp(L_new, z_new, self.t0)
            keep = z_new < L_new - margin
            keep[0] = True
        z_new = np.append(z_new[keep], L_new)
        f_new = np.column_stack([f_new[:, keep], f_top])
        t0_new = np.append(self.t0[keep], t0_top)

        self.t, self.L, self.z, self.fz, self.t0 = t_new, L_new, z_new, f_new, t0_new
        return sigma_a, sigma_d, u_L, z, u, S_u, Psi_u


# --- the lockstep guard -------------------------------------------------------


def case2_to(horizon):
    return dataclasses.replace(build_preset("case2").cfg, horizon=horizon,
                               snapshot_times=())


def pulsed_supply():
    """One attaching species whose supply stops for 0.03 d: the interface
    recedes through its parcels and sheds them, then attaches again."""
    species = tuple(SpeciesParams(mu_max=0.0, K=1.0, Y=0.5, rho=1000.0, v_a=v,
                                  k_col=0.0, Y_psi=1.0, D_psi=1e-5)
                    for v in (0.02, 0.0))
    pulsed = TableTrace((0.0, 0.03, 0.031, 0.06, 0.061, 0.2),
                        (50.0, 50.0, 0.0, 0.0, 50.0, 50.0))
    return ScenarioConfig(
        species=species, substrates=(SubstrateParams(1e-5),), delta=2e4,
        bulk=BulkTraces(psi_star=(pulsed, ConstantTrace(0.0)),
                        s_star=(ConstantTrace(100.0),)),
        stoichiometry=Stoichiometry(substrate_of=(0, 0),
                                    production=((-1.0, -1.0),)),
        numerics=NumericsConfig(N=16), horizon=0.1, snapshot_times=())


def step_schedule(cfg):
    """``(dt, t_end)`` of every step :func:`stepper.run` takes for ``cfg``."""
    t = 0.0
    for target in stepper._forced_times(cfg):
        tol = TIME_TOL * max(1.0, target)
        while t < target - tol:
            dt = min(cfg.numerics.dt_max, target - t)
            t_end = target if abs(t + dt - target) <= tol else t + dt
            yield dt, t_end
            t = t_end


def frozen_run(cfg):
    """:func:`stepper.run` with profiles recorded, over the frozen engine:
    snapshots, boundary rows, profile records and the fraction clamp's
    count at each step, each a list."""
    eng = FrozenEngine(cfg)
    snaps = [eng.snapshot() for s in cfg.snapshot_times if s == 0.0]
    rows, records, clamped = [], [], []
    for dt, t_end in step_schedule(cfg):
        t, L, t0, fz = eng.t, eng.L, eng.t0, eng.fz
        sigma_a, sigma_d, u_L, z, _, S, Psi = eng.advance(dt, t_end)
        rows.append((t, L, sigma_a, sigma_d, u_L, eng.drift))
        records.append((t, L, S, Psi, z, t0, fz))
        clamped.append(eng.clamped)
        snaps.extend(eng.snapshot() for s in cfg.snapshot_times if s == t_end)
    last = snaps[-1] if snaps and snaps[-1].t == eng.t else eng.snapshot()
    rows.append((eng.t, eng.L, last.sigma_a, last.sigma_d, last.u_L, 0.0))
    records.append((eng.t, eng.L, last.S, last.Psi, eng.z, eng.t0, eng.fz))
    return snaps, rows, records, clamped


def assert_same_bits(actual, expected, what):
    """Equal as float64 bit patterns: signs of zeros and NaN payloads count."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, what
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64),
                                  err_msg=what)


def assert_same_snapshot(new, old, what):
    for name, value in fields(new):
        assert_same_bits(value, getattr(old, name), f"{what} {name}")


@pytest.mark.parametrize("make_cfg, recedes", [
    pytest.param(lambda: case2_to(0.3), False, id="case2-0.3d"),
    pytest.param(pulsed_supply, True, id="pulsed-supply"),
])
def test_steps_bitwise_equal_to_frozen_stepper(make_cfg, recedes):
    # case2 to 0.3 d covers the arrival at t1 = 0.2 d and colonization; the
    # pulsed supply covers receding steps, which shed the parcels above L.
    # Nine snapshot times off the dt_max grid make uneven steps.
    cfg = make_cfg()
    cfg = dataclasses.replace(cfg, snapshot_times=tuple(np.linspace(0.0, cfg.horizon, 9)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
        new = stepper.run(cfg, record_profiles=True)
    snaps, rows, records, clamped = frozen_run(cfg)

    # the frozen step still clamps its fractions at zero; it never acts, so
    # the bit-equality below shows the stepper needs no clamp on these runs
    assert clamped == [0] * (len(rows) - 1)
    assert len(new.snapshots) == len(snaps) == 9
    for k, (a, b) in enumerate(zip(new.snapshots, snaps)):
        assert_same_snapshot(a, b, f"snapshot {k}")
    # one boundary row and one profile record per step start and the horizon
    b = new.boundary
    assert b.t.size == len(rows) == len(records)
    names = [f.name for f in dataclasses.fields(b)]
    assert names == ["t", "L", "sigma_a", "sigma_d", "u_L", "sum_f_drift"]
    for name, column in zip(names, zip(*rows), strict=True):
        assert_same_bits(getattr(b, name), column, f"boundary {name}")
    # a profile record is a boundary row: its t and L are the row's, checked above
    p = new.profiles
    frozen = list(zip(*records))[2:]
    for name, column in zip([f.name for f in dataclasses.fields(p)], frozen, strict=True):
        value = getattr(p, name)
        if name.startswith("parcel_"):
            assert len(value) == len(column)
            for k, (x, y) in enumerate(zip(value, column)):
                assert_same_bits(x, y, f"profiles {name} record {k}")
        else:
            assert_same_bits(value, np.stack(column), f"profiles {name}")
    assert np.diff([z.size for z in p.parcel_z]).max() > 0
    assert bool((np.diff(b.L) < 0.0).any()) == recedes
    # one velocity: an interior snapshot's u_L is the one the step starting
    # there moves the interface by, up to that step's extrapolated Newton start
    inner = new.snapshots[1:-1]
    starts = [np.flatnonzero(b.t == s.t)[0] for s in inner]
    np.testing.assert_allclose([s.u_L for s in inner], b.u_L[starts], rtol=1e-5, atol=0)


# --- committed content hashes -------------------------------------------------


# content-sha256 of emit for each preset to 0.3 d at N = 50, snapshots at 0.1,
# 0.25 and 0.3 d; a change that moves them names the regeneration in CHANGES.md
COMMITTED_SHA256 = {
    ("case1", "printed"): "119f60ed3606956903fca6d3c44044342ff933958b152048b2c27b739c115fda",
    ("case2", "printed"): "3f0510cc086ad26f6610c77c3852f88bb913470fa781602cc3fc814e7ca004d4",
    ("case3", "printed"): "56724c40497adc62e940d4d902904b7e72154b95aacda521d267bd7429300367",
    ("case2", "corrected"): "408d52e41b829f90a073140c93478b5a8125abfea03a9cdf38f0f2f479e775ac",
}


def _no_libm(*args):
    raise AssertionError("a run called libm")


@pytest.mark.parametrize("case, variant", list(COMMITTED_SHA256),
                         ids=[f"{c}-{v}" for c, v in COMMITTED_SHA256])
def test_content_hash_matches_committed(monkeypatch, tmp_path, case, variant):
    # with libm patched out the bytes rest on IEEE-754 arithmetic and
    # decimal alone, not on the C library
    for name in ("exp", "log", "pow"):
        monkeypatch.setattr(math, name, _no_libm)
    cfg = build_preset(case, variant=variant).cfg
    cfg = dataclasses.replace(cfg, numerics=dataclasses.replace(cfg.numerics, N=50),
                              horizon=0.3, snapshot_times=(0.1, 0.25, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
        sha = emit(stepper.run(cfg), tmp_path).sha256
    assert sha == COMMITTED_SHA256[case, variant], f"{case}-{variant} now hashes to {sha}"


# content-sha256 of ``run --preset <case>`` at the defaults (10 d, N = 200),
# checked on x86-64 as the short-run hashes above were; the session fixtures
# record profiles, which emit does not read
PRESET_SHA256 = {
    "case1": "09996ed194214e93ce79f02be2f21df1757bef04baca1c3272167776db771651",
    "case2": "2f8e51f51ef312fffb189741a51b80abcf4c4978c40ef1e6a9690762a5d3f2ab",
    "case3": "d6de464c5e6a495c56b5cd17026716310269f4f5b184bbf64597aa9f68fb5531",
}


@pytest.mark.filterwarnings("ignore::biofilm1d.errors.BoundaryLayerResolutionWarning")
@pytest.mark.parametrize("case", list(PRESET_SHA256))
def test_preset_hash_matches_committed(request, tmp_path, case):
    sha = emit(request.getfixturevalue(f"{case}_run"), tmp_path).sha256
    assert sha == PRESET_SHA256[case], f"{case} now hashes to {sha}"
