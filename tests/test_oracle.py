import collections
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from biofilm1d import kinetics, oracle
from biofilm1d.errors import (BoundaryLayerResolutionWarning, ConfigError,
                              DetachmentRegime, NoAttachment, NonConvergence,
                              OutOfDomain)
from biofilm1d.model import (BoundaryTrace, ProfileTrace, RunResult,
                             Stoichiometry)
from biofilm1d.oracle import (CharPath, ContractionBox, _ctz,
                              box_from_run, characteristic_trace,
                              estimate_contraction, map_run_to_char_grid,
                              picard_solve, window_root)
from biofilm1d.presets import DEFAULT_T1, build_preset
from biofilm1d.stepper import run
from biofilm1d.traces import BulkTraces, ConstantTrace, TableTrace

CASE1 = build_preset("case1").cfg
CASE2 = build_preset("case2").cfg
CASE3 = build_preset("case3").cfg


def dead_cfg():
    """All reaction rates switched off: the fixed point is pure geometry."""
    species = tuple(dataclasses.replace(sp, mu_max=0.0, k_col=0.0)
                    for sp in CASE1.species)
    return dataclasses.replace(CASE1, species=species)


def with_species(cfg, i, **params):
    """``cfg`` with species ``i`` (0-based) given ``params``."""
    species = list(cfg.species)
    species[i] = dataclasses.replace(species[i], **params)
    return dataclasses.replace(cfg, species=tuple(species))


def with_psi_bulk(cfg, i, trace):
    """``cfg`` with the planktonic bulk trace of species ``i`` replaced."""
    psi_star = list(cfg.bulk.psi_star)
    psi_star[i] = trace
    return dataclasses.replace(
        cfg, bulk=dataclasses.replace(cfg.bulk, psi_star=tuple(psi_star)))


def with_picard(cfg, **numerics):
    """``cfg`` with the given Picard controls (``picard_tol``, ``picard_max_iter``)."""
    return dataclasses.replace(
        cfg, numerics=dataclasses.replace(cfg.numerics, **numerics))


def short_cfg(cfg, horizon, N=100, dt_max=None):
    dt_max = horizon / 50.0 if dt_max is None else dt_max
    nm = dataclasses.replace(cfg.numerics, N=N, dt_max=dt_max)
    return dataclasses.replace(cfg, numerics=nm, horizon=horizon,
                               snapshot_times=())


def fixed_box(n=3, m=3):
    """A contraction box of fixed radii for n species and m substrates."""
    return ContractionBox(h_x=(10.0,) * n, h_s=(1.0,) * m, h_psi=(1.0,) * n,
                          h_L=1e-6, h_c1=1e-6, h_c2=1e-4)


def take_concat_ctz(A, axis, delta):
    """Reference cumulative trapezoid: gathered neighbours, zero row prepended."""
    A = np.asarray(A, dtype=float)
    mids = (np.take(A, range(1, A.shape[axis]), axis=axis)
            + np.take(A, range(0, A.shape[axis] - 1), axis=axis)) * (0.5 * delta)
    zero_shape = list(A.shape)
    zero_shape[axis] = 1
    return np.concatenate([np.zeros(zero_shape), np.cumsum(mids, axis=axis)],
                          axis=axis)


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("shape,axis", [((3, 7, 7), 0), ((3, 7, 7), 1),
                                            ((3, 7, 7), 2), ((7,), 0)])
    def test_bitwise_equal_to_take_concat(self, shape, axis):
        A = np.random.default_rng(11).normal(size=shape)
        np.testing.assert_array_equal(_ctz(A, axis, 0.37),
                                      take_concat_ctz(A, axis, 0.37))

    def test_single_sample_axis_is_one_zero(self):
        A = np.random.default_rng(12).normal(size=(3, 1, 7))
        out = _ctz(A, 1, 0.5)
        np.testing.assert_array_equal(out, take_concat_ctz(A, 1, 0.5))
        np.testing.assert_array_equal(out, np.zeros((3, 1, 7)))
        np.testing.assert_array_equal(_ctz([2.5], 0, 0.1), [0.0])


class TestPicardSolve:
    def test_no_reactions_fixed_point_in_one_sweep(self):
        fields, history = picard_solve(dead_cfg(), T_o=0.02, grid_n=40)
        assert len(history) == 1
        assert history[0] == 0.0
        # constant attachment: interface is exactly linear in t0
        np.testing.assert_allclose(fields.L, 1e-3 * fields.times, atol=1e-18)
        # characteristics do not move without growth
        w = fields.wedge
        expect_c = np.broadcast_to(fields.L[:, None], fields.c.shape)
        np.testing.assert_allclose(fields.c[w], expect_c[w], atol=1e-18)
        np.testing.assert_allclose(fields.c_t0[w], 1e-3, atol=1e-15)

    def test_case1_converges_geometrically(self):
        fields, history = picard_solve(CASE1, T_o=0.02, grid_n=50)
        assert history[-1] < CASE1.numerics.picard_tol
        ratios = [history[k + 1] / history[k]
                  for k in range(1, len(history) - 1) if history[k] > 0]
        assert all(r < 0.2 for r in ratios)
        w = fields.wedge
        assert np.all(fields.c_t0[w] > 0.0)
        assert np.all(fields.x[:, w] >= 0.0)
        assert fields.L[-1] == pytest.approx(2.02e-5, rel=0.02)
        # boundary identity: c(t0, t0) = L(t0)
        idx = np.arange(fields.times.size)
        np.testing.assert_allclose(fields.c[idx, idx], fields.L, atol=1e-20)

    def test_case1_late_ratios_far_below_the_window_bound(self):
        # Criterion 7 allows late ratios up to 1.1 * Lambda(0.02), about 830,
        # a bound no converging iteration can break.  Measured: 9.8e-3,
        # 4.1e-3 and 3.3e-3; this bound is five times the worst of them.
        _, history = picard_solve(CASE1, T_o=0.02, grid_n=50)
        late = [history[k + 1] / history[k] for k in range(1, len(history) - 1)]
        assert len(late) >= 3
        assert max(late) <= 0.05

    def test_uniqueness_witness(self):
        tol = 1e-10
        cfg = with_picard(CASE1, picard_tol=tol)
        a, _ = picard_solve(cfg, T_o=0.01, grid_n=40)
        G1 = a.times.size
        ones = np.ones((G1, G1))
        # a different admissible start: dissolved fields perturbed downward
        zeroth = (a.x * 0.0 + 2500.0, a.s * 0.97, a.psi * 0.95,
                  a.L * 0.0, a.c * 0.0, a.c_t0 * 0.0 + 1e-3 * ones)
        b, _ = picard_solve(cfg, T_o=0.01, grid_n=40, zeroth=zeroth)
        w = a.wedge
        dist = (sum(np.max(np.abs((a.x[i] - b.x[i])[w])) for i in range(3))
                + sum(np.max(np.abs((a.s[j] - b.s[j])[w])) for j in range(3))
                + sum(np.max(np.abs((a.psi[i] - b.psi[i])[w])) for i in range(3))
                + np.max(np.abs(a.L - b.L)) + np.max(np.abs((a.c - b.c)[w]))
                + np.max(np.abs((a.c_t0 - b.c_t0)[w])))
        assert dist <= 10.0 * tol

    def test_detachment_refused(self):
        cfg = dataclasses.replace(CASE1, delta=1e12)
        with pytest.raises(DetachmentRegime):
            picard_solve(cfg, T_o=0.02, grid_n=30)

    def test_supply_ending_inside_the_horizon_refused(self):
        # every attaching species' bulk value drops to 0 at the horizon
        drop = TableTrace((0.0, 0.01, 0.02), (100.0, 100.0, 0.0))
        cfg = dataclasses.replace(
            CASE1, bulk=dataclasses.replace(CASE1.bulk, psi_star=(drop,) * 3))
        with pytest.raises(NoAttachment, match="attachment flux must stay positive"):
            picard_solve(cfg, T_o=0.02, grid_n=10)

    def test_long_horizon_does_not_converge(self):
        with pytest.raises(NonConvergence), np.errstate(all="ignore"):
            picard_solve(with_picard(CASE1, picard_max_iter=60), T_o=5.0, grid_n=40)

    def test_bad_horizon(self):
        for T_o in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon"):
                picard_solve(CASE1, T_o=T_o, grid_n=10)

    @pytest.mark.parametrize("grid_n", [0, -3])
    def test_bad_grid(self, grid_n):
        with pytest.raises(ValueError, match="grid_n"):
            picard_solve(CASE1, T_o=0.02, grid_n=grid_n)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_bad_iteration_cap(self, max_iter):
        with pytest.raises(ConfigError, match="picard_max_iter"):
            picard_solve(with_picard(CASE1, picard_max_iter=max_iter),
                         T_o=0.02, grid_n=10)

    def test_iteration_cap_reached(self):
        # case1 at T_o = 0.02 needs five iterations to meet picard_tol
        with pytest.raises(NonConvergence, match="max_iter") as err:
            picard_solve(with_picard(CASE1, picard_max_iter=3), T_o=0.02, grid_n=50)
        assert err.value.iterations == 3


def full_temporaries_map(cfg, times, mask, X0, S_star, psi_star, Sigma,
                         sigma_a, x, s, psi, ct0):
    """Reference integral map: one fresh full-size array per expression."""
    delta = times[1] - times[0]
    a = cfg.arrays
    rho = a["rho"][:, None, None]

    f = x / rho
    bundle = kinetics.rate_bundle(f, s, psi, cfg)
    G = bundle.G * mask
    F_x = (rho * (bundle.r_M + bundle.r_col) - x * bundle.G) * mask
    r_S = bundle.r_S * mask
    r_Psi = bundle.r_Psi * mask

    idx = np.arange(times.size)

    Cx = _ctz(F_x, axis=2, delta=delta)
    x_new = X0[:, :, None] + Cx - Cx[:, idx, idx][:, :, None]

    g = G * ct0
    def dissolved(rate, Dcoef, bulk_t):
        W = rate * ct0
        I1 = _ctz(W, axis=1, delta=delta)
        V = ct0[None, :, :] * I1
        C2 = _ctz(V, axis=1, delta=delta)
        diag = C2[:, idx, idx]
        return bulk_t[:, None, :] + (diag[:, None, :] - C2) / Dcoef[:, None, None]

    s_new = dissolved(r_S, a["D"], S_star)
    psi_new = dissolved(r_Psi, a["D_psi"], psi_star)

    Ig = _ctz(g, axis=0, delta=delta)
    u_iface = Ig[idx, idx]
    L_new = Sigma + _ctz(u_iface, axis=0, delta=delta)

    Q = _ctz(Ig, axis=1, delta=delta)
    c_new = L_new[:, None] + Q - Q[idx, idx][:, None]
    R = _ctz(g, axis=1, delta=delta)
    ct0_new = sigma_a[:, None] + R - R[idx, idx][:, None]

    return x_new, s_new, psi_new, L_new, c_new, ct0_new


def boolean_index_distance(mask, old, new):
    """Reference iterate distance: sup over boolean-indexed copies."""
    total = 0.0
    for A, B in zip(old, new):
        if A.ndim == 1:
            total += float(np.max(np.abs(B - A)))
        else:
            diff = np.abs(B - A)
            if diff.ndim == 3:
                for comp in diff:
                    total += float(np.max(comp[mask]))
            else:
                total += float(np.max(diff[mask]))
    return total


def solve_with_reference_map(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_iterate_map", full_temporaries_map)
        mp.setattr(oracle, "_distance", boolean_index_distance)
        return picard_solve(*args, **kwargs)


def assert_bitwise_equal(a, b):
    """Equal bit patterns: signs of zero and NaN payloads included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_solve(got, ref):
    (fields, history), (ref_fields, ref_history) = got, ref
    for name in ("times", "x", "s", "psi", "c", "c_t0", "L"):
        assert_bitwise_equal(getattr(fields, name), getattr(ref_fields, name))
    assert_bitwise_equal(history, ref_history)


class TestBoundedTemporaries:
    @pytest.mark.parametrize("cfg, T_o, grid_n", [
        (CASE1, 0.02, 50), (CASE2, 5e-4, 60), (CASE3, 5e-4, 60),
        (with_species(CASE2, 1, k_col=0.0), 5e-4, 60),
        (with_psi_bulk(CASE1, 2, ConstantTrace(-0.0)), 0.02, 50),
    ], ids=["case1", "case2", "case3", "case2-species2-no-colonization",
            "case1-psi3-minus-zero"])
    def test_bitwise_equal_to_reference_map(self, monkeypatch, cfg, T_o, grid_n):
        got = picard_solve(cfg, T_o=T_o, grid_n=grid_n)
        ref = solve_with_reference_map(monkeypatch, cfg, T_o=T_o, grid_n=grid_n)
        assert_same_solve(got, ref)
        assert len(got[1]) > 2
        # a planktonic field leaves its bulk value exactly where its species
        # colonizes from a nonzero bulk
        fields, w = got[0], got[0].wedge
        bulk = np.stack([cfg.psi_star(t) for t in fields.times], axis=1)
        for psi, b, k_col in zip(fields.psi, bulk, cfg.arrays["k_col"]):
            kept = np.array_equal(psi[w], np.broadcast_to(b, psi.shape)[w])
            assert kept == (k_col == 0.0 or not b.any())

    def test_zeroth_start_bitwise_equal_and_untouched(self, monkeypatch):
        a, _ = picard_solve(CASE1, T_o=0.01, grid_n=40)
        G1 = a.times.size
        zeroth = (a.x * 0.0 + 2500.0, a.s * 0.97, a.psi * 0.95,
                  a.L * -0.0, a.c * -0.0, np.full((G1, G1), 1e-3))
        before = [z.copy() for z in zeroth]
        got = picard_solve(CASE1, T_o=0.01, grid_n=40, zeroth=zeroth)
        ref = solve_with_reference_map(monkeypatch, CASE1, T_o=0.01, grid_n=40,
                                       zeroth=zeroth)
        assert_same_solve(got, ref)
        for z, z0 in zip(zeroth, before):
            assert_bitwise_equal(z, z0)

    def test_peak_memory_bounded(self):
        grid_n = 100
        picard_solve(CASE1, T_o=0.02, grid_n=grid_n)   # fill lazy caches first
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            picard_solve(CASE1, T_o=0.02, grid_n=grid_n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # bytes of one (n, G+1, G+1) array; the two iterates are about 7.3
        # and one step measured 8.9
        array_bytes = CASE1.n * (grid_n + 1) ** 2 * 8
        assert peak - base <= 9.5 * array_bytes


def per_point_boundary_data(cfg, times):
    """Reference boundary data: the kinetics called at every time point."""
    psi_b = np.stack([cfg.psi_star(t) for t in times], axis=1)
    S_b = np.stack([cfg.s_star(t) for t in times], axis=1)
    sigma_a = np.array([kinetics.attachment_flux(psi_b[:, k], cfg)
                        for k in range(len(times))])
    X0 = np.stack([cfg.arrays["rho"] * kinetics.inflow_fractions(psi_b[:, k], cfg)
                   for k in range(len(times))], axis=1)
    return psi_b, S_b, sigma_a, X0


# Across the printed ramp's arrival at t1, with species 1 at -0.0 up to
# t = 0.17 and +0.0 from 0.23 and species 2 rising: every bulk state differs.
ARRIVAL = with_psi_bulk(with_psi_bulk(
    CASE1, 0, TableTrace((0.17, 0.23), (-0.0, 0.0))),
    1, TableTrace((0.0, 1.0), (50.0, 150.0)))
ARRIVAL_TIMES = DEFAULT_T1 + np.linspace(-0.05, 0.05, 101)


def count_calls(monkeypatch, module, *names):
    """Count the calls of ``module``'s functions ``names`` from now on."""
    calls = collections.Counter()

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


class TestKnownWorkSkipped:
    @pytest.mark.parametrize("cfg, times, states", [
        (CASE1, np.linspace(0.0, 0.02, 301), 1),
        (ARRIVAL, ARRIVAL_TIMES, ARRIVAL_TIMES.size),
    ], ids=["case1-one-state", "arrival-every-state"])
    def test_boundary_data_bitwise_equal_to_per_point(self, monkeypatch, cfg,
                                                      times, states):
        ref = per_point_boundary_data(cfg, times)
        calls = count_calls(monkeypatch, oracle, "attachment_flux", "inflow_fractions")
        got = oracle._boundary_data(cfg, times)
        for a, b in zip(got, ref):
            assert_bitwise_equal(a, b)
        # once per distinct bulk state
        assert calls == {"attachment_flux": states, "inflow_fractions": states}
        if cfg is ARRIVAL:
            assert np.signbit(got[0][0, times <= 0.17]).all()
            assert not np.signbit(got[0][0, times >= 0.23]).any()

    def test_case1_picard_call_counts(self, monkeypatch):
        calls = count_calls(monkeypatch, oracle, "_ctz", "attachment_flux",
                            "inflow_fractions")
        _, history = picard_solve(CASE1, T_o=0.02, grid_n=50)
        # Sigma once, then per iteration x, the substrates' double integral,
        # u_L, L, c and c_t0; no species colonizes, so the planktonic double
        # integral never runs
        assert calls["_ctz"] == 1 + 7 * len(history)
        assert calls["attachment_flux"] == calls["inflow_fractions"] == 1


def synthetic_run(times, L_of_t, c_of=None, N=40):
    """RunResult carrying hand-made records: record k holds one parcel per
    distinct record time up to ``times[k]``, on the exact characteristic
    ``c_of(t0, t)`` (parcels at rest by default), over the substratum; a
    parcel's one fraction is its launch time."""
    times = np.asarray(times, float)
    L = np.array([L_of_t(t) for t in times])
    c_of = c_of or (lambda t0, t: L_of_t(t0))
    parcel_z, parcel_t0 = [], []
    for k, t in enumerate(times):
        launched = np.unique(times[:k + 1])
        parcel_t0.append(np.concatenate(([-1.0], launched)))
        parcel_z.append(np.concatenate(([0.0], [c_of(t0, t) for t0 in launched])))
    S = np.zeros((times.size, 1, N + 1))
    Psi = np.zeros((times.size, 1, N + 1))
    profiles = ProfileTrace(S=S, Psi=Psi, parcel_z=tuple(parcel_z),
                            parcel_t0=tuple(parcel_t0),
                            parcel_f=tuple(t0[None, :] for t0 in parcel_t0))
    boundary = BoundaryTrace(t=times, L=L,
                             sigma_a=np.full(times.size, 1e-3),
                             sigma_d=np.zeros(times.size),
                             u_L=np.zeros(times.size),
                             sum_f_drift=np.zeros(times.size))
    return RunResult(cfg=CASE1, snapshots=[], boundary=boundary,
                     profiles=profiles)


def growth_run(times):
    """Synthetic run whose paths move: u = 3 z on a growing interface."""
    L_of_t = lambda t: 1e-4 * math.exp(4.0 * t)
    return synthetic_run(times, L_of_t,
                         lambda t0, t: L_of_t(t0) * math.exp(3.0 * (t - t0)))


def recorded(res):
    """The boundary rows' ``t`` and ``L`` over the recorded span: record k
    is boundary row k."""
    k = len(res.profiles.parcel_z)
    return res.boundary.t[:k], res.boundary.L[:k]


@pytest.fixture(scope="module")
def case1_recorded():
    return run(short_cfg(CASE1, 0.02, N=50), record_profiles=True)


class TestCharacteristicTrace:
    def test_zero_velocity_path_is_constant(self):
        times = np.linspace(0.0, 1.0, 101)
        res = synthetic_run(times, lambda t: 1e-4)
        path = characteristic_trace(res, t0=0.2)
        np.testing.assert_allclose(path.z, 1e-4, rtol=1e-14)

    def test_linear_velocity_exponential_path(self):
        # u = g z and an interface outrunning the flow: z(t) = L(t0) e^{g(t-t0)};
        # an off-grid launch is interpolated between two labelled parcels
        g = 0.8
        times = np.linspace(0.0, 1.0, 401)
        L_of_t = lambda t: 2e-4 * math.exp(2 * g * (t - 0.1))
        res = synthetic_run(times, L_of_t,
                            lambda t0, t: L_of_t(t0) * math.exp(g * (t - t0)))
        for t0 in (0.1, 0.1037):
            path = characteristic_trace(res, t0=t0)
            exact = L_of_t(t0) * np.exp(g * (path.t - t0))
            np.testing.assert_allclose(path.z, exact, rtol=1e-5)
            # the fraction (here the label) interpolates to the launch time;
            # the launch clamps to the top parcel of the record before it
            np.testing.assert_allclose(path.f[:, 1:], t0, rtol=1e-14)
            assert path.f[0, 0] == times[np.searchsorted(times, t0, "right") - 1]

    def test_requires_profiles(self):
        times = np.linspace(0.0, 1.0, 11)
        res = synthetic_run(times, lambda t: 1e-4)
        bare = RunResult(cfg=res.cfg, snapshots=[], boundary=res.boundary,
                         profiles=None)
        with pytest.raises(OutOfDomain):
            characteristic_trace(bare, t0=0.5)

    def test_out_of_span_rejected(self):
        times = np.linspace(0.0, 1.0, 11)
        res = synthetic_run(times, lambda t: 1e-4)
        with pytest.raises(OutOfDomain):
            characteristic_trace(res, t0=2.0)
        with pytest.raises(OutOfDomain):
            characteristic_trace(res, t0=0.5, t_end=1.5)

    def test_path_stays_inside_domain(self, case1_recorded):
        pt, pL = recorded(case1_recorded)
        for path in characteristic_trace(case1_recorded, pt[::5]):
            assert np.all(path.z >= 0.0)
            assert np.all(path.z <= np.interp(path.t, pt, pL))

    def test_path_ends_where_detachment_sheds_its_parcel(self):
        # strong erosion: the interface stalls near 1e-5 m and recedes
        # through the material, so the early parcels leave through the top
        cfg = dataclasses.replace(short_cfg(CASE1, 0.1, N=50, dt_max=5e-4),
                                  delta=1e7)
        res = run(cfg, record_profiles=True)
        profiles, (pt, _) = res.profiles, recorded(res)
        top = np.array([labels[-1] for labels in profiles.parcel_t0])
        assert not res.boundary.attachment[-1]
        for t0 in (0.02, 0.0213, 0.025):
            path = characteristic_trace(res, t0)
            k_last = int(np.searchsorted(pt, path.t[-1]))
            assert pt[k_last] == path.t[-1] < pt[-1]
            # alive at every record it visits, shed at the next one
            assert np.all(t0 <= top[np.searchsorted(pt, path.t[1:])])
            assert t0 > top[k_last + 1]
        # the deepest material stays; the last parcels attached leave first
        assert characteristic_trace(res, 0.005).t[-1] == pt[-1]
        assert characteristic_trace(res, 0.025).t[-1] < 0.05

    @pytest.mark.filterwarnings("ignore::biofilm1d.errors.BoundaryLayerResolutionWarning")
    def test_end_within_the_clock_tolerance_of_a_record_is_that_record(self):
        # the clock reaches 1.05 d a few ulps early; that record is t_end,
        # not a node a few ulps before a second, interpolated one
        cfg = dataclasses.replace(CASE1, numerics=dataclasses.replace(CASE1.numerics, N=16),
                                  horizon=1.06, snapshot_times=())
        res = run(cfg, record_profiles=True)
        pt, _ = recorded(res)
        k = int(np.argmin(np.abs(pt - 1.05)))
        assert pt[k] != 1.05 and abs(pt[k] - 1.05) < 1e-13
        path = characteristic_trace(res, 0.5, 1.05)
        np.testing.assert_array_equal(path.t[-2:], pt[k - 1:k + 1])


class TestArrayLaunch:
    def assert_matches_scalar_calls(self, res, t0s, t_end=None):
        paths = characteristic_trace(res, np.asarray(t0s, dtype=float), t_end)
        assert isinstance(paths, list) and len(paths) == len(t0s)
        for t0, path in zip(t0s, paths):
            single = characteristic_trace(res, float(t0), t_end)
            assert isinstance(single, CharPath)
            np.testing.assert_array_equal(path.t, single.t)
            np.testing.assert_array_equal(path.z, single.z)
            np.testing.assert_array_equal(path.f, single.f)
            assert path.f.shape == (res.profiles.parcel_f[0].shape[0], path.t.size)
            assert path.t[0] == t0
        return paths

    def test_char_grid_launches_on_recorded_run(self, case1_recorded):
        times = np.linspace(0.0, 0.02, 26)
        paths = self.assert_matches_scalar_calls(case1_recorded, times,
                                                 float(times[-1]))
        assert all(path.t[-1] == times[-1] for path in paths)
        assert np.ptp(characteristic_trace(case1_recorded, 0.0).z) > 0.0

    def test_launch_on_a_record_time(self, case1_recorded):
        # the path is the parcel labelled with that time, bitwise: its
        # position after the launch, its fractions from the launch on
        profiles, (pt, _) = case1_recorded.profiles, recorded(case1_recorded)
        ks = [0, 1, 7, pt.size - 2, pt.size - 1]
        paths = self.assert_matches_scalar_calls(case1_recorded, pt[ks])
        for k, path in zip(ks, paths):
            np.testing.assert_array_equal(path.t, pt[k:])
            for j in range(k, pt.size):
                mine = profiles.parcel_t0[j] == pt[k]
                assert mine.sum() == 1
                assert path.z[j - k] == profiles.parcel_z[j][mine][0]
                assert_bitwise_equal(path.f[:, j - k], profiles.parcel_f[j][:, mine][:, 0])

    def test_end_between_record_times(self, case1_recorded):
        profiles, (pt, _) = case1_recorded.profiles, recorded(case1_recorded)
        t_end = 0.5 * (pt[-3] + pt[-2])
        self.assert_matches_scalar_calls(
            case1_recorded, [pt[0], 0.5 * (pt[1] + pt[2]), pt[-3],
                             0.5 * (pt[-3] + t_end), t_end], t_end)
        path = characteristic_trace(case1_recorded, float(pt[1]), t_end)
        assert path.t[-1] == t_end and path.t[-2] == pt[-3]
        # linear in time between the last record and the parcel at the next
        mine = profiles.parcel_t0[pt.size - 2] == pt[1]
        z_next = profiles.parcel_z[pt.size - 2][mine][0]
        assert path.z[-1] == pytest.approx(0.5 * (path.z[-2] + z_next), rel=1e-12)
        assert path.z[-2] < path.z[-1] < z_next
        f_next = profiles.parcel_f[pt.size - 2][:, mine][:, 0]
        np.testing.assert_allclose(path.f[:, -1], 0.5 * (path.f[:, -2] + f_next),
                                   rtol=1e-12, atol=1e-300)

    def test_launch_at_end_is_a_point(self, case1_recorded):
        profiles, (pt, pL) = case1_recorded.profiles, recorded(case1_recorded)
        for t, k in ((float(pt[-1]), pt.size - 1), (0.5 * (pt[4] + pt[5]), 4)):
            path = characteristic_trace(case1_recorded, t, t)
            np.testing.assert_array_equal(path.t, [t])
            np.testing.assert_array_equal(path.z, [np.interp(t, pt, pL)])
            # fractions of the last record at or before the launch, whose
            # top parcel is the nearest label below it
            np.testing.assert_array_equal(path.f, profiles.parcel_f[k][:, -1:])
            self.assert_matches_scalar_calls(case1_recorded, [t], t)

    def test_synthetic_runs(self):
        times = np.linspace(0.0, 1.0, 101)
        flat = synthetic_run(times, lambda t: 1e-4)
        self.assert_matches_scalar_calls(flat, [0.0, 0.2, 0.205, 1.0])
        self.assert_matches_scalar_calls(growth_run(times),
                                         np.linspace(0.0, 0.9, 31), 0.95)

    def test_repeated_record_times(self):
        times = np.array([0.0, 0.1, 0.2, 0.2, 0.3, 0.4, 0.4, 0.5])
        res = growth_run(times)
        for path in self.assert_matches_scalar_calls(
                res, [0.0, 0.15, 0.2, 0.35, 0.4], 0.45):
            assert np.all(np.diff(path.t) > 0.0)
        path = characteristic_trace(res, 0.0, 0.45)
        np.testing.assert_array_equal(path.t, [0.0, 0.1, 0.2, 0.3, 0.4, 0.45])

    def test_empty_launches(self, case1_recorded):
        assert characteristic_trace(case1_recorded, np.array([])) == []

    def test_launches_outside_span_rejected(self):
        times = np.linspace(0.0, 1.0, 11)
        res = growth_run(times)
        for bad in ([0.2, 1.5], [-0.1, 0.5], [0.2, 0.9]):
            with pytest.raises(OutOfDomain, match="recorded time span"):
                characteristic_trace(res, np.array(bad), t_end=0.8)
        with pytest.raises(OutOfDomain, match="recorded time span"):
            characteristic_trace(res, np.array([0.2]), t_end=1.5)

    def test_array_requires_profiles(self):
        times = np.linspace(0.0, 1.0, 11)
        res = growth_run(times)
        bare = RunResult(cfg=res.cfg, snapshots=[], boundary=res.boundary,
                         profiles=None)
        for launches in (np.array([0.2, 0.5]), np.array([])):
            with pytest.raises(OutOfDomain, match="dense profiles"):
                characteristic_trace(bare, launches)


def per_point_map(run_output, times):
    """Reference sampler, one (t0, t) at a time, read from the parcels: the
    path nodes are the launch (``L(t0)`` and the fractions of the last record
    at or before t0) and every record after t0, where the label t0 is
    interpolated between its parcels; t is blended linearly in time between
    the two nodes around it.  Assumes no parcel is shed."""
    profiles, (pt, pL) = run_output.profiles, recorded(run_output)
    rho = run_output.cfg.arrays["rho"]
    G1 = times.size

    def at(k, t0):
        """(z, f_1, ..., f_n) of the label t0 at record k."""
        labels = profiles.parcel_t0[k]
        return [np.interp(t0, labels, profiles.parcel_z[k])] + [
            np.interp(t0, labels, fi) for fi in profiles.parcel_f[k]]

    x = np.zeros((rho.size, G1, G1))
    c = np.zeros((G1, G1))
    for i, t0 in enumerate(times):
        k0 = int(np.searchsorted(pt, t0, side="right")) - 1
        launch = [np.interp(t0, pt, pL)] + at(k0, t0)[1:]
        after = np.flatnonzero(pt > t0)
        node_t = np.concatenate(([t0], pt[after]))
        for j in range(i, G1):
            m = int(np.searchsorted(node_t, times[j], side="right")) - 1
            lo = launch if m == 0 else at(after[m - 1], t0)
            if node_t[m] == times[j] or m + 1 == node_t.size:
                v = lo
            else:
                hi = at(after[m], t0)
                v = [np.interp(times[j], node_t[m:m + 2], pair) for pair in zip(lo, hi)]
            c[i, j] = v[0]
            x[:, i, j] = rho * np.array(v[1:])
    return x, c, np.interp(times, pt, pL)


class TestMapRunToCharGrid:
    def test_bitwise_equal_to_per_point_sampling(self, case1_recorded):
        res = case1_recorded
        assert res.boundary.attachment.all()
        times = np.linspace(0.0, 0.02, 26)
        x, c, L = map_run_to_char_grid(res, times)
        x_ref, c_ref, L_ref = per_point_map(res, times)
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(c, c_ref)
        np.testing.assert_array_equal(L, L_ref)
        below = np.tril(np.ones((times.size, times.size), dtype=bool), k=-1)
        assert np.all(c[below] == 0.0)
        assert np.all(x[:, below] == 0.0)
        # the sampled wedge is not trivially zero
        assert np.all(c[~below] > 0.0)
        assert np.all(x[0][~below] > 0.0)

    def test_requires_profiles(self):
        times = np.linspace(0.0, 1.0, 11)
        res = synthetic_run(times, lambda t: 1e-4)
        bare = RunResult(cfg=res.cfg, snapshots=[], boundary=res.boundary,
                         profiles=None)
        with pytest.raises(OutOfDomain):
            map_run_to_char_grid(bare, times)

    def test_third_species_absent_before_its_arrival(self):
        # case1 past the arrival t1 of species 3: every parcel launched
        # before t1 carries none of it, so its x3 row is exactly zero
        res = run(short_cfg(CASE1, 0.3, N=50, dt_max=2e-3), record_profiles=True)
        times = np.linspace(0.0, 0.3, 31)
        x, _, _ = map_run_to_char_grid(res, times)
        before = times < DEFAULT_T1
        assert np.all(x[2][before] == 0.0)
        assert np.max(x[2][~before]) > 0.0

    def test_path_shed_before_the_last_time_rejected(self):
        # strong erosion sheds the parcel launched at 0.02 d before 0.1 d;
        # holding its last value would sample material no longer there
        cfg = dataclasses.replace(short_cfg(CASE1, 0.1, N=50, dt_max=5e-4),
                                  delta=1e7)
        res = run(cfg, record_profiles=True)
        with pytest.raises(OutOfDomain, match=r"launched at 0\.02 is shed at 0\.05"):
            map_run_to_char_grid(res, np.linspace(0.0, 0.1, 11))


class TestContractionEstimate:
    def test_window_root_values(self):
        assert window_root(0.0, 0.0) == math.inf
        assert window_root(0.0, 2.0) == 0.5
        # quadratic-only: doubling the slopes shrinks the root by sqrt(2)
        assert window_root(2.0, 0.0) == pytest.approx(window_root(1.0, 0.0) / math.sqrt(2))
        # full quadratic root satisfies its own equation
        r = window_root(3.0, 0.5)
        assert 3.0 * r * r + 0.5 * r == pytest.approx(1.0, rel=1e-12)
        # b^2 >> 4a: the root keeps its digits, where -b + sqrt(b^2 + 4a)
        # cancelled to 1.137e-3 and to 0.0
        r = window_root(1e-10, 1e3)
        assert 1e-10 * r * r + 1e3 * r == pytest.approx(1.0, rel=1e-12)
        assert window_root(1e-300, 1.0) == 1.0

    def test_zero_rates_unbounded_by_contraction(self):
        box = fixed_box()
        est = estimate_contraction(dead_cfg(), box, t_max=0.05)
        assert est.a == 0.0 and est.b == 0.0
        np.testing.assert_array_equal(est.M_x, np.zeros(3))
        assert est.M_L == 0.0
        assert math.isinf(est.T_star)

    def test_case1_window_is_positive_and_self_consistent(self):
        res = run(short_cfg(CASE1, 0.05), record_profiles=True)
        box = box_from_run(res)
        est = estimate_contraction(CASE1, box, t_max=0.05)
        assert est.T_star > 0.0
        # the window is the least cap, shrunk by the 1 percent safety margin
        assert est.T_star == 0.99 * min(est.caps.values())
        lam = est.contraction_factor(est.T_star)
        assert lam < 1.0
        # iterating inside the window must contract at least as claimed
        T_o = est.T_star / 2.0
        fields, history = picard_solve(CASE1, T_o=T_o, grid_n=60)
        assert history[-1] < CASE1.numerics.picard_tol
        lam_o = est.contraction_factor(T_o)
        assert lam_o < 1.0
        ratios = [history[k + 1] / history[k]
                  for k in range(1, len(history) - 1) if history[k] > 0]
        if ratios:
            assert max(ratios) <= 1.1 * lam_o

    def test_box_requires_profiles(self):
        bare = dataclasses.replace(synthetic_run(np.linspace(0.0, 1.0, 11), lambda t: 1e-4),
                                   profiles=None)
        with pytest.raises(OutOfDomain, match="not recorded with dense profiles"):
            box_from_run(bare)

    def test_box_reads_only_the_recorded_rows(self):
        # a run recorded to 0.05 d of 0.2 d: every bound covers the recorded
        # span, as if the boundary trace ended there
        cfg = dataclasses.replace(CASE1, horizon=0.2, snapshot_times=())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
            res = run(cfg, record_profiles=True, profile_t_max=0.05)
        k = len(res.profiles.parcel_z)
        assert k < res.boundary.t.size
        cut = BoundaryTrace(*(getattr(res.boundary, f.name)[:k]
                              for f in dataclasses.fields(BoundaryTrace)))
        got = box_from_run(res)
        ref = box_from_run(dataclasses.replace(res, boundary=cut))
        for name in ("h_x", "h_s", "h_psi", "h_L", "h_c1", "h_c2"):
            assert_bitwise_equal(getattr(got, name), getattr(ref, name))

    def test_estimate_is_deterministic(self):
        box = fixed_box()
        a = estimate_contraction(CASE1, box, t_max=0.01)
        b = estimate_contraction(CASE1, box, t_max=0.01)
        assert a.a == b.a and a.b == b.b and a.T_star == b.T_star


def reference_estimate_contraction(cfg, box, t_max, seed=0):
    """Reference window: each component's cap and slope sum written out by
    hand, one block per kernel.

    Bounds ``M`` come from dense random sampling of the kernels over the box
    (4096 points plus its corners); Lipschitz constants come from symmetric
    difference quotients along each argument, taking the worst sample.  The
    window ``T_star`` is the least of the per-component caps and the positive
    root of the contraction condition, shrunk by a 1 percent safety margin.
    """
    a_ = cfg.arrays
    n, m = cfg.n, cfg.m
    tgrid = np.linspace(0.0, max(t_max, 1e-12), 257)

    psi_b, S_b, sig, X0 = oracle._boundary_data(cfg, tgrid)

    lo = np.concatenate([
        np.maximum(X0.min(axis=1) - np.asarray(box.h_x), 0.0),
        np.maximum(S_b.min(axis=1) - np.asarray(box.h_s), 0.0),
        np.maximum(psi_b.min(axis=1) - np.asarray(box.h_psi), 0.0),
        [max(sig.min() - box.h_c2, 0.0)],
    ])
    hi = np.concatenate([
        X0.max(axis=1) + np.asarray(box.h_x),
        S_b.max(axis=1) + np.asarray(box.h_s),
        psi_b.max(axis=1) + np.asarray(box.h_psi),
        [sig.max() + box.h_c2],
    ])
    dim = lo.size
    rng = np.random.default_rng(seed)
    pts = lo + (hi - lo) * rng.random((4096, dim))
    # Corner points sharpen the bound estimates for monotone kernels.
    if dim <= 12:
        corners = np.array(np.meshgrid(*[(l, h) for l, h in zip(lo, hi)],
                                       indexing="ij")).reshape(dim, -1).T
        pts = np.vstack([pts, corners])

    sl_x = slice(0, n)
    sl_s = slice(n, n + m)
    sl_psi = slice(n + m, n + m + n)
    i_c = n + m + n

    def kernels(P):
        x = P[:, sl_x].T
        s = P[:, sl_s].T
        psi = P[:, sl_psi].T
        ct0 = P[:, i_c]
        f = x / a_["rho"][:, None]
        bundle = kinetics.rate_bundle(f, s, psi, cfg)
        F_x = a_["rho"][:, None] * (bundle.r_M + bundle.r_col) - x * bundle.G
        F_s = bundle.r_S * ct0[None, :] ** 2 / a_["D"][:, None]
        F_psi = bundle.r_Psi * ct0[None, :] ** 2 / a_["D_psi"][:, None]
        F_geo = bundle.G * ct0
        return F_x, F_s, F_psi, F_geo

    F_x, F_s, F_psi, F_geo = kernels(pts)
    M_x = np.max(np.abs(F_x), axis=1)
    M_s = np.max(np.abs(F_s), axis=1)
    M_psi = np.max(np.abs(F_psi), axis=1)
    M_geo = float(np.max(np.abs(F_geo)))

    lam_x = np.zeros(n)
    lam_s = np.zeros(m)
    lam_psi = np.zeros(n)
    lam_geo = 0.0
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
        Fxp, Fsp, Fpp, Fgp = kernels(plus)
        Fxm, Fsm, Fpm, Fgm = kernels(minus)
        scale = 1.0 / (2.0 * step)
        # The x-kernel ignores ct0; the dissolved kernels ignore the
        # arguments outside their signature, so slopes there are zero anyway.
        lam_x = np.maximum(lam_x, np.max(np.abs(Fxp - Fxm), axis=1) * scale)
        lam_s = np.maximum(lam_s, np.max(np.abs(Fsp - Fsm), axis=1) * scale)
        lam_psi = np.maximum(lam_psi, np.max(np.abs(Fpp - Fpm), axis=1) * scale)
        lam_geo = max(lam_geo, float(np.max(np.abs(Fgp - Fgm))) * scale)

    a_sum = float(np.sum(lam_s) + np.sum(lam_psi) + lam_geo + 2.0 * lam_geo)
    b_sum = float(np.sum(lam_x) + lam_geo)

    def cap_div(h, M):
        return math.inf if M == 0.0 else h / M

    def cap_sqrt(h, M):
        return math.inf if M == 0.0 else math.sqrt(h / M)

    caps = {}
    for i in range(n):
        caps[f"x{i + 1}"] = cap_div(box.h_x[i], M_x[i])
    for j in range(m):
        caps[f"s{j + 1}"] = cap_sqrt(box.h_s[j], M_s[j])
    for i in range(n):
        caps[f"psi{i + 1}"] = cap_sqrt(box.h_psi[i], M_psi[i])
    caps["L"] = cap_sqrt(box.h_L, M_geo)
    caps["c1"] = math.inf if M_geo == 0.0 else math.sqrt(box.h_c1 / (2.0 * M_geo))
    caps["c2"] = cap_div(box.h_c2, M_geo)
    caps["contraction"] = window_root(a_sum, b_sum)

    T_min = min(caps.values())
    T_star = T_min if math.isinf(T_min) else 0.99 * T_min

    return oracle.ContractionEstimate(
        M_x=M_x, M_s=M_s, M_psi=M_psi, M_L=M_geo, a=a_sum, b=b_sum, caps=caps,
        T_star=T_star, samples=pts.shape[0])


@pytest.fixture(scope="module")
def run_boxes():
    """Each preset with the ``box_from_run`` box of its 0.05 d run."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
        return {name: (cfg, box_from_run(run(short_cfg(cfg, 0.05), record_profiles=True)))
                for name, cfg in (("case1", CASE1), ("case2", CASE2), ("case3", CASE3))}


def assert_same_estimate(got, ref):
    for name in ("M_x", "M_s", "M_psi", "M_L", "a", "b", "T_star"):
        assert_bitwise_equal(getattr(got, name), getattr(ref, name))
    assert got.samples == ref.samples
    assert list(got.caps) == list(ref.caps)
    assert_bitwise_equal(list(got.caps.values()), list(ref.caps.values()))


def two_species_one_substrate():
    """Species 1 and 2 of case1, both limited by substrate 1."""
    return dataclasses.replace(
        CASE1, species=CASE1.species[:2], substrates=CASE1.substrates[:1],
        bulk=BulkTraces(CASE1.bulk.psi_star[:2], CASE1.bulk.s_star[:1]),
        stoichiometry=Stoichiometry((0, 0), ((-1.0, -1.0),)))


class TestContractionTable:
    """The window computed from one table of the map's components equals
    the one written out by hand, bit for bit."""

    @pytest.mark.parametrize("case, seed", [("case1", 0), ("case1", 3),
                                            ("case2", 0), ("case3", 0)])
    def test_run_boxes_bitwise_equal_to_reference(self, run_boxes, case, seed):
        cfg, box = run_boxes[case]
        assert_same_estimate(estimate_contraction(cfg, box, 0.05, seed=seed),
                             reference_estimate_contraction(cfg, box, 0.05, seed=seed))

    @pytest.mark.parametrize("cfg", [CASE1, dead_cfg()], ids=["case1", "dead"])
    def test_fixed_box_bitwise_equal_to_reference(self, cfg):
        assert_same_estimate(estimate_contraction(cfg, fixed_box(), 0.05),
                             reference_estimate_contraction(cfg, fixed_box(), 0.05))

    @pytest.mark.parametrize("radius, cap", [("h_L", "L"), ("h_c1", "c1")])
    def test_outer_radius_scales_its_own_cap_as_a_double_integral(self, radius, cap):
        # h_L and h_c1 lie outside the sampled box: four times the radius
        # doubles their own cap, and nothing else moves
        box = fixed_box()
        base = estimate_contraction(CASE1, box, 0.01)
        wide = estimate_contraction(
            CASE1, dataclasses.replace(box, **{radius: 4.0 * getattr(box, radius)}), 0.01)
        assert wide.caps[cap] == 2.0 * base.caps[cap]
        for name in ("M_x", "M_s", "M_psi", "M_L", "a", "b"):
            assert_bitwise_equal(getattr(wide, name), getattr(base, name))
        assert {k: v for k, v in wide.caps.items() if k != cap} == \
            {k: v for k, v in base.caps.items() if k != cap}

    def test_cap_names_follow_the_network(self):
        est = estimate_contraction(two_species_one_substrate(), fixed_box(2, 1), 0.01)
        assert list(est.caps) == ["x1", "x2", "s1", "psi1", "psi2",
                                  "L", "c1", "c2", "contraction"]
