import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from biofilm1d import configio, elliptic, kinetics, stepper
from biofilm1d.errors import (Biofilm1dError, BoundaryLayerResolutionWarning, NoAttachment,
                              NumericalBlowup)
from biofilm1d.kinetics import (RateBundle, attachment_flux, detachment_flux,
                                inflow_fractions)
from biofilm1d.model import (CONSTRAINT_TOL, TIME_TOL, NumericsConfig, ScenarioConfig,
                             SpeciesParams, Stoichiometry, SubstrateParams, attaching,
                             validate_config)
from biofilm1d.oracle import characteristic_trace
from biofilm1d.presets import build_preset
from biofilm1d.stepper import _Parcels, _seed, compute_velocity, run
from biofilm1d.traces import (RAMP_VARIANTS, BulkTraces, ConstantTrace, RampTrace,
                              TableTrace)

CASE1 = build_preset("case1").cfg


def small_case1(horizon=0.05, snapshots=(0.025, 0.05), N=48, dt_max=5e-4):
    nm = dataclasses.replace(CASE1.numerics, N=N, dt_max=dt_max)
    return dataclasses.replace(CASE1, numerics=nm, horizon=horizon,
                               snapshot_times=tuple(snapshots))


def two_species_cfg(v_a=(0.0, 0.0), psi=(0.0, 0.0), delta=0.0):
    species = tuple(SpeciesParams(mu_max=0.0, K=1.0, Y=0.5, rho=1000.0, v_a=v,
                                  k_col=0.0, Y_psi=1.0, D_psi=1e-5)
                    for v in v_a)
    return ScenarioConfig(
        species=species, substrates=(SubstrateParams(1e-5),),
        delta=delta,
        bulk=BulkTraces(psi_star=tuple(ConstantTrace(p) for p in psi),
                        s_star=(ConstantTrace(100.0),)),
        stoichiometry=Stoichiometry(substrate_of=(0,) * len(v_a),
                                    production=((-1.0,) * len(v_a),)),
        numerics=NumericsConfig(N=16), horizon=1.0, snapshot_times=())


def tiny_share_case2():
    """case2 whose third inflow share, v_a psi = 1e-21 against about 2.2, is
    below rounding: the closure folded into it came out at -2.2e-16."""
    case2 = build_preset("case2").cfg
    return dataclasses.replace(
        case2, species=tuple(dataclasses.replace(sp, v_a=v)
                             for sp, v in zip(case2.species, (0.03, 0.02, 0.1))),
        bulk=dataclasses.replace(case2.bulk, psi_star=tuple(
            ConstantTrace(p) for p in (55.263, 26.827, 1e-20))),
        numerics=dataclasses.replace(case2.numerics, N=50), horizon=0.05,
        snapshot_times=(0.0, 0.01, 0.05))


TINY_SHARE = tiny_share_case2()


def dipping_start_case():
    """A substrate that vanishes after a pulse: the extrapolated Newton start
    of the last step dips to about -1e-14, and a Newton started there meets
    its stop with no iteration, so only the projection of the start keeps
    the emitted substrate non-negative."""
    species = tuple(dataclasses.replace(sp, v_a=v, k_col=0.0)
                    for sp, v in zip(build_preset("case2").cfg.species, (0.025, 0.0)))
    return dataclasses.replace(
        CASE1, species=species, substrates=CASE1.substrates[:1], delta=0.0,
        bulk=BulkTraces((ConstantTrace(1.0), ConstantTrace(0.0)),
                        (TableTrace((0.0, 1e-30, 0.015625), (0.0, 1.0, 0.0)),)),
        stoichiometry=Stoichiometry(substrate_of=(0, 0), production=((0.0, 0.0),)),
        numerics=NumericsConfig(N=8, dt_max=1e-3), horizon=0.03125,
        snapshot_times=(0.03125,))


def frozen_inflow_fractions(psi_star, cfg):
    """The inflow fractions as first written, kept as a reference: the
    closure always folded into the last nonzero share."""
    a = cfg.arrays
    psi = np.maximum(np.asarray(psi_star, dtype=float), 0.0)
    raw = a["v_a"] * psi
    total = float(raw.sum())
    if total <= 0.0:
        raise NoAttachment("all attachment fluxes vanish")
    out = raw / total
    k = int(np.nonzero(raw)[0][-1])
    out[k] = 1.0 - (out.sum() - out[k])
    for _ in range(3):
        err = out.sum() - 1.0
        if err == 0.0:
            break
        out[k] -= err
    return out


def parcels(z, f, t=0.0):
    """Parcels at ``z`` with fractions ``f``, launched at evenly spaced times
    up to 0."""
    return _Parcels(t=t, L=float(z[-1]), z=np.array(z), t0=np.linspace(-1.0, 0.0, len(z)),
                    fz=np.array(f))


def step(cfg, p, dt, t_new=None):
    """One step of ``run`` from ``p`` (Newton started from the bulk values),
    ending at ``t_new`` (default ``p.t + dt``): the next parcels, the
    right-hand side at ``p`` (snapshot, rates, velocity) and the fraction-sum
    drift."""
    rhs = stepper._rhs(p, stepper._predicted_S([], p.t, cfg), cfg)
    nxt, drift = stepper._commit(p, dt, p.t + dt if t_new is None else t_new, rhs, cfg)
    return nxt, rhs, drift


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def assert_same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a, dtype=float).view(np.int64),
                                  np.asarray(b, dtype=float).view(np.int64))


class TestInterfaceFluxes:
    def test_attachment_flux_value(self):
        assert attachment_flux(np.array([100.0, 100.0, 0.0]), CASE1) \
            == pytest.approx(1e-3, rel=1e-14)

    def test_attachment_flux_zero(self):
        assert attachment_flux(np.zeros(3), CASE1) == 0.0

    def test_attachment_flux_linear(self):
        psi = np.array([40.0, 75.0, 10.0])
        assert attachment_flux(3.0 * psi, CASE1) \
            == pytest.approx(3.0 * attachment_flux(psi, CASE1), rel=1e-14)

    def test_detachment_flux(self):
        assert detachment_flux(0.0, 2000.0) == 0.0
        assert detachment_flux(1e-3, 2000.0) == pytest.approx(2e-3, rel=1e-14)
        assert detachment_flux(0.4, 0.0) == 0.0

    def test_inflow_equal_velocities(self):
        f = inflow_fractions(np.array([100.0, 100.0, 0.0]), CASE1)
        np.testing.assert_array_equal(f, [0.5, 0.5, 0.0])
        assert f.sum() == 1.0

    def test_inflow_non_attaching_species(self):
        cfg3 = build_preset("case3").cfg
        f = inflow_fractions(np.array([100.0, 100.0, 100.0]), cfg3)
        np.testing.assert_array_equal(f, [0.5, 0.5, 0.0])

    def test_inflow_single_species(self):
        f = inflow_fractions(np.array([0.0, 50.0, 0.0]), CASE1)
        np.testing.assert_array_equal(f, [0.0, 1.0, 0.0])

    def test_inflow_exact_unit_sum(self):
        f = inflow_fractions(np.array([100.0, 100.0, 100.0]), CASE1)
        assert f.sum() == 1.0

    def test_inflow_requires_attachment(self):
        with pytest.raises(NoAttachment):
            inflow_fractions(np.zeros(3), CASE1)

    def test_inflow_share_below_rounding_stays_non_negative(self):
        # folding the closure into the last nonzero share made it negative;
        # the largest share takes the closure instead
        psi = TINY_SHARE.psi_star(0.0)
        assert frozen_inflow_fractions(psi, TINY_SHARE)[2] < 0.0
        f = inflow_fractions(psi, TINY_SHARE)
        assert np.all(f >= 0.0) and not np.signbit(f).any()
        assert f[2] > 0.0 and f.sum() == 1.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1.0)),
                 min_size=n, max_size=n),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e-16), st.floats(1e-3, 200.0)),
                 min_size=n, max_size=n))))
    @example(((0.03, 0.02, 0.1), (55.263, 26.827, 1e-20)))
    @example(((0.02, -0.0), (50.0, 50.0)))
    def test_inflow_shares_non_negative_with_unit_sum(self, draw):
        v_a, psi = draw
        raw = np.array(v_a) * np.array(psi)
        assume(raw.sum() > 0.0)
        cfg = two_species_cfg(v_a=v_a, psi=psi)
        f = inflow_fractions(np.array(psi), cfg)
        assert np.all(f >= 0.0) and not np.signbit(f).any()
        assert np.all(f[raw == 0.0] == 0.0)
        assert f.sum() == 1.0
        # the bits move only where the first rule gave a negative share or -0.0
        reference = frozen_inflow_fractions(np.array(psi), cfg)
        if not np.signbit(reference).any():
            assert_same_bits(f, reference)


class TestVelocity:
    zeta = np.arange(21) / 20

    def test_constant_source_linear_profile(self):
        g = 0.82302
        u = compute_velocity(np.full(21, g), 1e-4 / 20)
        np.testing.assert_allclose(u, g * 1e-4 * self.zeta, rtol=1e-12)
        assert u[-1] == pytest.approx(8.2302e-5, rel=1e-12)

    def test_parcel_spacing(self):
        # on uneven parcels the quadrature is still exact for a constant source
        z = 1e-4 * np.sort(np.random.default_rng(1).random(21))
        z[0] = 0.0
        u = compute_velocity(np.full(21, 0.5), np.diff(z))
        np.testing.assert_allclose(u, 0.5 * z, rtol=1e-12, atol=1e-22)

    def test_zero_source(self):
        u = compute_velocity(np.zeros(21), 1e-3 / 20)
        np.testing.assert_array_equal(u, np.zeros(21))

    def test_monotone_for_nonnegative_source(self):
        rng = np.random.default_rng(0)
        u = compute_velocity(rng.random(21), 2e-4 / 20)
        assert u[0] == 0.0
        assert np.all(np.diff(u) >= 0.0)


class TestBoundary:
    """The interface update of one step, L + dt (u_L + sigma_a - sigma_d),
    without growth (u_L = 0) and with sigma_a = 0.02 * 50 / 1000 = 1e-3."""

    z = np.linspace(0.0, 1e-4, 17)
    f = np.stack([np.full(17, 1.0), np.zeros(17)])

    def test_nucleation_step(self):
        # from the empty film the step attaches L = sigma_a dt: two parcels,
        # the substratum's launched at 0 and the attached one at dt
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0))
        p = step(cfg, _seed(cfg), 1e-3)[0]
        assert p.L == pytest.approx(1e-6, rel=1e-14)
        np.testing.assert_array_equal(p.z, [0.0, p.L])
        np.testing.assert_array_equal(p.t0, [0.0, 1e-3])

    def test_equilibrium(self):
        # delta L^2 = 1e5 * (1e-4)^2 balances the attachment flux
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0), delta=1e5)
        p = step(cfg, parcels(self.z, self.f), 1e-2)[0]
        assert p.L == pytest.approx(1e-4, rel=1e-12)

    def test_floor_at_zero(self):
        # erosion removes 1e-3 m in one step from a 1e-4 m film
        # (dt delta L = 10): the step raises rather than land at or below
        # the substratum, and writes no argument
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0), delta=1e7)
        start = parcels(self.z, self.f)
        kept = [np.array(getattr(start, name)) for name in ("z", "t0", "fz")]
        with pytest.raises(NumericalBlowup, match="the step empties the film") as info:
            step(cfg, start, 1e-2)
        assert info.value.t == 1e-2
        for name, before in zip(("z", "t0", "fz"), kept):
            assert_same_bits(getattr(start, name), before)


class TestAdvanceBiomass:
    """The parcel update of one step: parcels ride u, fractions follow the
    reaction ODE, and a parcel is attached at the interface."""

    cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0))
    z = np.linspace(0.0, 1e-4, 17)

    def test_identity_without_forcing(self):
        f = np.stack([np.linspace(0.2, 0.8, 17), np.linspace(0.8, 0.2, 17)])
        p, _, drift = step(self.cfg, parcels(self.z, f), 1e-3)
        np.testing.assert_array_equal(p.z[:-1], self.z)
        np.testing.assert_array_equal(p.fz[:, :-1], f)
        np.testing.assert_array_equal(p.fz[:, -1], [1.0, 0.0])
        assert drift == 0.0

    def test_uniform_reaction_reduces_to_ode(self, monkeypatch):
        # r = (0.2, 0.6) f with f = (0.5, 0.5), G = sum r = 0.4:
        # one Euler step dt = 0.01 gives f1 = 0.5 + 0.01 (0.1 - 0.5*0.4) = 0.499
        def fixed_rates(f, S, Psi, cfg):
            r = np.stack([np.full(f.shape[1], 0.1), np.full(f.shape[1], 0.3)])
            return RateBundle(r_M=r, r_col=np.zeros_like(r),
                              r_S=np.zeros((1, f.shape[1])),
                              r_Psi=np.zeros_like(r), G=r.sum(axis=0))

        monkeypatch.setattr(stepper, "rate_bundle", fixed_rates)
        p = step(self.cfg, parcels(self.z, np.full((2, 17), 0.5)), 0.01)[0]
        np.testing.assert_allclose(p.fz[0, :-1], 0.499, rtol=1e-12)
        np.testing.assert_allclose(p.fz[1, :-1], 0.501, rtol=1e-12)
        # the parcels ride u = G z
        np.testing.assert_allclose(p.z[:-1], 1.004 * self.z, rtol=1e-12)


class TestLaunchLabels:
    """Every parcel carries its launch time; the labels never feed back."""

    z = np.linspace(0.0, 1e-4, 17)
    f = np.stack([np.full(17, 1.0), np.zeros(17)])

    def test_attached_parcel_takes_the_step_end(self):
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0))
        start = parcels(self.z, self.f, t=0.3)
        p = step(cfg, start, 1e-3)[0]
        np.testing.assert_array_equal(p.t0[:-1], start.t0)
        assert p.t0[-1] == p.t == 0.3 + 1e-3
        # a step landed on a forced time one ulp away labels its parcel with it
        t_end = float(np.nextafter(0.3 + 1e-3, 1.0))
        landed = step(cfg, start, 1e-3, t_end)[0]
        assert landed.t0[-1] == landed.t == t_end
        np.testing.assert_array_equal(landed.t0[:-1], start.t0)
        np.testing.assert_array_equal(landed.z, p.z)

    def test_receding_top_takes_an_interpolated_label(self):
        # no growth and strong erosion: the interface recedes through parcels
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0), delta=1e7)
        start = parcels(self.z, self.f)
        p = step(cfg, start, 1e-4)[0]
        kept = self.z < p.L
        assert 2 <= np.sum(~kept) < self.z.size - 2
        np.testing.assert_array_equal(p.z[:-1], self.z[kept])
        np.testing.assert_array_equal(p.t0[:-1], start.t0[kept])
        assert p.t0[-1] == np.interp(p.L, self.z, start.t0)
        assert np.all(np.diff(p.t0) > 0.0)
        # a receding step attached no parcel: its end time labels nothing
        landed = step(cfg, start, 1e-4, 0.5)[0]
        assert landed.t == 0.5
        np.testing.assert_array_equal(landed.t0, p.t0)

    def test_landing_relabels_the_attached_parcel(self):
        # 0.8999999999999999 + 0.1 rounds to 0.9999999999999999, within the
        # landing tolerance of the horizon: the clock and the label snap to 1
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0))
        cfg = dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, dt_max=0.1),
            horizon=1.0, snapshot_times=())
        res = run(cfg, record_profiles=True)
        assert res.boundary.t[-2] + 0.1 != 1.0
        assert res.profiles.parcel_t0[-1][-1] == res.boundary.t[-1] == 1.0

    def test_records_through_regime_flips(self):
        from biofilm1d.traces import TableTrace
        cfg = two_species_cfg(v_a=(0.02, 0.0), delta=2e4)
        pulsed = TableTrace((0.0, 0.03, 0.031, 0.06, 0.061, 0.2),
                            (50.0, 50.0, 0.0, 0.0, 50.0, 50.0))
        bulk = dataclasses.replace(cfg.bulk,
                                   psi_star=(pulsed, cfg.bulk.psi_star[1]))
        cfg = dataclasses.replace(cfg, bulk=bulk, horizon=0.1, snapshot_times=())
        res = run(cfg, record_profiles=True)
        p, b = res.profiles, res.boundary
        assert len(p.parcel_z) == len(p.parcel_t0) == len(p.parcel_f) == b.t.size
        for k, (z, t0, f) in enumerate(zip(p.parcel_z, p.parcel_t0, p.parcel_f)):
            assert z.shape == t0.shape == f.shape[1:]
            np.testing.assert_allclose(f.sum(axis=0), 1.0, atol=1e-12)
            assert z[0] == 0.0 and z[-1] == b.L[k]
            assert t0[0] == 0.0
            assert np.all(np.diff(t0) > 0.0)
            # a parcel attached over the last step carries the record time,
            # landings on the supply breakpoints included
            if k and b.attachment[k - 1]:
                assert t0[-1] == b.t[k]
            elif k:
                assert t0[-1] < b.t[k - 1]
        assert (~b.attachment).any()


class TestStep:
    def test_nucleation_arithmetic(self):
        cfg = small_case1()
        p, (snap, _, _), _ = step(cfg, _seed(cfg), 1e-4)
        # the empty film has u_L = 0 and sigma_d = 0, so L = sigma_a dt
        assert snap.u_L == snap.sigma_d == 0.0
        assert p.L == 1e-4 * snap.sigma_a
        assert attaching(snap.sigma_a, snap.sigma_d)
        assert snap.sigma_a == pytest.approx(1e-3, rel=1e-12)
        # the substratum parcel stays near the inflow split to O(dt); the
        # parcel attached over the step carries the split exactly
        np.testing.assert_allclose(p.fz[0], 0.5, atol=1e-4)
        np.testing.assert_array_equal(p.fz[:, -1], [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(p.fz[2], np.zeros(p.fz.shape[1]))

    def test_euler_consistency_in_thickness(self):
        cfg = small_case1()
        base = _seed(cfg)
        while base.L < 2.5e-5:  # grow past nucleation
            base = step(cfg, base, cfg.numerics.dt_max)[0]

        def thickness_after(dt, substeps):
            p = base  # a value: every branch starts from the same parcels
            for _ in range(substeps):
                p = step(cfg, p, dt)[0]
            return p.L

        diffs = []
        for dt in (1e-4, 5e-5):
            one = thickness_after(2 * dt, 1)
            two = thickness_after(dt, 2)
            diffs.append(abs(one - two))
        assert diffs[0] / base.L < 1e-4
        # halving dt shrinks the two-vs-one gap at first order (~4x here)
        assert 2.0 <= diffs[0] / diffs[1] <= 8.0

    def test_diagnostics_consistency(self):
        # what a step reports is what its update used
        cfg = small_case1()
        start = step(cfg, _seed(cfg), 1e-4)[0]
        dt = cfg.numerics.dt_max
        p, (snap, rates, u), drift = step(cfg, start, dt)
        assert p.t == start.t + dt
        assert u[0] == 0.0 and snap.u_L == u[-1]
        assert u.shape == rates.G.shape == start.z.shape
        assert p.L == start.L + dt * (snap.u_L + snap.sigma_a - snap.sigma_d)
        # attachment: the old parcels ride u and one parcel is appended
        np.testing.assert_array_equal(p.z[:-1], start.z + dt * u)
        np.testing.assert_array_equal(p.t0[:-1], start.t0)
        assert snap.S.shape == snap.Psi.shape == (3, cfg.numerics.N + 1)
        assert drift <= 1e-8


class TestRightHandSide:
    def test_pure(self):
        # a second-order step evaluates the right-hand side twice at one
        # parcel set: it must write to no input and repeat itself bit for bit
        cfg = small_case1()
        p = _seed(cfg)
        for _ in range(20):
            p = step(cfg, p, cfg.numerics.dt_max)[0]
        z, fz, S_guess = (read_only(a) for a in (p.z, p.fz, stepper._predicted_S([], p.t, cfg)))
        p = dataclasses.replace(p, z=z, fz=fz)
        (first, first_rates, first_u), (second, second_rates, second_u) = (
            stepper._rhs(p, S_guess, cfg) for _ in range(2))
        assert z.size == 21  # the substratum parcel and one attached per step
        assert first_u.shape == z.shape
        pairs = [(getattr(first, name), getattr(second, name))
                 for name in ("f", "S", "Psi", "sigma_a", "sigma_d")]
        pairs += [(first_u, second_u)]
        pairs += [(getattr(first_rates, f.name), getattr(second_rates, f.name))
                  for f in dataclasses.fields(first_rates)]
        for a, b in pairs:
            assert_same_bits(a, b)


class TestCommit:
    """A step's transition is pure: a rejected or repeated step reuses its
    input parcels and right-hand side unchanged."""

    z = np.linspace(0.0, 1e-4, 17)
    f = np.stack([np.full(17, 1.0), np.zeros(17)])

    @staticmethod
    def frozen(cfg, p):
        """``p`` and its right-hand side with every array read-only (the
        snapshot's arrays come read-only)."""
        snap, rates, u = stepper._rhs(p, stepper._predicted_S([], p.t, cfg), cfg)
        rates = dataclasses.replace(rates, **{
            f.name: read_only(getattr(rates, f.name))
            for f in dataclasses.fields(rates)})
        return dataclasses.replace(p, z=read_only(p.z), t0=read_only(p.t0),
                                   fz=read_only(p.fz)), (snap, rates, read_only(u))

    def grown(self):
        cfg = small_case1()
        p = _seed(cfg)
        for _ in range(20):
            p = step(cfg, p, cfg.numerics.dt_max)[0]
        return cfg, p, cfg.numerics.dt_max

    def attached_within_margin(self):
        # no growth, so the top parcel stays at L; the step moves L by
        # sigma_a dt = 1e-15 m, below the margin 1e-9 L / N = 6.25e-15 m
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0))
        return cfg, parcels(self.z, self.f), 1e-12

    def receding(self):
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0), delta=1e7)
        return cfg, parcels(self.z, self.f), 1e-4

    def reseeded(self):
        # erosion takes the 1e-4 m film to L = 1.99e-6 m, below the first
        # parcel above the substratum: the film is left with two parcels,
        # the substratum's and the resampled top, as after a first step
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0), delta=1e7)
        return cfg, parcels(self.z, self.f), 9.9e-4

    @pytest.mark.parametrize("case, count", [("grown", 22), ("attached_within_margin", 17),
                                             ("receding", None), ("reseeded", 2)])
    def test_pure(self, case, count):
        cfg, p, dt = getattr(self, case)()
        p, rhs = self.frozen(cfg, p)
        kept = [np.array(getattr(p, name)) for name in ("z", "t0", "fz")]
        t_new = p.t + dt
        first, second = (stepper._commit(p, dt, t_new, rhs, cfg) for _ in range(2))
        (a, drift_a), (b, drift_b) = first, second
        for name in ("t", "L", "z", "t0", "fz"):
            assert_same_bits(getattr(a, name), getattr(b, name))
        assert_same_bits(drift_a, drift_b)
        for name, before in zip(("z", "t0", "fz"), kept):
            assert_same_bits(getattr(p, name), before)
        # the branch taken
        assert a.t == t_new
        if case == "receding":
            assert p.L > a.L > 0.0 and 2 < a.z.size < p.z.size
            assert a.t0[-1] < 0.0
        elif case == "reseeded":
            assert p.z[1] > a.L > 0.0 and a.z.size == count
            assert a.z[0] == 0.0 and a.t0[0] == p.t0[0] < a.t0[-1] < p.t0[1]
        else:
            assert a.z.size == count
            assert a.t0[-1] == t_new

    def test_step_at_half_the_bound_keeps_fractions_non_negative(self):
        # case2 at the largest dt_max validate_config accepts: dt G_max = 0.5,
        # G_max = max mu_max + sum k_col psi*_max / rho; nearly all of the
        # film is the fastest grower, so G is close to G_max
        case2 = build_preset("case2").cfg
        g_max = 1.5 + sum([2.5 * 100.0 / 5000.0] * 3)
        cfg = dataclasses.replace(case2, numerics=dataclasses.replace(
            case2.numerics, dt_max=0.5 / g_max))
        assert validate_config(cfg).ok
        f = np.repeat([[0.0], [1.0 - 1e-300], [1e-300]], 17, axis=1)
        p, (_, rates, _), drift = step(cfg, parcels(np.linspace(0.0, 1e-5, 17), f),
                                       cfg.numerics.dt_max)
        assert cfg.numerics.dt_max * rates.G.max() > 0.35
        assert np.all(p.fz >= 0.0) and not np.signbit(p.fz).any()
        assert drift <= CONSTRAINT_TOL


class TestRun:
    def test_zero_horizon_returns_initial_snapshot(self):
        # the empty film, bit for bit: the bulk values under the inflow
        # fractions, with nothing growing and nothing eroded
        cfg = small_case1(horizon=0.0, snapshots=(0.0,))
        res = run(cfg)
        assert len(res.snapshots) == 1
        snap = res.snapshots[0]
        seed = _seed(cfg)
        ones = np.ones(cfg.numerics.N + 1)
        assert snap.t == 0.0
        assert snap.L == seed.L == 0.0
        assert_same_bits(snap.f, np.outer(inflow_fractions(cfg.psi_star(0.0), cfg), ones))
        assert_same_bits(snap.S, np.outer(cfg.s_star(0.0), ones))
        assert_same_bits(snap.Psi, np.outer(cfg.psi_star(0.0), ones))
        assert_same_bits([snap.u_L, snap.sigma_d], [0.0, 0.0])

    @pytest.mark.parametrize("spoil, message", [
        # a NaN growth rate turns the fractions non-finite
        (lambda r, dt: dataclasses.replace(r, r_M=np.full_like(r.r_M, np.nan)),
         "non-finite state after step"),
        # a source G of 0.95/dt leaves about a twentieth of the volume
        (lambda r, dt: dataclasses.replace(r, G=np.full_like(r.G, 0.95 / dt)),
         "volume-fraction sum drifted by 0.9"),
        # a source 1e-6/dt too large drifts the sum by 1e-6, far above
        # round-off: the renormalisation does not hide it
        (lambda r, dt: dataclasses.replace(r, G=r.G + 1e-6 / dt),
         "volume-fraction sum drifted by 1e-06"),
    ])
    def test_blowup_carries_the_step_end(self, monkeypatch, spoil, message):
        # no validated config reaches these guards, so the rates are spoiled
        cfg = small_case1()
        dt = cfg.numerics.dt_max
        real = stepper.rate_bundle
        monkeypatch.setattr(stepper, "rate_bundle", lambda *args: spoil(real(*args), dt))
        with pytest.raises(NumericalBlowup, match=message) as info:
            run(cfg)
        assert info.value.t == dt

    def test_snapshots_well_formed(self):
        res = run(small_case1())
        assert [s.t for s in res.snapshots] == [0.025, 0.05]
        for snap in res.snapshots:
            assert snap.sum_f_drift() <= 1e-8
            assert np.all(snap.f >= 0.0) and np.all(snap.S >= 0.0) \
                and np.all(snap.Psi >= 0.0)
            assert snap.attachment is bool(snap.sigma_a - snap.sigma_d > 0.0)

    def test_deterministic(self):
        cfg = small_case1()
        a = run(cfg)
        c = run(cfg)
        for sa, sc in zip(a.snapshots, c.snapshots):
            np.testing.assert_array_equal(sa.f, sc.f)
            np.testing.assert_array_equal(sa.S, sc.S)
            assert sa.L == sc.L
        np.testing.assert_array_equal(a.boundary.L, c.boundary.L)

    def test_mass_balance_first_order(self):
        # single species: total mass rho*L obeys dM/dt = rho(u_L + sa - sd)
        cfg = two_species_cfg(v_a=(0.02, 0.0), psi=(50.0, 0.0))
        species = (dataclasses.replace(cfg.species[0], mu_max=0.8),
                   cfg.species[1])
        cfg = dataclasses.replace(cfg, species=species, horizon=0.05,
                                  delta=2000.0)

        def budget_residual(dt_max):
            c = dataclasses.replace(
                cfg, numerics=dataclasses.replace(cfg.numerics, dt_max=dt_max))
            res = run(c)
            b = res.boundary
            dM = np.diff(b.L)  # mass / rho, f = 1 throughout
            rhs = (b.u_L + b.sigma_a - b.sigma_d)[:-1] * np.diff(b.t)
            return np.max(np.abs(dM - rhs)) / max(b.L[-1], 1e-12)

        r1, r2 = budget_residual(1e-3), budget_residual(5e-4)
        assert r2 <= 0.75 * r1 + 1e-12

    def test_forced_breakpoint_times_are_hit(self):
        cfg = small_case1(horizon=0.3, snapshots=(0.3,))
        res = run(cfg)  # t1 = 0.2 is a trace breakpoint inside the horizon
        assert np.any(np.isclose(res.boundary.t, 0.2, atol=1e-12))

    def test_snapshot_schedule(self):
        # 0.2 is case1's ramp breakpoint t1 as well as a snapshot time; 0.0
        # and 0.25 are scheduled twice
        times = (0.0, 0.0, 0.1, 0.1234, 0.2, 0.25, 0.25, 0.3)
        cfg = small_case1(horizon=0.3, snapshots=times)
        assert 0.2 in cfg.bulk.breakpoints()
        res = run(cfg)
        assert [snap.t for snap in res.snapshots] == list(times)
        seed = _seed(cfg)
        for snap in res.snapshots[:2]:
            assert snap.L == seed.L
            np.testing.assert_array_equal(snap.f, seed.fz[:, :1] * np.ones(snap.N + 1))
        # every forced time is a step boundary, bitwise
        b = res.boundary
        assert set(times[1:]) | set(cfg.bulk.breakpoints()) <= set(b.t.tolist())
        for snap in res.snapshots:
            assert b.L[np.flatnonzero(b.t == snap.t)[0]] == snap.L

    def test_repeated_snapshot_time_solved_once(self, monkeypatch):
        cfg = small_case1(horizon=0.02, snapshots=(0.01, 0.01, 0.02))
        calls = [0]
        real = stepper.make_snapshot

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(stepper, "make_snapshot", counted)
        res = run(cfg)
        assert [snap.t for snap in res.snapshots] == [0.01, 0.01, 0.02]
        first, second = res.snapshots[:2]
        for field in dataclasses.fields(first):
            assert_same_bits(getattr(first, field.name), getattr(second, field.name))
        # one solve per distinct time; the horizon row reuses the last one
        assert calls[0] == 2

    @pytest.mark.parametrize("case, warned", [("case1", []), ("case2", [1, 2, 3])])
    def test_one_resolution_warning_per_species(self, case, warned):
        cfg = dataclasses.replace(build_preset(case).cfg, horizon=0.1,
                                  snapshot_times=(0.05, 0.1))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            res = run(cfg)
        messages = [str(w.message) for w in record
                    if issubclass(w.category, BoundaryLayerResolutionWarning)]
        assert [m.split(":")[0] for m in messages] == [f"species {i}" for i in warned]
        # named at the run's largest thickness, where the need is worst
        assert all(f"at L = {res.boundary.L.max():.3e} m" in m for m in messages)

    def test_traced_bindings_called_once_per_step(self, monkeypatch):
        # perfbench/tracing.py counts steps, parcels, Newton iterations and
        # per-field solves by patching these module globals, and times the
        # kinetics through the ``kinetics`` module; a loop that bypassed them
        # would leave those counters at zero.
        calls = {"solve_substrates": 0, "rate_bundle": 0}
        kinetic_calls = {"substrate_rates": 0, "substrate_rate_jacobian_diag": 0}
        per_step = []  # kinetics calls made inside each step's substrate solve
        field_solves, iterations = [0], []
        in_snapshot = [0]

        def counted(name):
            real = getattr(stepper, name)

            def wrapper(*args, **kwargs):
                if not in_snapshot[0]:
                    calls[name] += 1
                before = dict(kinetic_calls)
                out = real(*args, **kwargs)
                if name == "solve_substrates":
                    iterations.extend(sol.iterations for sol in out)
                    if not in_snapshot[0]:
                        per_step.append({k: kinetic_calls[k] - before[k]
                                         for k in kinetic_calls})
                return out
            return wrapper

        def kinetic(name):
            real = getattr(kinetics, name)

            def wrapper(*args, **kwargs):
                kinetic_calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        real_snapshot = stepper.make_snapshot

        def snapshot(*args, **kwargs):
            in_snapshot[0] += 1
            try:
                return real_snapshot(*args, **kwargs)
            finally:
                in_snapshot[0] -= 1

        real_field_solve = elliptic.solve_problem

        def field_solve(*args, **kwargs):
            field_solves[0] += 1
            return real_field_solve(*args, **kwargs)

        for name in calls:
            monkeypatch.setattr(stepper, name, counted(name))
        monkeypatch.setattr(stepper, "make_snapshot", snapshot)
        monkeypatch.setattr(elliptic, "solve_problem", field_solve)
        for name in kinetic_calls:
            monkeypatch.setattr(kinetics, name, kinetic(name))
        cfg = small_case1()
        res = run(cfg)
        steps = res.boundary.t.size - 1
        assert steps == 100 and len(res.snapshots) == 2
        assert calls == {"solve_substrates": steps, "rate_bundle": steps}
        # one float64 entry per step start plus the horizon in every
        # boundary column
        for field in dataclasses.fields(res.boundary):
            column = getattr(res.boundary, field.name)
            assert column.shape == (steps + 1,)
            assert column.dtype == np.float64
        # perfbench fails a traced op in which either kinetics count is zero.
        # The coupled check evaluates every rate once per step.  The first
        # step needs no Newton iteration: at the seed thickness the bulk
        # values already meet the tolerance.
        assert len(per_step) == steps
        assert all(counts["substrate_rates"] >= 1 for counts in per_step)
        assert all(counts["substrate_rate_jacobian_diag"] >= 1
                   for counts in per_step[1:])
        # one Newton solve per field and substrate solve, snapshots included
        # (the built-in network is triangular, so one sweep converges)
        assert len(iterations) == cfg.m * (steps + len(res.snapshots))
        assert field_solves[0] == len(iterations)
        assert all(isinstance(it, int) for it in iterations)

    def test_step_records_cost_a_few_bytes_per_step(self):
        """The traced peak of ``run`` grows by less than 150 B per extra step.

        The boundary trace's one buffer needs 48 B per step (one 8-byte
        value per field) plus the slack of its growth; on this
        config the peak is set by a step's temporaries and grows by -10 to
        +12 B per step.  Records kept as a tuple of boxed floats per step and
        transposed at the end cost about 310 B per step here.  A coarse grid
        and a long step keep a step's temporaries small and the test short.
        """
        case2 = build_preset("case2").cfg
        nm = dataclasses.replace(case2.numerics, N=20, dt_max=0.025)
        steps, peaks = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
            for horizon in (1.0, 6.0):
                cfg = dataclasses.replace(case2, numerics=nm, horizon=horizon,
                                          snapshot_times=())
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    res = run(cfg)
                    peaks.append(tracemalloc.get_traced_memory()[1] - before)
                finally:
                    tracemalloc.stop()
                steps.append(res.boundary.t.size - 1)
        assert steps == [40, 240]
        assert (peaks[1] - peaks[0]) / (steps[1] - steps[0]) < 150

    def test_pulsed_supply_flips_regimes_and_recovers(self):
        from biofilm1d.traces import TableTrace
        cfg = two_species_cfg(v_a=(0.02, 0.0), delta=2e4)
        pulsed = TableTrace((0.0, 0.03, 0.031, 0.06, 0.061, 0.2),
                            (50.0, 50.0, 0.0, 0.0, 50.0, 50.0))
        bulk = dataclasses.replace(cfg.bulk,
                                   psi_star=(pulsed, cfg.bulk.psi_star[1]))
        cfg = dataclasses.replace(cfg, bulk=bulk, horizon=0.1,
                                  snapshot_times=(0.1,))
        res = run(cfg)
        b = res.boundary
        assert b.attachment.any() and (~b.attachment).any()
        # attachment resumes after the supply gap
        assert b.attachment[np.searchsorted(b.t, 0.08)]
        snap = res.snapshots[-1]
        assert snap.L > 0.0
        assert snap.sum_f_drift() <= 1e-8


class TestProfileWindow:
    """``profile_t_max`` records exactly the steps that start by it, and the
    records are the first boundary rows."""

    @pytest.mark.filterwarnings("ignore::biofilm1d.errors.BoundaryLayerResolutionWarning")
    def test_records_the_steps_that_start_by_t_max(self, case1_run):
        b, p = case1_run.boundary, case1_run.profiles
        k = len(p.parcel_z)
        assert (k, b.t.size) == (1051, 10001)  # case1 recorded to 1.05 d of 10 d
        assert b.t[k - 1] <= 1.05 < b.t[k]
        assert len(p.S) == len(p.Psi) == len(p.parcel_z) == len(p.parcel_f) == k

    def test_horizon_row_recorded_only_when_t_max_reaches_it(self):
        cfg = small_case1()
        full = run(cfg, record_profiles=True, profile_t_max=cfg.horizon)
        short = run(cfg, record_profiles=True,
                    profile_t_max=cfg.horizon - 2 * TIME_TOL * max(1.0, cfg.horizon))
        k = len(short.profiles.parcel_z)
        assert len(full.profiles.parcel_z) == full.boundary.t.size == k + 1
        assert full.boundary.t[-1] == cfg.horizon
        assert short.boundary.t.size == k + 1
        assert short.boundary.t[k - 1] < cfg.horizon
        assert_same_bits(short.boundary.t[:k], full.boundary.t[:-1])

    @pytest.mark.filterwarnings("ignore::biofilm1d.errors.BoundaryLayerResolutionWarning")
    def test_step_within_the_clock_tolerance_of_t_max_recorded(self):
        # the clock p.t + dt reaches 0.1 d one rounding above it; that step
        # starts at 0.1 d, so it is recorded and a path can be traced there
        cfg = dataclasses.replace(CASE1, horizon=0.12, snapshot_times=())
        res = run(cfg, record_profiles=True, profile_t_max=0.1)
        k = len(res.profiles.parcel_z)
        assert k == 101 and res.boundary.t[k - 1] == 0.10000000000000007
        path = characteristic_trace(res, 0.05, 0.1)
        assert path.t[-1] == res.boundary.t[k - 1]


# Signed production coefficients other than +-1, zeros of either sign among them.
NON_UNIT = st.floats(-4.0, 4.0).filter(lambda w: abs(w) >= 0.05 and abs(w) != 1.0)
COEFFICIENT = st.one_of(st.sampled_from([0.0, -0.0]), NON_UNIT, NON_UNIT)
# A species consumes only its limiting substrate: other coefficients are >= 0.
OFF_OWN = COEFFICIENT.filter(lambda w: not w < 0.0)
LEVEL = st.floats(0.0, 200.0)


@st.composite
def bulk_traces(draw, horizon):
    """A constant, an arrival ramp, or a table whose knots lie in [0, horizon]."""
    kind = draw(st.sampled_from(("constant", "ramp", "table")))
    if kind == "constant":
        return ConstantTrace(draw(LEVEL))
    if kind == "ramp":
        return RampTrace(draw(LEVEL), draw(st.floats(1e-3, horizon)),
                         draw(st.sampled_from(RAMP_VARIANTS)))
    times = draw(st.lists(st.floats(0.0, horizon), min_size=1, max_size=4, unique=True))
    return TableTrace(tuple(sorted(times)),
                      tuple(draw(st.lists(LEVEL, min_size=len(times),
                                          max_size=len(times)))))


@st.composite
def scenarios(draw):
    """Valid scenarios off the presets' kinetics: 1-3 species and substrates,
    any wiring with non-unit coefficients (negative only on a species'
    limiting substrate), constant, ramp and table bulk traces, N <= 40 and
    horizons <= 0.05 d."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    horizon = draw(st.floats(1e-3, 0.05))
    # species 1 attaches from the start, so a run has a film to grow
    species = tuple(
        dataclasses.replace(sp, v_a=draw(st.sampled_from((0.0, 0.025))) if i else 0.025,
                            k_col=draw(st.sampled_from((0.0, 2.5))))
        for i, sp in enumerate(build_preset("case2").cfg.species[:n]))
    substrate_of = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    stoich = Stoichiometry(
        substrate_of=substrate_of,
        production=tuple(tuple(draw(COEFFICIENT if k == j else OFF_OWN) for k in substrate_of)
                         for j in range(m)))
    times = draw(st.lists(st.floats(0.0, horizon), max_size=3))
    return dataclasses.replace(
        CASE1, species=species, substrates=CASE1.substrates[:m],
        delta=draw(st.floats(0.0, 4000.0)),
        bulk=BulkTraces((ConstantTrace(draw(st.floats(1.0, 200.0))),)
                        + tuple(draw(bulk_traces(horizon)) for _ in range(n - 1)),
                        tuple(draw(bulk_traces(horizon)) for _ in range(m))),
        stoichiometry=stoich,
        numerics=NumericsConfig(N=draw(st.integers(8, 40)),
                                dt_max=draw(st.sampled_from((1e-3, 1e-2)))),
        horizon=horizon, snapshot_times=tuple(sorted(times)) + (horizon,))


class TestRunProperties:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(scenarios())
    @example(TINY_SHARE)
    @example(dipping_start_case())
    def test_valid_scenarios_run_within_their_invariants(self, cfg):
        assert validate_config(cfg).ok
        assert configio.loads(configio.dumps(cfg)) == cfg
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
            try:
                res = run(cfg)
            except NumericalBlowup:
                raise
            except Biofilm1dError:
                return
        assert res.boundary.sum_f_drift.max() <= CONSTRAINT_TOL
        assert len(res.snapshots) == len(cfg.snapshot_times)
        for snap in res.snapshots:
            assert snap.sum_f_drift() <= CONSTRAINT_TOL
            assert np.all(snap.f >= 0.0) and not np.signbit(snap.f).any()
            assert np.all(snap.S >= 0.0) and np.all(snap.Psi >= 0.0)
            # the interface row holds the bulk values bit for bit, and no
            # other planktonic value is -0.0: Psi takes no clamp
            assert snap.Psi[:, -1].tobytes() == cfg.psi_star(snap.t).tobytes()
            assert not np.signbit(snap.Psi[:, :-1]).any()
            # the empty film at t = 0, a film after every step
            assert snap.L > 0.0 if snap.t > 0.0 else snap.L == 0.0

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(scenarios(), st.floats(0.0, 1.0))
    def test_profile_records_are_boundary_rows_ending_at_the_interface(self, cfg, share):
        # box_from_run and characteristic_trace read the records as the
        # first boundary rows, in time order, with every parcel set topped by
        # the interface
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
            try:
                res = run(cfg, record_profiles=True, profile_t_max=share * cfg.horizon)
            except Biofilm1dError:
                return
        b, p = res.boundary, res.profiles
        k = len(p.parcel_z)
        assert 1 <= k <= b.t.size
        assert all(getattr(b, field.name).shape == b.t.shape == (b.t.size,)
                   for field in dataclasses.fields(b))
        assert np.all(np.diff(b.t) > 0.0)
        assert_same_bits([z[-1] for z in p.parcel_z], b.L[:k])

    def test_tiny_inflow_share_keeps_every_parcel_non_negative(self):
        res = run(TINY_SHARE, record_profiles=True)
        for fz in res.profiles.parcel_f:
            assert np.all(fz >= 0.0) and not np.signbit(fz).any()


class TestPredictedNewtonStart:
    """The substrate Newton starts from the time extrapolation of the last two
    solutions; that moves the answers by about the Newton tolerance."""

    @staticmethod
    def short_run(monkeypatch, case, horizon):
        cfg = build_preset(case).cfg
        times = tuple(sorted({0.0, horizon / 2, horizon}
                             | {t for t in cfg.snapshot_times if t < horizon}))
        cfg = dataclasses.replace(cfg, horizon=horizon, snapshot_times=times)
        iterations = [0]
        real = stepper.solve_substrates

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            iterations[0] += sum(sol.iterations for sol in out)
            return out

        with monkeypatch.context() as m, warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
            m.setattr(stepper, "solve_substrates", counted)
            return run(cfg), iterations[0]

    @pytest.mark.parametrize("case, horizon", [("case2", 0.3), ("case1", 0.05)])
    def test_close_to_last_solution_start_in_fewer_iterations(self, monkeypatch,
                                                              case, horizon):
        new, new_iterations = self.short_run(monkeypatch, case, horizon)
        with monkeypatch.context() as m:
            m.setattr(stepper, "_predicted_S",
                      lambda solved, t, cfg: stepper._last_S(solved, cfg))
            old, old_iterations = self.short_run(monkeypatch, case, horizon)

        assert new_iterations < old_iterations
        np.testing.assert_array_equal(new.boundary.t, old.boundary.t)
        np.testing.assert_allclose(new.boundary.L, old.boundary.L, rtol=1e-6, atol=0)
        assert len(new.snapshots) == len(old.snapshots) >= 3
        for a, b in zip(new.snapshots, old.snapshots):
            assert a.L == pytest.approx(b.L, rel=1e-6, abs=0)
            for name in ("S", "f", "Psi"):
                np.testing.assert_allclose(getattr(a, name),
                                           getattr(b, name), rtol=0, atol=1e-4)
