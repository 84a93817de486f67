import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from biofilm1d import kinetics
from biofilm1d.model import Stoichiometry, validate_config
from biofilm1d.presets import build_preset

CASE1 = build_preset("case1").cfg
CASE2 = build_preset("case2").cfg
# Species 1 and 2 share substrate 1; coefficients are not +-1 or 0.
SHARED = dataclasses.replace(CASE2, stoichiometry=Stoichiometry(
    substrate_of=(0, 0, 2),
    production=((-1.3, -0.7, 0.0), (0.25, 0.0, 0.0), (0.6, 0.0, -2.5))))
# Species 1 and 3 share substrate 1 without being adjacent.
SPLIT = dataclasses.replace(CASE2, stoichiometry=Stoichiometry(
    substrate_of=(0, 1, 0),
    production=((-1.3, 0.0, -0.4), (0.25, -1.0, 0.0), (0.6, 0.0, 0.0))))
# Trailing node shapes: one point, a grid, and the oracle's (t0, t) plane.
TRAILING = ((), (7,), (4, 5))


def rates(cfg, f=None, S=None, Psi=None):
    """The rate bundle at one point; absent arguments are zero."""
    f, S, Psi = (np.zeros(3) if v is None else np.asarray(v, dtype=float)
                 for v in (f, S, Psi))
    return kinetics.rate_bundle(f, S, Psi, cfg)


def random_state(rng, trail):
    return (rng.random((3,) + trail) / 3.0, rng.random((3,) + trail) * 100.0,
            rng.random((3,) + trail) * 100.0)


class TestMonod:
    def test_zero_substrate(self):
        assert kinetics.monod(0.0, 1.0) == 0.0

    def test_half_saturation(self):
        assert kinetics.monod(20.0, 20.0) == 0.5

    def test_direct_value(self):
        assert kinetics.monod(100.0, 1.0) == pytest.approx(100.0 / 101.0, rel=1e-15)

    def test_negative_clamped(self):
        assert kinetics.monod(-3.0, 1.0) == 0.0

    def test_clamp_count_logged_at_debug_only(self, caplog):
        s = np.array([-3.0, 2.0, -0.5, np.nan, -1e-300])
        with caplog.at_level(logging.DEBUG, logger=kinetics.__name__):
            kinetics.monod(s, 1.0)
        assert [r.getMessage() for r in caplog.records] == [
            "clamped 3 negative substrate value(s) during rate evaluation"]
        caplog.clear()
        with caplog.at_level(logging.INFO, logger=kinetics.__name__):
            np.testing.assert_array_equal(kinetics.monod(s, 1.0),
                                          [0.0, 2.0 / 3.0, 0.0, np.nan, 0.0])
        assert caplog.records == []

    @given(st.floats(0.0, 1e6), st.floats(1e-6, 1e4), st.floats(0.0, 1e3))
    def test_monotone_and_bounded(self, s, K, ds):
        a = kinetics.monod(s, K)
        b = kinetics.monod(s + ds, K)
        assert 0.0 <= a < 1.0
        assert b >= a


class TestGrowthRates:
    def test_hand_value(self):
        # 0.4 * (100/101) * 0.5
        f = np.array([0.5, 0.0, 0.0])
        S = np.array([100.0, 0.0, 0.0])
        r = rates(CASE1, f, S).r_M
        assert r[0] == pytest.approx(0.4 * (100 / 101) * 0.5, rel=1e-15)

    def test_no_biomass_no_growth(self):
        r = rates(CASE1, np.zeros(3), np.full(3, 50.0)).r_M
        np.testing.assert_array_equal(r, np.zeros(3))

    def test_no_substrate_no_growth(self):
        r = rates(CASE1, np.full(3, 0.3), np.zeros(3)).r_M
        np.testing.assert_array_equal(r, np.zeros(3))


class TestSubstrateRates:
    def test_consumption_of_first_substrate(self):
        f = np.array([0.5, 0.0, 0.0])
        S = np.array([100.0, 0.0, 0.0])
        r_m = rates(CASE1, f, S).r_M
        r_s = kinetics.substrate_rates(f, S, CASE1)
        assert r_s[0] == pytest.approx(-(r_m[0] / 0.4) * 5000.0, rel=1e-14)
        assert r_s[0] == pytest.approx(-2475.2475, rel=1e-6)

    def test_no_biomass_no_conversion(self):
        r_s = kinetics.substrate_rates(np.zeros(3), np.full(3, 10.0), CASE1)
        np.testing.assert_array_equal(r_s, np.zeros(3))

    def test_production_balances_consumption(self):
        # pick f3 so species 3 consumes substrate 3 exactly as fast as
        # species 1 produces it: mu1 m(S1) f1 / Y1 = mu3 m(S3) f3 / Y3
        S = np.array([100.0, 0.0, 100.0])
        f1 = 0.2
        lhs = 0.4 * kinetics.monod(100.0, 1.0) * f1 / 0.4
        f3 = lhs * 0.9 / (0.5 * kinetics.monod(100.0, 1.0))
        f = np.array([f1, 0.0, f3])
        r_s = kinetics.substrate_rates(f, S, CASE1)
        assert r_s[2] == pytest.approx(0.0, abs=1e-12)

    def test_jacobian_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        f = rng.random((3, 5)) / 3.0
        S = rng.random((3, 5)) * 50.0
        eps = 1e-6
        for j in range(3):
            jac = kinetics.substrate_rate_jacobian_diag(f, S[j], j, CASE1)
            Sp = S.copy(); Sp[j] += eps
            Sm = S.copy(); Sm[j] -= eps
            num = (kinetics.substrate_rates(f, Sp, CASE1)[j]
                   - kinetics.substrate_rates(f, Sm, CASE1)[j]) / (2 * eps)
            np.testing.assert_allclose(jac, num, rtol=1e-5, atol=1e-8)


def all_rows_jacobian_diag(f, S, cfg):
    """Frozen copy of the earlier all-rows kernel: the Jacobian diagonal of
    every row, accumulated species by species."""
    a = cfg.arrays
    f = kinetics._clamped(f, "fraction")
    S = np.asarray(S, dtype=float)
    mu = a["mu_max"].reshape(-1, 1)
    K = a["K"].reshape(mu.shape)
    dload = mu * kinetics.dmonod(S[a["substrate_of"]], K) * f \
        * a["rho_Y"].reshape(mu.shape)
    W = cfg.stoichiometry.production
    out = np.zeros_like(S)
    for i, j in enumerate(a["substrate_of"]):
        out[j] += float(W[j][i]) * dload[i]
    return out


def assert_bitwise(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def random_grid(rng, K=201):
    """Fractions with signed zeros and substrates with signed zeros and
    negative entries, which the rates clamp."""
    f = rng.random((3, K)) / 3.0
    f[rng.random((3, K)) < 0.3] = 0.0
    f[rng.random((3, K)) < 0.1] = -0.0
    S = rng.normal(20.0, 40.0, (3, K))
    S[rng.random((3, K)) < 0.1] = 0.0
    S[rng.random((3, K)) < 0.1] = -0.0
    return f, S


class TestRowKernels:
    @pytest.mark.parametrize("cfg", [CASE1, SHARED, SPLIT],
                             ids=["case1", "shared", "split"])
    def test_row_rate_bitwise_equal_to_full_rates(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f, S = random_grid(rng)
            rate = kinetics.substrate_row_rates(f, S, cfg)
            full = kinetics.substrate_rates(f, S, cfg)
            for j in range(3):
                assert_bitwise(rate(j, S[j]), full[j])
            # replace rows one at a time; later rows see the earlier ones
            for j in rng.permutation(3):
                S[j] = random_grid(rng)[1][j]
                assert_bitwise(rate(j, S[j]), kinetics.substrate_rates(f, S, cfg)[j])

    @pytest.mark.parametrize("f, s", [
        (np.full(3, 0.2), 20.0),
        (np.full((3, 1), 0.2), 20.0),
        (np.full((3, 5), 0.2), np.full(4, 20.0)),
        (np.full((2, 5), 0.2), np.full(5, 20.0)),
    ], ids=["point", "scalar-s", "s-off-grid", "species-short"])
    @pytest.mark.parametrize("j", [0, 2])
    def test_row_jacobian_rejects_points(self, f, s, j):
        # with two consumers of substrate 1 a point would broadcast into one
        # value per consumer, with one into a (1,) array
        with pytest.raises(ValueError, match="need f"):
            kinetics.substrate_rate_jacobian_diag(f, s, j, SHARED)

    @pytest.mark.parametrize("cfg", [CASE1, SHARED, SPLIT],
                             ids=["case1", "shared", "split"])
    def test_row_jacobian_bitwise_equal_to_all_rows_loop(self, cfg):
        rng = np.random.default_rng(12)
        for _ in range(50):
            f, S = random_grid(rng)
            full = all_rows_jacobian_diag(f, S, cfg)
            for j in range(3):
                assert_bitwise(kinetics.substrate_rate_jacobian_diag(f, S[j], j, cfg),
                               full[j])


class TestColonization:
    def test_hand_value(self):
        Psi = np.array([100.0, 0.0, 0.0])
        S = np.array([100.0, 0.0, 0.0])
        r = rates(CASE2, S=S, Psi=Psi).r_col
        assert r[0] == pytest.approx((2.5 / 5000.0) * (100 / 101) * 100.0, rel=1e-15)
        assert r[0] == pytest.approx(0.049505, rel=1e-5)

    def test_no_planktonic_no_colonization(self):
        bundle = rates(CASE2, np.full(3, 0.3), np.full(3, 10.0), np.zeros(3))
        np.testing.assert_array_equal(bundle.r_col, np.zeros(3))
        np.testing.assert_array_equal(bundle.r_Psi, np.zeros(3))

    def test_disabled_recovers_attachment_only_model(self):
        Psi = np.full(3, 100.0)
        S = np.full(3, 100.0)
        f = np.array([0.4, 0.3, 0.3])
        bundle = rates(CASE1, f, S, Psi)
        np.testing.assert_array_equal(bundle.r_col, np.zeros(3))
        np.testing.assert_array_equal(bundle.r_Psi, np.zeros(3))
        np.testing.assert_array_equal(bundle.r_M, rates(CASE1, f, S).r_M)
        assert bundle.G == bundle.r_M.sum()

    def test_conversion_hand_value(self):
        Psi = np.array([100.0, 0.0, 0.0])
        S = np.array([100.0, 0.0, 0.0])
        bundle = rates(CASE2, S=S, Psi=Psi)
        r, r_psi = bundle.r_col, bundle.r_Psi
        assert r_psi[0] == pytest.approx(-(5000.0 / 2e-7) * r[0], rel=1e-14)
        assert r_psi[0] == pytest.approx(-1.2376e9, rel=1e-4)
        assert np.all(r_psi <= 0.0)

    def test_linearity_in_planktonic(self):
        S = np.array([80.0, 3.0, 12.0])
        Psi = np.array([10.0, 20.0, 5.0])
        r1 = rates(CASE2, S=S, Psi=Psi).r_Psi
        r2 = rates(CASE2, S=S, Psi=2.0 * Psi).r_Psi
        np.testing.assert_allclose(r2, 2.0 * r1, rtol=1e-14)

    def test_sink_coefficients_match_conversion(self):
        S = np.array([80.0, 3.0, 12.0])
        Psi = np.array([10.0, 20.0, 5.0])
        kappa = kinetics.planktonic_sink_coefficients(S, CASE2)
        np.testing.assert_allclose(rates(CASE2, S=S, Psi=Psi).r_Psi,
                                   -kappa * Psi, rtol=1e-14)


class TestSourceG:
    def test_zero_substrates(self):
        G = rates(CASE2, np.full(3, 0.3), np.zeros(3), np.full(3, 5.0)).G
        assert G == 0.0

    def test_case1_fresh_interface_value(self):
        f = np.array([0.5, 0.5, 0.0])
        S = np.array([100.0, 100.0, 0.0])
        G = rates(CASE1, f, S).G
        # r_M1 = 0.4*(100/101)*0.5, r_M2 = 1.5*(100/120)*0.5
        assert G == pytest.approx(0.19802 + 0.625, rel=1e-4)

    def test_bitwise_consistency_with_bundle(self):
        rng = np.random.default_rng(42)
        cases = ([(CASE2, ())] * 1000
                 + [(cfg, trail) for cfg in (CASE2, SHARED) for trail in TRAILING] * 50)
        for cfg, trail in cases:
            f, S, Psi = random_state(rng, trail)
            bundle = kinetics.rate_bundle(f, S, Psi, cfg)
            manual = (bundle.r_M[0] + bundle.r_col[0])
            for i in (1, 2):
                manual = manual + (bundle.r_M[i] + bundle.r_col[i])
            assert np.array_equal(manual, bundle.G)
            # each part is its rate law, evaluated in the same order
            a = cfg.arrays
            col = lambda v: v.reshape((-1,) + (1,) * len(trail))
            limitation = kinetics.monod(S[a["substrate_of"]], col(a["K"]))
            r_col = col(a["k_col"] / a["rho"]) * limitation * Psi
            np.testing.assert_array_equal(bundle.r_M, col(a["mu_max"]) * limitation * f)
            np.testing.assert_array_equal(bundle.r_col, r_col)
            np.testing.assert_array_equal(bundle.r_S, kinetics.substrate_rates(f, S, cfg))
            np.testing.assert_array_equal(bundle.r_Psi,
                                          -col(a["rho"] / a["Y_psi"]) * r_col)

    def test_rates_continuous_at_clamp(self):
        f = np.full(3, 0.2)
        Psi = np.full(3, 1.0)
        below = kinetics.rate_bundle(f, np.full(3, -1e-12), Psi, CASE2)
        at_zero = kinetics.rate_bundle(f, np.zeros(3), Psi, CASE2)
        np.testing.assert_array_equal(below.G, at_zero.G)
        np.testing.assert_array_equal(below.r_S, at_zero.r_S)


def network_load(f, S, cfg):
    """The per-species load rho_i * r_M[i] / Y_i that the network weighs."""
    r_m = kinetics.rate_bundle(f, S, np.zeros_like(f), cfg).r_M
    return r_m * cfg.arrays["rho_Y"].reshape((-1,) + (1,) * (r_m.ndim - 1))


def species_order_rates(f, S, cfg):
    """r_S written in Python floats: each row starts from +0.0 and adds
    w * load[i] for its nonzero coefficients w, in species order."""
    load = network_load(f, S, cfg)
    production = cfg.stoichiometry.production
    out = np.empty((len(production),) + load.shape[1:])
    for node in np.ndindex(load.shape[1:]):
        for j, row in enumerate(production):
            acc = 0.0
            for i, w in enumerate(row):
                if w != 0.0:
                    acc += float(w) * float(load[(i,) + node])
            out[(j,) + node] = acc
    return out


# Zeros of either sign, drawn now and then among generic values: production
# coefficients other than +-1, whose products round, fractions and substrates,
# which may be negative (the rates clamp them).
ZERO = st.sampled_from([0.0, -0.0])
NON_UNIT = st.floats(-4.0, 4.0).filter(lambda w: abs(w) >= 0.05 and abs(w) != 1.0)
COEFFICIENT = st.one_of(ZERO, NON_UNIT, NON_UNIT, NON_UNIT)
# A species consumes only its limiting substrate: other coefficients are >= 0.
OFF_OWN = COEFFICIENT.filter(lambda w: not w < 0.0)
FRACTION = st.one_of(ZERO, st.floats(0.01, 1.0), st.floats(0.01, 1.0))
SUBSTRATE = st.one_of(ZERO, st.floats(-50.0, 150.0), st.floats(-50.0, 150.0))


def grid(shape, elements):
    return hnp.arrays(float, shape, elements=elements, fill=st.nothing())


@st.composite
def networks(draw):
    """Case2 cut to 1-3 species and 1-3 substrates with any ``substrate_of``
    and non-unit coefficients (negative only on a species' limiting
    substrate), one production row all zero; a grid of fractions and
    substrates (signed zeros, negative S); and a sequence of substrate-row
    replacements."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    substrate_of = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    production = [[draw(COEFFICIENT if k == j else OFF_OWN) for k in substrate_of]
                  for j in range(m)]
    production[draw(st.integers(0, m - 1))] = [0.0] * n
    cfg = dataclasses.replace(
        CASE2, species=CASE2.species[:n], substrates=CASE2.substrates[:m],
        bulk=dataclasses.replace(CASE2.bulk, psi_star=CASE2.bulk.psi_star[:n],
                                 s_star=CASE2.bulk.s_star[:m]),
        stoichiometry=Stoichiometry(substrate_of=substrate_of,
                                    production=tuple(map(tuple, production))))
    K = draw(st.integers(1, 6))
    f, S = draw(grid((n, K), FRACTION)), draw(grid((m, K), SUBSTRATE))
    replacements = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                           grid(K, SUBSTRATE)), max_size=4))
    return cfg, f, S, replacements


class TestGeneralStoichiometry:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(networks())
    def test_every_row_is_the_species_order_sum(self, case):
        cfg, f, S, replacements = case
        assert validate_config(cfg).ok
        expect = species_order_rates(f, S, cfg)
        assert_bitwise(kinetics.substrate_rates(f, S, cfg), expect)
        assert_bitwise(kinetics.rate_bundle(f, S, np.zeros_like(f), cfg).r_S, expect)
        rate = kinetics.substrate_row_rates(f, S, cfg)
        for j in range(cfg.m):
            assert_bitwise(rate(j, S[j]), expect[j])
        for j, s in replacements:
            S[j] = s
            assert_bitwise(rate(j, s), kinetics.substrate_rates(f, S, cfg)[j])
        full = all_rows_jacobian_diag(f, S, cfg)
        for j in range(cfg.m):
            assert_bitwise(kinetics.substrate_rate_jacobian_diag(f, S[j], j, cfg),
                           full[j])

    @pytest.mark.parametrize("trail", TRAILING)
    def test_substrate_rates_equal_tensordot(self, trail):
        # bitwise the species-order sum, and within a few ulp of the BLAS
        # product, which may add the terms in another order
        rng = np.random.default_rng(3)
        W = np.array(SHARED.stoichiometry.production)
        for _ in range(20):
            f, S, _ = random_state(rng, trail)
            got = kinetics.substrate_rates(f, S, SHARED)
            assert got.shape == (3,) + trail
            assert_bitwise(got, species_order_rates(f, S, SHARED))
            load = network_load(f, S, SHARED)
            ulp_scale = np.tensordot(np.abs(W), np.abs(load), axes=(1, 0))
            assert np.all(np.abs(got - np.tensordot(W, load, axes=(1, 0)))
                          <= 4 * np.finfo(float).eps * ulp_scale)

    def test_shared_substrate_sums_both_consumers(self):
        assert validate_config(SHARED).ok
        f = np.array([0.2, 0.3, 0.1])
        S = np.array([50.0, 10.0, 20.0])
        a = SHARED.arrays
        load = rates(SHARED, f, S).r_M * a["rho_Y"]
        r_s = kinetics.substrate_rates(f, S, SHARED)
        assert r_s[0] == pytest.approx(-1.3 * load[0] - 0.7 * load[1], rel=1e-14)
        assert r_s[1] == pytest.approx(0.25 * load[0], rel=1e-14)
        assert r_s[2] == pytest.approx(0.6 * load[0] - 2.5 * load[2], rel=1e-14)
