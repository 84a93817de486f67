import dataclasses
import decimal
import math

import pytest
from hypothesis import given, strategies as st

from biofilm1d.errors import ConfigError
from biofilm1d.model import Violation, validate_config
from biofilm1d.presets import build_preset
from biofilm1d.stepper import run
from biofilm1d.traces import (RAMP_VARIANTS, BulkTraces, ConstantTrace, RampTrace,
                              TableTrace, parse_descriptor)


class TestPsi3Ramp:
    def test_zero_up_to_arrival(self):
        assert RampTrace(100.0, 0.2)(0.0) == 0.0
        assert RampTrace(100.0, 0.2)(0.2) == 0.0
        assert RampTrace(100.0, 0.2, "corrected")(0.1999) == 0.0

    def test_saturates_at_bulk_value(self):
        # far past arrival the ramp approaches its plateau
        assert RampTrace(100.0, 0.2, "printed")(50.0) == pytest.approx(100.0, rel=1e-12)
        assert RampTrace(100.0, 0.2, "corrected")(50.0) == pytest.approx(100.0, rel=1e-6)

    def test_corrected_halfway_point(self):
        # numerator equals the denominator constant at t - t1 = t1: r = 1
        assert RampTrace(100.0, 0.2, "corrected")(0.4) == 50.0

    def test_printed_constant_ignores_the_decimal_context(self):
        # t1**(1/t1) is rounded under the ramp's own context, so a caller's
        # decimal precision cannot move a bit of the value
        with decimal.localcontext(decimal.Context(prec=3)):
            inside = RampTrace(100.0, 0.2)(0.2003)
        outside = RampTrace(100.0, 0.2)(0.2003)
        assert 0.0 < outside < 100.0
        assert inside.hex() == outside.hex()

    @pytest.mark.parametrize("variant", RAMP_VARIANTS)
    def test_smallest_steps_past_arrival(self, variant):
        # t1 + 1e-300 rounds to t1; the first float past t1 gives the largest
        # r**10 a float t reaches on this ramp, still finite, and no
        # OverflowError
        ramp = RampTrace(100.0, 0.2, variant)
        assert ramp(0.2 + 1e-300) == 0.0
        assert 0.0 < ramp(math.nextafter(0.2, 1.0)) < 1e-100

    def test_printed_constant_that_underflows(self):
        # t1**(10/t1) = 1e-30000 is 0 in floats: full value right after t1
        assert RampTrace(100.0, 1e-3)(2e-3) == 100.0

    def test_printed_denominator_constant(self):
        # one hand-evaluated interior point: d**10 / (t1**(10/t1) + d**10)
        t1, d = 0.5, 0.25
        expected = 100.0 * d**10 / (t1 ** (10.0 / t1) + d**10)
        assert RampTrace(100.0, t1, "printed")(t1 + d) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(0.05, 2.0), st.floats(1e-4, 3.0), st.floats(1e-4, 3.0))
    def test_nondecreasing(self, t1, d1, d2):
        lo, hi = sorted((d1, d2))
        for variant in RAMP_VARIANTS:
            a = RampTrace(100.0, t1, variant)(t1 + lo)
            b = RampTrace(100.0, t1, variant)(t1 + hi)
            assert b >= a
            assert 0.0 <= a <= 100.0

    def test_strictly_increasing_where_representable(self):
        t1 = 0.2
        for variant in RAMP_VARIANTS:
            prev = RampTrace(100.0, t1, variant)(t1 + 1e-3)
            for k in range(2, 40):
                cur = RampTrace(100.0, t1, variant)(t1 + k * 1e-3)
                if 0.0 < prev < 100.0 * (1.0 - 1e-12):
                    assert cur > prev
                prev = cur


class TestDescriptors:
    def test_constant(self):
        tr = ConstantTrace(5.0)
        assert tr(0.0) == tr(3.0) == 5.0
        assert tr.breakpoints() == ()

    def test_table_interpolation(self):
        tr = TableTrace((0.0, 1.0, 3.0), (10.0, 20.0, 0.0))
        assert tr(-1.0) == 10.0
        assert tr(0.5) == 15.0
        assert tr(2.0) == 10.0
        assert tr(5.0) == 0.0
        assert tr.breakpoints() == (0.0, 1.0, 3.0)

    def test_table_rejects_bad_knots(self):
        with pytest.raises(ConfigError):
            TableTrace((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ConfigError):
            TableTrace((0.0,), (1.0, 2.0))

    @pytest.mark.parametrize("times, values, name", [
        (None, None, "times"),
        (1.0, 2.0, "times"),
        ((0.0, 1.0), 2.0, "values"),
    ])
    def test_table_rejects_knots_that_are_not_sequences(self, times, values, name):
        with pytest.raises(ConfigError, match=f"table trace {name} must be a tuple or list"):
            TableTrace(times, values)

    def test_list_knots_validate_like_tuples(self):
        assert TableTrace([0.0, 1.0], [100.0, -1.0]) == TableTrace((0.0, 1.0), (100.0, -1.0))
        cfg = build_preset("case1").cfg
        for knots in ([0.0, 1.0], (0.0, 1.0)):
            table = TableTrace(knots, [100.0, -1.0])
            bulk = dataclasses.replace(cfg.bulk, s_star=(table,) + cfg.bulk.s_star[1:])
            report = validate_config(dataclasses.replace(cfg, bulk=bulk))
            assert report.violations == (Violation(
                "bulk.s.1", "bulk trace must stay >= 0 over the horizon"),)

    @pytest.mark.parametrize("tr", [
        ConstantTrace(7.5),
        RampTrace(100.0, 0.2, "printed"),
        RampTrace(100.0, 0.35, "corrected"),
        TableTrace((0.0, 2.0, 4.5), (1.0, 0.5, 3.25)),
    ])
    def test_descriptor_round_trip(self, tr):
        assert parse_descriptor(tr.descriptor()) == tr

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_descriptor("sine,1,2")
        with pytest.raises(ConfigError):
            parse_descriptor("constant")

    @pytest.mark.parametrize("text", ["constant,100,5", "ramp,100,0.2,printed,junk"])
    def test_parse_rejects_trailing_fields(self, text):
        with pytest.raises(ConfigError, match=f"bad trace descriptor '{text}'"):
            parse_descriptor(text)

    @pytest.mark.parametrize("t1", [0.0, -1.0])
    def test_ramp_rejects_nonpositive_arrival(self, t1):
        with pytest.raises(ConfigError, match="arrival time"):
            RampTrace(100.0, t1)
        with pytest.raises(ConfigError, match="bad trace descriptor"):
            parse_descriptor(f"ramp,100.0,{t1},printed")

    def test_ramp_rejects_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown ramp variant 'sideways'"):
            RampTrace(100.0, 0.2, "sideways")
        with pytest.raises(ConfigError, match="bad trace descriptor"):
            parse_descriptor("ramp,100.0,0.2,sideways")

    def test_ramp_leaves_non_finite_arrival_to_validation(self):
        # validate_config reports these as "must be finite" on their field
        for t1 in (math.inf, -math.inf, math.nan):
            assert RampTrace(100.0, t1).t1 is t1

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: RampTrace(50.0, "0.2"), id="ramp-t1-str"),
        pytest.param(lambda: RampTrace(50.0, None), id="ramp-t1-none"),
        pytest.param(lambda: TableTrace((0.0, "1"), (1.0, 2.0)), id="table-time-str"),
        # a tuple in a field declared a number is not flattened into numbers
        pytest.param(lambda: RampTrace(50.0, (0.2,)), id="ramp-t1-tuple"),
        pytest.param(lambda: RampTrace((50.0,), 0.2), id="ramp-psi30-tuple"),
        pytest.param(lambda: ConstantTrace((50.0,)), id="constant-tuple"),
    ])
    def test_constructors_leave_non_real_fields_to_validation(self, build):
        # the constructor makes no comparison that raises on a non-real
        # field, so validate_config gets to report that field, and a run
        # stops there
        cfg = build_preset("case1").cfg
        bulk = dataclasses.replace(cfg.bulk, psi_star=cfg.bulk.psi_star[:2] + (build(),))
        cfg = dataclasses.replace(cfg, bulk=bulk)
        assert validate_config(cfg).violations == (
            Violation("bulk.psi.3", "must be a real number"),)
        with pytest.raises(ConfigError, match="bulk.psi.3: must be a real number"):
            run(cfg)

    def test_bulk_breakpoints_merge(self):
        bulk = BulkTraces(
            psi_star=(ConstantTrace(1.0), RampTrace(5.0, 0.3)),
            s_star=(TableTrace((0.0, 0.3, 1.0), (1.0, 2.0, 3.0)),))
        assert bulk.breakpoints() == (0.0, 0.3, 1.0)
        # the scenario evaluates the traces, one value per species/substrate
        cfg = dataclasses.replace(build_preset("case1").cfg, bulk=bulk)
        assert cfg.psi_star(0.0).tolist() == [1.0, 0.0]
        assert cfg.s_star(0.15).tolist() == [1.5]
