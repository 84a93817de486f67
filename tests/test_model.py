import ast
import dataclasses
import math
import numbers
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biofilm1d
from biofilm1d import model
from biofilm1d.errors import ConfigError, NoAttachment
from biofilm1d.model import (CONSTRAINT_TOL, NumericsConfig, ScenarioConfig, Snapshot,
                             SpeciesParams, Stoichiometry, SubstrateParams,
                             Violation, attaching, validate_config)
from biofilm1d.oracle import picard_solve
from biofilm1d.presets import build_preset
from biofilm1d.stepper import _predicted_S, _seed, run
from biofilm1d.traces import BulkTraces, ConstantTrace, RampTrace, TableTrace


def make_cfg(psi=(100.0, 100.0, 0.0), v_a=(0.025, 0.025, 0.025), **overrides):
    species = tuple(
        SpeciesParams(mu_max=0.4, K=1.0, Y=0.4, rho=5000.0, v_a=v,
                      k_col=0.0, Y_psi=2e-7, D_psi=1e-5)
        for v in v_a)
    base = dict(
        species=species,
        substrates=(SubstrateParams(1e-5),) * 3,
        delta=2000.0,
        bulk=BulkTraces(psi_star=tuple(ConstantTrace(p) for p in psi),
                        s_star=(ConstantTrace(100.0),) * 3),
        stoichiometry=Stoichiometry.builtin3x3(),
        numerics=NumericsConfig(N=32),
        horizon=1.0,
        snapshot_times=(0.5, 1.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def with_trace(cfg, kind, k, trace):
    """``cfg`` with bulk trace ``k`` of ``kind`` (psi_star or s_star) replaced."""
    traces = list(getattr(cfg.bulk, kind))
    traces[k] = trace
    return dataclasses.replace(
        cfg, bulk=dataclasses.replace(cfg.bulk, **{kind: tuple(traces)}))


def with_production_row_3(cfg, x):
    """``cfg`` with production row 3 set to (x, 0.3, -0.9)."""
    st = cfg.stoichiometry
    return dataclasses.replace(cfg, stoichiometry=dataclasses.replace(
        st, production=st.production[:2] + ((x, 0.3, -0.9),)))


# Values a scenario may hold where a number, a sequence or a section belongs.
# Some are valid in some places: 0 as a rate, True as a count, (1.0,) as the
# snapshot times.
POOL = (None, "1", math.nan, math.inf, -math.inf, -1, 0, (1.0,), [], True,
        np.int64(3))
# invalid wherever a number belongs; the others depend on the field's range
NOT_A_NUMBER = (None, "1", math.nan, math.inf, -math.inf, (1.0,), [])

# case2 with a table for the third substrate's bulk, so tuple fields are drawn
FUZZ_BASE = with_trace(build_preset("case2").cfg, "s_star", 2,
                       TableTrace((0.0, 1.0), (0.0, 5.0)))


def _paths(obj, path=()):
    """Every field, section and entry path of a configuration below ``obj``."""
    if isinstance(obj, (tuple, list)):
        children = enumerate(obj)
    elif dataclasses.is_dataclass(obj):
        children = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
                    if f.type != "str")
    else:
        return []
    return [p for key, child in children
            for p in [path + (key,)] + _paths(child, path + (key,))]


TARGETS = tuple(_paths(FUZZ_BASE))


def replaced(obj, path, value):
    """``obj`` with the entry at ``path`` replaced by ``value``, rebuilt
    through the constructors."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(key, int):
        return obj[:key] + (replaced(obj[key], rest, value),) + obj[key + 1:]
    return dataclasses.replace(obj, **{key: replaced(getattr(obj, key), rest, value)})


def reported_name(path):
    """The field name a violation at ``path`` is reported under: a trace's
    numbers on the trace, a sequence's entries on the sequence."""
    heads = {"substrates": "substrate", "delta": "scenario.delta",
             "horizon": "scenario.horizon", "snapshot_times": "scenario.snapshot_times",
             "psi_star": "psi", "s_star": "s"}
    name = ".".join(str(key + 1) if isinstance(key, int) else heads.get(key, key)
                    for key in path)
    return re.match(r"bulk\.(psi|s)\.\d+|stoichiometry\.(substrate_of|production\.\d+)"
                    r"|scenario\.snapshot_times|.*", name).group()


def invalid(path, value):
    """True when ``value`` at ``path`` of FUZZ_BASE breaks a declared rule
    by itself: any pool value as a section, an entry or a sequence, and a
    value that is no finite real as a number."""
    leaf = FUZZ_BASE
    for key in path:
        leaf = leaf[key] if isinstance(key, int) else getattr(leaf, key)
    if path == ("snapshot_times",):
        return not isinstance(value, (tuple, list))
    if isinstance(leaf, numbers.Number):
        return any(value is bad for bad in NOT_A_NUMBER)
    return True


class TestValidateConfig:
    def test_presets_are_valid(self):
        for pid in ("case1", "case2", "case3"):
            assert validate_config(build_preset(pid).cfg).ok

    def test_zero_half_saturation_flagged(self):
        cfg = make_cfg()
        bad = (dataclasses.replace(cfg.species[0], K=0.0),) + cfg.species[1:]
        report = validate_config(dataclasses.replace(cfg, species=bad))
        assert not report.ok
        assert any(v.field == "species.1.K" and "K must be > 0" in v.constraint
                   for v in report.violations)

    def test_snapshot_outside_horizon_flagged(self):
        report = validate_config(make_cfg(horizon=10.0, snapshot_times=(11.0,)))
        assert any("snapshot outside horizon" in v.constraint
                   for v in report.violations)

    def test_unsorted_snapshots_flagged(self):
        report = validate_config(make_cfg(snapshot_times=(0.5, 0.25)))
        assert any("sorted" in v.constraint for v in report.violations)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field_name, build", [
        ("species.2.mu_max", lambda cfg, x: dataclasses.replace(cfg, species=(
            cfg.species[0], dataclasses.replace(cfg.species[1], mu_max=x),
            cfg.species[2]))),
        ("species.1.D_psi", lambda cfg, x: dataclasses.replace(cfg, species=(
            dataclasses.replace(cfg.species[0], D_psi=x),) + cfg.species[1:])),
        ("substrate.3.D", lambda cfg, x: dataclasses.replace(
            cfg, substrates=cfg.substrates[:2] + (SubstrateParams(x),))),
        ("scenario.delta", lambda cfg, x: dataclasses.replace(cfg, delta=x)),
        ("scenario.horizon", lambda cfg, x: dataclasses.replace(cfg, horizon=x)),
        ("scenario.snapshot_times",
         lambda cfg, x: dataclasses.replace(cfg, snapshot_times=(0.5, x))),
        ("numerics.dt_max", lambda cfg, x: dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, dt_max=x))),
        ("numerics.L_eps", lambda cfg, x: dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, L_eps=x))),
        ("numerics.newton_tol", lambda cfg, x: dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, newton_tol=x))),
        ("numerics.picard_tol", lambda cfg, x: dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, picard_tol=x))),
        ("bulk.s.1", lambda cfg, x: with_trace(cfg, "s_star", 0, ConstantTrace(x))),
        ("bulk.psi.3", lambda cfg, x: with_trace(cfg, "psi_star", 2, RampTrace(x, 0.2))),
        ("bulk.psi.3", lambda cfg, x: with_trace(cfg, "psi_star", 2, RampTrace(50.0, x))),
        ("bulk.s.2", lambda cfg, x: with_trace(
            cfg, "s_star", 1, TableTrace((0.0, 1.0), (100.0, x)))),
        ("stoichiometry.production.3", with_production_row_3),
    ])
    def test_non_finite_value_flagged(self, field_name, build, value):
        report = validate_config(build(make_cfg(), value))
        assert Violation(field_name, "must be finite") in report.violations

    @pytest.mark.parametrize("times", [(0.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_table_time_flagged(self, times):
        cfg = with_trace(make_cfg(), "s_star", 2, TableTrace(times, (100.0, 50.0)))
        report = validate_config(cfg)
        assert Violation("bulk.s.3", "must be finite") in report.violations

    @pytest.mark.parametrize("name, bad, good", [
        ("N", 40.0, np.int64(40)),
        ("N", 40.5, np.int32(41)),
        ("N", "200", np.int64(200)),
        ("newton_max_iter", 50.0, np.int64(50)),
        ("picard_max_iter", 2.5, np.int16(3)),
    ])
    def test_non_integer_count_reported(self, name, bad, good):
        # a count that is not an integer is reported once, without a range
        # check that could raise on it; numpy integers are integers
        def with_count(value):
            nm = dataclasses.replace(make_cfg().numerics, **{name: value})
            return validate_config(make_cfg(numerics=nm))

        report = with_count(bad)
        assert report.violations == (Violation(f"numerics.{name}", "must be an integer"),)
        assert with_count(good).ok

    @pytest.mark.parametrize("field_name, build", [
        ("numerics.dt_max", lambda cfg: dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, dt_max="1e-3"))),
        ("numerics.newton_tol", lambda cfg: dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, newton_tol=None))),
        ("scenario.delta", lambda cfg: dataclasses.replace(cfg, delta="2000")),
        ("species.1.K", lambda cfg: dataclasses.replace(cfg, species=(
            dataclasses.replace(cfg.species[0], K="1"),) + cfg.species[1:])),
        ("bulk.psi.3", lambda cfg: with_trace(cfg, "psi_star", 2, RampTrace("50", 0.2))),
        ("stoichiometry.production.3", lambda cfg: with_production_row_3(cfg, "0.7")),
        ("stoichiometry.production.3", lambda cfg: with_production_row_3(cfg, None)),
    ])
    def test_non_real_value_reported(self, field_name, build):
        # a float field that is not a real number is reported once, without
        # the finiteness and range checks that would raise on it
        report = validate_config(build(make_cfg()))
        assert report.violations == (Violation(field_name, "must be a real number"),)

    @staticmethod
    def consumer_of_substrate_2(w):
        """Species 1 of case1, limited by substrate 1, with coefficient ``w``
        on substrate 2, whose bulk supplies none; N = 40 to 0.05 d."""
        case1 = build_preset("case1").cfg
        return dataclasses.replace(
            case1, species=case1.species[:1], substrates=case1.substrates[:2],
            bulk=BulkTraces(case1.bulk.psi_star[:1],
                            (case1.bulk.s_star[0], ConstantTrace(0.0))),
            stoichiometry=Stoichiometry((0,), ((-1.0,), (w,))),
            numerics=dataclasses.replace(case1.numerics, N=40),
            horizon=0.05, snapshot_times=())

    def test_consumption_of_a_substrate_that_does_not_limit_reported(self):
        # a consumption that vanishes with neither substrate has no
        # non-negative quasi-static solution once substrate 2 runs out; the
        # run failed in the substrate sweeps instead of being refused
        cfg = self.consumer_of_substrate_2(-2.00001)
        violation = Violation("stoichiometry.production.2",
                              "species 1 may consume only the substrate that limits it")
        assert validate_config(cfg).violations == (violation,)
        with pytest.raises(ConfigError, match="species 1 may consume only"):
            run(cfg)

    @pytest.mark.parametrize("w", [0.5, 0.0, -0.0])
    def test_production_of_another_substrate_valid(self, w):
        assert validate_config(self.consumer_of_substrate_2(w)).ok

    @pytest.mark.parametrize("index", ["2", None, 2.0])
    def test_non_integer_substrate_index_reported(self, index):
        # reported once, without the range check that would raise on it
        st = Stoichiometry((0, 1, index), Stoichiometry.builtin3x3().production)
        report = validate_config(make_cfg(stoichiometry=st))
        assert report.violations == (
            Violation("stoichiometry.substrate_of", "must be an integer"),)

    @pytest.mark.parametrize("name, value", [("N", 41.5), ("newton_max_iter", 50.0),
                                             ("picard_max_iter", 2.5)])
    def test_non_integer_count_rejected_before_use(self, name, value):
        cfg = make_cfg(horizon=0.01, snapshot_times=())
        cfg = dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, **{name: value}))
        with pytest.raises(ConfigError, match=f"numerics.{name}: must be an integer"):
            run(cfg)
        with pytest.raises(ConfigError, match=f"numerics.{name}: must be an integer"):
            picard_solve(cfg, 0.01, 10)

    def test_reports_do_not_raise(self):
        cfg = make_cfg(delta=-1.0)
        report = validate_config(cfg)
        assert not report.ok
        assert "delta" in str(report)
        # a field that is not a sequence is reported once, without the
        # length and entry checks that would raise on it
        cfg = make_cfg()
        st = cfg.stoichiometry
        for field_name, bad in [
            ("stoichiometry.substrate_of", dataclasses.replace(
                cfg, stoichiometry=Stoichiometry(None, st.production))),
            ("stoichiometry.production", dataclasses.replace(
                cfg, stoichiometry=Stoichiometry(st.substrate_of, None))),
            ("stoichiometry.production.3", dataclasses.replace(
                cfg, stoichiometry=Stoichiometry(st.substrate_of, st.production[:2] + (None,)))),
            ("scenario.snapshot_times", make_cfg(snapshot_times=None)),
            ("bulk.psi", make_cfg(bulk=BulkTraces(None, cfg.bulk.s_star))),
        ]:
            report = validate_config(bad)
            assert report.violations == (Violation(field_name, "must be a sequence"),)
        # so is a whole section that is None, without the checks on its
        # fields and the counts against it
        for field_name, constraint in [
            ("species", "must be a sequence"),
            ("substrates", "must be a sequence"),
            ("numerics", "must be a NumericsConfig"),
            ("bulk", "must be a BulkTraces"),
            ("stoichiometry", "must be a Stoichiometry"),
        ]:
            report = validate_config(make_cfg(**{field_name: None}))
            assert report.violations == (Violation(field_name, constraint),)
        # and each entry of a section that is not of its type, without the
        # checks on that entry's fields
        for overrides, tag, constraint in [
            (dict(species=(None,) * 3), "species", "must be a SpeciesParams"),
            (dict(substrates=(None,) * 3), "substrate", "must be a SubstrateParams"),
            (dict(bulk=BulkTraces((None,) * 3, cfg.bulk.s_star)), "bulk.psi",
             "must be a bulk trace"),
        ]:
            report = validate_config(make_cfg(**overrides))
            assert report.violations == tuple(
                Violation(f"{tag}.{i}", constraint) for i in (1, 2, 3))

    # case2's bound on the velocity source: max mu_max + sum k_col psi*_max / rho
    CASE2_G_MAX = 1.5 + sum([2.5 * 100.0 / 5000.0] * 3)

    @staticmethod
    def case2_with(dt_max, **species_1):
        cfg = build_preset("case2").cfg
        return dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, dt_max=dt_max),
            species=(dataclasses.replace(cfg.species[0], **species_1),) + cfg.species[1:])

    def test_step_above_half_the_source_bound_reported(self):
        assert self.CASE2_G_MAX == pytest.approx(1.65, rel=1e-15)
        bound = 0.5 / self.CASE2_G_MAX
        report = validate_config(self.case2_with(np.nextafter(bound, 1.0)))
        assert [v.field for v in report.violations] == ["numerics.dt_max"]
        assert "dt_max * G_max must be <= 0.5" in str(report)
        assert validate_config(self.case2_with(bound)).ok

    def test_step_bound_checked_beside_other_violations(self):
        # a field the bound does not read leaves it checked; a field it reads
        # that is invalid leaves it unchecked, so it cannot divide by zero
        report = validate_config(self.case2_with(1.0, K=0.0))
        assert [v.field for v in report.violations] == ["species.1.K", "numerics.dt_max"]
        report = validate_config(self.case2_with(1.0, rho=0.0))
        assert [v.field for v in report.violations] == ["species.1.rho"]

    def test_trace_bounds(self):
        assert ConstantTrace(3.0).bounds() == (3.0, 3.0)
        assert RampTrace(4.0, 0.5).bounds() == (0.0, 4.0)
        assert RampTrace(-2.0, 0.5).bounds() == (-2.0, 0.0)
        assert TableTrace((0.0, 1.0, 2.0), (1.0, 5.0, 0.5)).bounds() == (0.5, 5.0)
        # the low end is checked against zero ...
        report = validate_config(with_trace(make_cfg(), "psi_star", 2, RampTrace(-2.0, 0.5)))
        assert report.violations == (
            Violation("bulk.psi.3", "bulk trace must stay >= 0 over the horizon"),)
        # ... and the high end bounds colonization: k_col psi / rho = 2.5 psi / 5000
        # adds 100 1/d to case2's G_max at psi = 2e5 and 500 at 1e6
        case2 = build_preset("case2").cfg
        for high, ok in [(2e5, True), (1e6, False)]:
            table = TableTrace((0.0, 1.0), (0.0, high))
            assert validate_config(with_trace(case2, "psi_star", 2, table)).ok == ok

    def test_every_numeric_parameter_has_one_lower_bound(self):
        # validate_config checks each int and float field by its declared
        # type and its bound in one table, so a field added later cannot
        # skip its check; parameter entries hold numbers only
        entries = (SpeciesParams, SubstrateParams, NumericsConfig)
        assert all(f.type in ("int", "float") for cls in entries
                   for f in dataclasses.fields(cls))
        names = [f.name for cls in entries + (ScenarioConfig,)
                 for f in dataclasses.fields(cls) if f.type in ("int", "float")]
        assert len(names) == len(set(names)) == 18
        assert set(names) == set(model._LOWER_BOUNDS)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(TARGETS), st.sampled_from(POOL)),
                    min_size=1, max_size=3, unique_by=lambda r: r[0]))
    def test_replaced_values_are_reported_without_raising(self, replacements):
        cfg = FUZZ_BASE
        try:
            # deepest first, so a replaced section is not walked into
            for path, value in sorted(replacements, key=lambda r: -len(r[0])):
                cfg = replaced(cfg, path, value)
        except ConfigError:
            # a trace constructor rejects some values itself
            assert any(p[0] == "bulk" for p, _ in replacements)
            return
        report = validate_config(cfg)
        if len(replacements) == 1 and invalid(*replacements[0]):
            name = reported_name(replacements[0][0])
            assert any(v.field.startswith(name) or name.startswith(v.field)
                       for v in report.violations), (replacements, report)


def seed_snapshot(cfg):
    """The snapshot of ``cfg`` at t = 0: the seed film under dissolved fields
    equilibrated to it."""
    return run(dataclasses.replace(cfg, horizon=0.0, snapshot_times=(0.0,))).snapshots[0]


class TestInitialState:
    """The film at t = 0: the stepper's seed of thickness L_eps, carrying the
    attachment inflow fractions."""

    def test_equal_velocities_split_by_bulk_abundance(self):
        st = seed_snapshot(make_cfg(psi=(100.0, 100.0, 0.0)))
        np.testing.assert_array_equal(st.f[:, 0], [0.5, 0.5, 0.0])
        assert st.sum_f_drift() == 0.0

    def test_single_attaching_species(self):
        st = seed_snapshot(make_cfg(psi=(100.0, 0.0, 0.0)))
        np.testing.assert_array_equal(st.f[:, 0], [1.0, 0.0, 0.0])

    def test_three_way_split_and_flux(self):
        snap = seed_snapshot(make_cfg(psi=(100.0, 100.0, 100.0)))
        np.testing.assert_allclose(snap.f[:, 0], [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)
        # sigma_a = 3 * v_a * psi / rho = 3 * 0.025 * 100 / 5000
        assert snap.sigma_a == pytest.approx(1.5e-3, rel=1e-14)

    def test_seed_geometry(self):
        cfg = make_cfg()
        seed = _seed(cfg)
        nm = cfg.numerics
        assert seed.t == 0.0
        assert seed.L == nm.L_eps
        np.testing.assert_array_equal(seed.z, [0.0, nm.L_eps])
        # the seed counts as attached over the step before t = 0
        np.testing.assert_array_equal(seed.t0, [-nm.dt_max, 0.0])
        # before the first solve the substrate Newton starts from the bulk
        np.testing.assert_array_equal(_predicted_S([], 0.0, cfg),
                                      np.full((3, nm.N + 1), 100.0))
        snap = seed_snapshot(cfg)
        assert snap.t == 0.0 and snap.L == nm.L_eps
        np.testing.assert_array_equal(snap.zeta, np.arange(nm.N + 1) / nm.N)
        assert abs(snap.u_L) < 1e-8

    def test_deterministic(self):
        a = seed_snapshot(make_cfg())
        b = seed_snapshot(make_cfg())
        for name in ("zeta", "f", "S", "Psi"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_no_attachment_rejected(self):
        with pytest.raises(NoAttachment):
            run(make_cfg(psi=(0.0, 0.0, 0.0)))

    def test_state_arrays_frozen(self):
        st = seed_snapshot(make_cfg())
        with pytest.raises(ValueError):
            st.f[0, 0] = 2.0

    def test_freezes_a_copy_of_the_callers_arrays(self):
        x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        s = Snapshot(t=0.0, L=1.0, f=x, S=x, Psi=x, sigma_a=0.0, sigma_d=0.0, u_L=0.0)
        assert x.flags.writeable
        x[0, 0] = 0.5  # the caller may go on writing its own array
        for name in ("f", "S", "Psi"):
            a = getattr(s, name)
            assert a is not x and not a.flags.writeable
            np.testing.assert_array_equal(a, np.linspace(0.0, 1.0, 6).reshape(2, 3))

    def test_constraint_tolerance_value(self):
        assert CONSTRAINT_TOL == 1e-8


class TestRegime:
    def test_classification_and_tie(self):
        assert attaching(2.0, 1.0) is True
        assert attaching(1.0, 2.0) is False
        assert attaching(1.0, 1.0) is False
        # elementwise on arrays, with the same tie rule
        np.testing.assert_array_equal(
            attaching(np.array([2.0, 1.0, 1.0]), np.array([1.0, 2.0, 1.0])),
            [True, False, False])


def test_model_does_not_import_stepper():
    # The package __init__ imports every module, so the check loads
    # ``biofilm1d.model`` under a bare package object in a fresh interpreter.
    # Building and validating a scenario needs neither the stepper nor the
    # kinetics, and the oracle and the CSV writer read a run's results from
    # ``model`` without the stepper.
    pkg_dir = str(Path(biofilm1d.__file__).resolve().parent)
    src = str(Path(pkg_dir).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, types; pkg = types.ModuleType('biofilm1d'); "
            f"pkg.__path__ = [{pkg_dir!r}]; sys.modules['biofilm1d'] = pkg; "
            "from biofilm1d.model import validate_config; "
            "from biofilm1d.presets import build_preset; "
            "assert validate_config(build_preset('case1').cfg).ok; "
            "print(sorted({'biofilm1d.stepper', 'biofilm1d.kinetics'}"
            " & set(sys.modules))); "
            "import biofilm1d.oracle, biofilm1d.output; "
            "print('biofilm1d.stepper' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["[]", "False"]


def _unread_parameters(node, scope=()):
    """``(qualified function name, parameter)`` for every parameter, ``self``
    aside, that its function's body never reads; closures' reads count."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            name = scope + (getattr(child, "name", "<lambda>"),)
            args = child.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            body = child.body if isinstance(child.body, list) else [child.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from ((".".join(name), p) for p in params
                        if p != "self" and p not in read)
            yield from _unread_parameters(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from _unread_parameters(child, scope + (child.name,))
        else:
            yield from _unread_parameters(child, scope)


_BLAS = {"dot", "tensordot", "matmul", "inner", "vdot", "einsum"}


def _blas_uses(tree):
    """``(line, name)`` for each call of a numpy routine that may run a BLAS
    kernel, each ``@`` and each use or import of ``linalg`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in _BLAS:
                yield node.lineno, name
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield node.lineno, "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("linalg" in n.split(".") or n in _BLAS for n in names):
                yield node.lineno, "import"


def test_package_calls_no_blas_routine():
    # A BLAS kernel is picked by CPU and may round differently from another
    # (FMA or not), so a product through one would make the output bytes
    # depend on the machine; the package keeps to elementwise arithmetic.
    assert [hit for _, hit in sorted(_blas_uses(ast.parse(
        "np.dot(a, b)\na.dot(b)\nx @ y\nx @= y\nnp.linalg.solve(a, b)\n"
        "import numpy.linalg\nfrom numpy import einsum\neinsum('i,i', a, b)\n")))] \
        == ["dot", "dot", "@", "@", "linalg", "import", "import", "einsum"]
    pkg_dir = Path(biofilm1d.__file__).resolve().parent
    uses = sorted((path.name, *hit) for path in pkg_dir.glob("*.py")
                  for hit in _blas_uses(ast.parse(path.read_text())))
    assert uses == []


_LIBM = {"exp", "expm1", "exp2", "log", "log1p", "log2", "log10", "logaddexp",
         "logaddexp2", "pow", "power", "float_power", "sinh", "cosh", "tanh",
         "arcsinh", "arccosh", "arctanh", "asinh", "acosh", "atanh", "sin", "cos",
         "tan", "arcsin", "arccos", "arctan", "arctan2", "asin", "acos", "atan", "atan2"}


def _libm_uses(tree):
    """``(line, name)`` for each call of a transcendental routine of ``math``
    or numpy, each import of one, and each ``**`` whose exponent is not the
    literal 2, in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if not (isinstance(exponent, ast.Constant) and exponent.value == 2):
                yield node.lineno, "**"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _LIBM:
                yield node.lineno, func.id
            elif (isinstance(func, ast.Attribute) and func.attr in _LIBM
                  and getattr(func.value, "id", None) in ("math", "np", "numpy")):
                yield node.lineno, func.attr
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            if any(a.name in _LIBM for a in node.names):
                yield node.lineno, "import"


def test_run_path_calls_no_libm_routine():
    # libm's exp, log and pow, and numpy's transcendental loops (picked by
    # the CPU's SIMD level), may round differently on another machine; a
    # run keeps to IEEE-754 arithmetic, whose +, -, *, / and sqrt are
    # correctly rounded, so its bytes do not depend on either.  numpy's
    # ``a ** 2`` is an exact square.  oracle.py is out of scope:
    # box_from_run's math.exp feeds only the text that ``window`` prints.
    assert [hit for _, hit in sorted(_libm_uses(ast.parse(
        "math.exp(x)\nmath.log(x)\nnp.log1p(x)\nnp.expm1(x)\nnp.power(a, b)\n"
        "numpy.cosh(x)\nmath.pow(x, y)\npow(x, y)\nx ** 10\nx ** 0.5\nx **= 3\n"
        "from math import log\nexp(x)\n(K + s) ** 2\nx **= 2\nmath.sqrt(x)\n"
        "np.logical_and(a, b)\nlogger.log(x)\n")))] \
        == ["exp", "log", "log1p", "expm1", "power", "cosh", "pow", "pow", "**", "**",
            "**", "import", "exp"]
    pkg_dir = Path(biofilm1d.__file__).resolve().parent
    uses = sorted((name, *hit) for name in ("stepper.py", "elliptic.py", "kinetics.py",
                                             "traces.py", "model.py", "output.py")
                  for hit in _libm_uses(ast.parse((pkg_dir / name).read_text())))
    assert uses == []


def test_every_parameter_is_read():
    # An input the body ignores misleads the reader about what a function
    # depends on.  A constant trace is called with t only because every
    # bulk trace is.
    pkg_dir = Path(biofilm1d.__file__).resolve().parent
    unread = sorted((path.name, *hit) for path in pkg_dir.glob("*.py")
                    for hit in _unread_parameters(ast.parse(path.read_text())))
    assert unread == [("traces.py", "ConstantTrace.__call__", "t")]
