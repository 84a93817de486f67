"""The benchmark's per-layer tracer still finds every binding it patches.

``perfbench/tracing.py`` wraps module attributes by name; a refactor that
moves or renames one of them would otherwise surface only as a failed
traced benchmark op.
"""

import dataclasses
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

import biofilm1d
import biofilm1d.cli  # noqa: F401  (the tracer patches bindings on the CLI module)
from biofilm1d.errors import BoundaryLayerResolutionWarning

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


def bound(mod, attr):
    return getattr(getattr(biofilm1d, mod), attr)


def test_install_patches_every_binding_and_close_restores_it(tracing):
    originals = {(mod, attr): bound(mod, attr) for mod, attr, _ in tracing.BINDINGS}
    tracer = tracing.Tracer()
    tracer.install(biofilm1d)
    try:
        for (mod, attr), original in originals.items():
            assert bound(mod, attr).__wrapped__ is original
    finally:
        tracer.close()
    for (mod, attr), original in originals.items():
        assert bound(mod, attr) is original


def test_traced_cross_check_reaches_the_wrapped_layers(tracing):
    # the calls of the oracle cross-check, on a short case1 horizon
    cli = biofilm1d.cli
    cfg = biofilm1d.build_preset("case1").cfg
    cfg = dataclasses.replace(cfg, numerics=dataclasses.replace(cfg.numerics, N=40))
    tracer = tracing.Tracer()
    tracer.install(biofilm1d)
    try:
        fields, _ = cli.picard_solve(cfg, 0.01, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
            result = cli.run_scenario(cli._short_numerics(cfg, 0.01),
                                      record_profiles=True)
        cli.map_run_to_char_grid(result, fields.times)
    finally:
        tracer.close()
    layers = tracer.metrics()
    for name in ("oracle.characteristic_trace.calls", "stepper.steps",
                 "stepper.parcels.max", "elliptic.solve_substrates.calls",
                 "elliptic.tridiagonal_solve.calls",
                 "kinetics.rate_bundle.calls", "kinetics.substrate_rates.calls",
                 "kinetics.substrate_rate_jacobian_diag.calls",
                 "oracle.picard_solve.iters"):
        assert layers[name] > 0, name
    assert np.isfinite(layers["oracle.map_run_to_char_grid.self_s"])


def test_traced_emit_counts_the_written_bytes(tracing, tmp_path):
    cli = biofilm1d.cli
    cfg = biofilm1d.build_preset("case1").cfg
    cfg = dataclasses.replace(
        cfg, numerics=dataclasses.replace(cfg.numerics, N=24, dt_max=5e-4),
        horizon=0.02, snapshot_times=(0.01, 0.02))
    result = cli.run_scenario(cfg)
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.install(biofilm1d)
    try:
        cli.emit(result, out, notes=("traced",))
    finally:
        tracer.close()
    layers = tracer.metrics()
    written = sum(p.stat().st_size for p in out.iterdir())
    assert written > 0
    assert layers["output.emit.bytes"] == written
    assert layers["output.emit.self_s"] > 0.0
    # the stepping workloads, which emit, must see the layer in every traced op
    expected = load_perfbench("workload").EXPECTED_LAYERS
    for workload in ("preset-case2", "refine-n2400"):
        assert "output.emit.bytes" in expected[workload], workload


def test_traced_case2_run_reaches_every_expected_layer(tracing, tmp_path):
    # a short case2 run through the CLI, as the preset-case2 op makes it: a
    # binding bound at import time or a dropped kinetics call would leave one
    # of the layers the benchmark requires at zero
    cli = biofilm1d.cli
    cfg = biofilm1d.build_preset("case2").cfg
    cfg = dataclasses.replace(
        cfg, numerics=dataclasses.replace(cfg.numerics, N=40), horizon=0.05,
        snapshot_times=(0.05,))
    config = tmp_path / "short-case2.cfg"
    biofilm1d.configio.save(cfg, config)
    tracer = tracing.Tracer()
    tracer.install(biofilm1d)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
            assert cli.cli(["run", "--config", str(config),
                            "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.close()
    layers = tracer.metrics()
    assert layers["output.emit.bytes"] > 0
    for name in load_perfbench("workload").EXPECTED_LAYERS["preset-case2"]:
        assert layers[name] > 0, name


def test_traced_run_counts_steps_snapshots_and_parcels(tracing):
    # the counters read what the run records: a snapshot solve outside
    # make_snapshot would count as a step, and a rate evaluation off the
    # parcels would misreport their count
    cli = biofilm1d.cli
    cfg = biofilm1d.build_preset("case1").cfg
    cfg = dataclasses.replace(
        cfg, numerics=dataclasses.replace(cfg.numerics, N=24, dt_max=5e-4),
        horizon=0.02, snapshot_times=(0.01, 0.02))
    tracer = tracing.Tracer()
    tracer.install(biofilm1d)
    try:
        result = cli.run_scenario(cfg, record_profiles=True)
    finally:
        tracer.close()
    layers = tracer.metrics()
    assert len(result.snapshots) == 2
    assert layers["stepper.steps"] == result.boundary.t.size - 1 == 40
    assert layers["stepper.make_snapshot.calls"] == len(result.snapshots)
    # every record but the horizon's is a step start
    assert layers["stepper.parcels.max"] == max(z.size for z in result.profiles.parcel_z[:-1])
