import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from biofilm1d import configio
from biofilm1d.errors import BoundaryLayerResolutionWarning, IoFailure
from biofilm1d.model import BoundaryTrace, RunResult, Snapshot
from biofilm1d.output import BOUNDARY_NAME, MANIFEST_NAME, PROFILE_NAME, emit
from biofilm1d.presets import build_preset
from biofilm1d.stepper import run

CASE1 = build_preset("case1").cfg


def tiny_cfg(snapshots=(0.01, 0.02)):
    nm = dataclasses.replace(CASE1.numerics, N=24, dt_max=5e-4)
    return dataclasses.replace(CASE1, numerics=nm, horizon=0.02,
                               snapshot_times=tuple(snapshots))


@pytest.fixture(scope="module")
def tiny_run():
    return run(tiny_cfg())


class TestEmit:
    def test_bundle_layout(self, tiny_run, tmp_path):
        bundle = emit(tiny_run, tmp_path / "out", notes=("note-a",))
        assert bundle.boundary.name == BOUNDARY_NAME
        assert bundle.manifest.name == MANIFEST_NAME
        assert bundle.profiles.name == PROFILE_NAME
        text = bundle.manifest.read_text()
        assert "note = note-a" in text
        assert f"content-sha256 = {bundle.sha256}" in text

    def test_profile_header_and_blocks(self, tiny_run, tmp_path):
        bundle = emit(tiny_run, tmp_path / "out")
        lines = bundle.profiles.read_text().splitlines()
        assert lines[0] == "t,zeta,z,f1,f2,f3,S1,S2,S3,Psi1,Psi2,Psi3"
        N = tiny_run.cfg.numerics.N
        assert len(lines) == 1 + 2 * (N + 1)
        times = {line.split(",", 1)[0] for line in lines[1:]}
        assert times == {"0.01", "0.02"}

    def test_boundary_header_and_regime_column(self, tiny_run, tmp_path):
        bundle = emit(tiny_run, tmp_path / "out")
        lines = bundle.boundary.read_text().splitlines()
        assert lines[0] == "t,L,sigma_a,sigma_d,u_L,regime"
        assert lines[1].endswith(",attachment")
        assert len(lines) == 1 + tiny_run.boundary.t.size

    def test_seventeen_digit_floats(self, tiny_run, tmp_path):
        bundle = emit(tiny_run, tmp_path / "out")
        row = bundle.profiles.read_text().splitlines()[1].split(",")
        # zeta = 0 and f values round-trip exactly through the text
        assert float(row[1]) == tiny_run.snapshots[0].zeta[0]
        assert float(row[3]) == tiny_run.snapshots[0].f[0, 0]

    def test_no_snapshots_boundary_only(self, tmp_path):
        res = run(tiny_cfg(snapshots=()))
        bundle = emit(res, tmp_path / "out")
        assert bundle.profiles is None
        assert not (tmp_path / "out" / PROFILE_NAME).exists()
        lines = bundle.boundary.read_text().splitlines()
        assert lines[0] == "t,L,sigma_a,sigma_d,u_L,regime"
        assert len(lines) > 1

    def test_snapshot_less_emit_removes_stale_profiles(self, tiny_run, tmp_path):
        out = tmp_path / "out"
        assert emit(tiny_run, out).profiles.exists()
        bundle = emit(run(tiny_cfg(snapshots=())), out)
        assert bundle.profiles is None
        assert not (out / PROFILE_NAME).exists()
        assert PROFILE_NAME not in bundle.manifest.read_text()

    def test_stale_profiles_that_cannot_be_removed_raise(self, tmp_path):
        # a directory in the profiles file's place cannot be unlinked
        out = tmp_path / "out"
        (out / PROFILE_NAME).mkdir(parents=True)
        with pytest.raises(IoFailure, match="could not remove") as err:
            emit(run(tiny_cfg(snapshots=())), out)
        assert err.value.path == str(out / PROFILE_NAME)

    def test_re_emit_byte_identical(self, tiny_run, tmp_path):
        b1 = emit(tiny_run, tmp_path / "a")
        b2 = emit(tiny_run, tmp_path / "b")
        assert b1.sha256 == b2.sha256
        assert b1.profiles.read_bytes() == b2.profiles.read_bytes()
        assert b1.boundary.read_bytes() == b2.boundary.read_bytes()
        assert b1.manifest.read_bytes() == b2.manifest.read_bytes()

    @pytest.mark.parametrize("note", ["x\ncontent-sha256 = forged", "x\rforged"])
    def test_note_with_line_break_rejected_before_writing(self, tiny_run, tmp_path, note):
        # a note is one manifest line: a line break in it could forge another
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="one line"):
            emit(tiny_run, out, notes=("fine", note))
        assert not out.exists()

    def test_io_failure_carries_path(self, tiny_run, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        with pytest.raises(IoFailure) as err:
            emit(tiny_run, blocker / "sub")
        assert err.value.path is not None


# --- whole-string builders with one format() per value, frozen as the byte
# reference for the streamed writer ------------------------------------------


def _g17(x) -> str:
    return format(float(x), ".17g")


def reference_profiles_csv(run):
    cfg = run.cfg
    head = (["t", "zeta", "z"]
            + [f"f{i + 1}" for i in range(cfg.n)]
            + [f"S{j + 1}" for j in range(cfg.m)]
            + [f"Psi{i + 1}" for i in range(cfg.n)])
    lines = [",".join(head)]
    for snap in run.snapshots:
        zeta = snap.zeta
        for k in range(zeta.size):
            row = [_g17(snap.t), _g17(zeta[k]), _g17(zeta[k] * snap.L)]
            row += [_g17(v) for v in snap.f[:, k]]
            row += [_g17(v) for v in snap.S[:, k]]
            row += [_g17(v) for v in snap.Psi[:, k]]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_boundary_csv(run):
    lines = ["t,L,sigma_a,sigma_d,u_L,regime"]
    b = run.boundary
    for k in range(b.t.size):
        regime = "attachment" if b.sigma_a[k] - b.sigma_d[k] > 0.0 else "detachment"
        lines.append(",".join([
            _g17(b.t[k]), _g17(b.L[k]), _g17(b.sigma_a[k]), _g17(b.sigma_d[k]),
            _g17(b.u_L[k]), regime]))
    return "\n".join(lines) + "\n"


def reference_bundle(run, notes=()):
    """``{file name: bytes}`` and the content hash, built from whole strings."""
    cfg_text = configio.dumps(run.cfg)
    files = {}
    if run.snapshots:
        files[PROFILE_NAME] = reference_profiles_csv(run).encode()
    files[BOUNDARY_NAME] = reference_boundary_csv(run).encode()
    hasher = hashlib.sha256()
    for data in files.values():
        hasher.update(data)
    hasher.update(cfg_text.encode())
    content_hash = hasher.hexdigest()
    manifest = ["# biofilm1d run manifest", f"content-sha256 = {content_hash}"]
    for name, data in files.items():
        manifest.append(f"file-sha256 {name} = {hashlib.sha256(data).hexdigest()}")
    for note in notes:
        manifest.append(f"note = {note}")
    manifest += ["", "# configuration", cfg_text.rstrip("\n")]
    files[MANIFEST_NAME] = ("\n".join(manifest) + "\n").encode()
    return files, content_hash


# Values whose 17-digit text is easy to get wrong: a signed zero, the least
# subnormal, a huge exponent, one that needs all 17 digits, non-finite ones.
AWKWARD = (-0.0, 5e-324, 1e300, 0.1 + 0.2, -1.0000000000000002e-300,
           float("inf"), float("-inf"), float("nan"))


def hand_built_run(N, snapshot_times, steps, seed=0):
    """A RunResult of case1's shape filled with seeded random values, every
    AWKWARD value planted in each field and both regimes in the history
    (the regime is the sign of the random sigma_a - sigma_d)."""
    rng = np.random.default_rng(seed)
    cfg = dataclasses.replace(CASE1, snapshot_times=tuple(snapshot_times))

    def field(*shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        a.flat[rng.choice(a.size, len(AWKWARD), replace=False)] = AWKWARD
        return a

    snaps = [Snapshot(t=t, L=0.1 + 0.2, f=field(cfg.n, N + 1), S=field(cfg.m, N + 1),
                      Psi=field(cfg.n, N + 1), sigma_a=1.0, sigma_d=0.0, u_L=0.0)
             for t in snapshot_times]
    boundary = BoundaryTrace(
        t=np.cumsum(rng.random(steps)), L=field(steps), sigma_a=field(steps),
        sigma_d=field(steps), u_L=field(steps), sum_f_drift=np.zeros(steps))
    assert boundary.attachment.any() and not boundary.attachment.all()
    return RunResult(cfg=cfg, snapshots=snaps, boundary=boundary)


def short_case2_run():
    cfg = build_preset("case2").cfg
    cfg = dataclasses.replace(cfg, numerics=dataclasses.replace(cfg.numerics, N=300),
                              horizon=0.3, snapshot_times=(0.1, 0.25, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLayerResolutionWarning)
        return run(cfg)


class TestStreamedBytes:
    """The streamed writer reproduces the whole-string builders' bytes."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: run(tiny_cfg(snapshots=(0.01, 0.01, 0.02))),
                     id="case1-repeated-snapshot"),
        pytest.param(lambda: run(tiny_cfg(snapshots=())), id="no-snapshots"),
        pytest.param(short_case2_run, id="case2-0.3d"),
        pytest.param(lambda: hand_built_run(600, (0.0, 1e-300, 0.5), 700),
                     id="hand-built-awkward"),
    ])
    def test_byte_identical_to_whole_string_builders(self, make, tmp_path):
        res = make()
        expected, content_hash = reference_bundle(res, notes=("n1", "n2"))
        bundle = emit(res, tmp_path / "out", notes=("n1", "n2"))
        assert bundle.sha256 == content_hash
        written = sorted(p.name for p in bundle.directory.iterdir())
        assert written == sorted(expected)
        for name, data in expected.items():
            assert (bundle.directory / name).read_bytes() == data, name

    def test_awkward_values_written_exactly(self, tmp_path):
        bundle = emit(hand_built_run(10, (0.5,), 20), tmp_path / "out")
        cells = set(bundle.profiles.read_text().replace("\n", ",").split(","))
        cells |= set(bundle.boundary.read_text().replace("\n", ",").split(","))
        assert {"-0", "4.9406564584124654e-324", "1.0000000000000001e+300",
                "0.30000000000000004", "-1.0000000000000002e-300",
                "inf", "-inf", "nan", "attachment", "detachment"} <= cells

    def test_peak_memory_below_half_the_profiles_file(self, tmp_path):
        res = hand_built_run(2400, (0.1, 0.2, 0.25, 0.3), 300)
        emit(res, tmp_path / "warm")   # fill lazy caches first
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            bundle = emit(res, tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # whole-string builders held about 3.3 times the file
        assert peak - base < 0.5 * bundle.profiles.stat().st_size
