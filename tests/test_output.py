import dataclasses

import pytest

from biofilm1d.errors import IoFailure
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
        assert float(row[1]) == tiny_run.snapshots[0].state.zeta[0]
        assert float(row[3]) == tiny_run.snapshots[0].state.f[0, 0]

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

    def test_io_failure_carries_path(self, tiny_run, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        with pytest.raises(IoFailure) as err:
            emit(tiny_run, blocker / "sub")
        assert err.value.path is not None
