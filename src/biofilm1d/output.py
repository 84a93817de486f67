"""CSV emission of run results.

Floats are written with 17 significant digits so files round-trip exactly
and identical runs produce byte-identical bundles.  The manifest records the
full configuration, the assumption notes and the content hashes, so every
output directory is self-describing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import configio
from .errors import IoFailure
from .model import Regime
from .stepper import RunResult

PROFILE_NAME = "profiles.csv"
BOUNDARY_NAME = "boundary.csv"
MANIFEST_NAME = "manifest.txt"


def _g17(x) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class OutputBundle:
    directory: Path
    boundary: Path
    manifest: Path
    profiles: Optional[Path]
    sha256: str


def _profiles_csv(run: RunResult) -> str:
    cfg = run.cfg
    head = (["t", "zeta", "z"]
            + [f"f{i + 1}" for i in range(cfg.n)]
            + [f"S{j + 1}" for j in range(cfg.m)]
            + [f"Psi{i + 1}" for i in range(cfg.n)])
    lines = [",".join(head)]
    for snap in run.snapshots:
        st = snap.state
        for k in range(st.zeta.size):
            row = [_g17(st.t), _g17(st.zeta[k]), _g17(st.zeta[k] * st.L)]
            row += [_g17(v) for v in st.f[:, k]]
            row += [_g17(v) for v in st.S[:, k]]
            row += [_g17(v) for v in st.Psi[:, k]]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _boundary_csv(run: RunResult) -> str:
    lines = ["t,L,sigma_a,sigma_d,u_L,regime"]
    b = run.boundary
    for k in range(b.t.size):
        regime = Regime.ATTACHMENT if b.attachment[k] else Regime.DETACHMENT
        lines.append(",".join([
            _g17(b.t[k]), _g17(b.L[k]), _g17(b.sigma_a[k]), _g17(b.sigma_d[k]),
            _g17(b.u_L[k]), regime.value]))
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}", path=str(path)) from exc


def emit(run: RunResult, out_dir, notes: Sequence[str] = ()) -> OutputBundle:
    """Write the boundary history, snapshot profiles and manifest.

    The profiles file is only created when the run emitted snapshots;
    otherwise one left in ``out_dir`` by an earlier emit is removed.
    Returns the bundle with the overall content hash.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"could not create {out}: {exc}", path=str(out)) from exc

    cfg_text = configio.dumps(run.cfg)
    boundary_text = _boundary_csv(run)
    boundary_path = out / BOUNDARY_NAME
    _write(boundary_path, boundary_text)

    hasher = hashlib.sha256()
    file_hashes = []

    profiles_path = None
    if run.snapshots:
        profiles_text = _profiles_csv(run)
        profiles_path = out / PROFILE_NAME
        _write(profiles_path, profiles_text)
        digest = hashlib.sha256(profiles_text.encode()).hexdigest()
        file_hashes.append((PROFILE_NAME, digest))
        hasher.update(profiles_text.encode())
    else:
        try:
            (out / PROFILE_NAME).unlink(missing_ok=True)
        except OSError as exc:
            raise IoFailure(f"could not remove {out / PROFILE_NAME}: {exc}",
                            path=str(out / PROFILE_NAME)) from exc

    digest = hashlib.sha256(boundary_text.encode()).hexdigest()
    file_hashes.append((BOUNDARY_NAME, digest))
    hasher.update(boundary_text.encode())
    hasher.update(cfg_text.encode())
    content_hash = hasher.hexdigest()

    manifest = ["# biofilm1d run manifest", f"content-sha256 = {content_hash}"]
    for name, h in file_hashes:
        manifest.append(f"file-sha256 {name} = {h}")
    for note in notes:
        manifest.append(f"note = {note}")
    manifest.append("")
    manifest.append("# configuration")
    manifest.append(cfg_text.rstrip("\n"))
    manifest_path = out / MANIFEST_NAME
    _write(manifest_path, "\n".join(manifest) + "\n")

    return OutputBundle(directory=out, boundary=boundary_path,
                        manifest=manifest_path, profiles=profiles_path,
                        sha256=content_hash)
