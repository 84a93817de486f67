"""CSV emission of run results.

Floats are written with 17 significant digits so files round-trip exactly
and identical runs produce byte-identical bundles.  The manifest records the
full configuration, the assumption notes and the content hashes, so every
output directory is self-describing.

``profiles.csv`` and ``boundary.csv`` are streamed: rows are formatted a
fixed number at a time (``"%.17g" % x`` is ``format(x, ".17g")`` for every
float), and each chunk is encoded once, written and fed to both the file's
hash and the content hash.  So emit never holds a whole file, and its
memory does not grow with the run.  The content hash covers the profiles,
then the boundary history, then the configuration text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from . import configio
from .errors import io_failure
from .model import RunResult

PROFILE_NAME = "profiles.csv"
BOUNDARY_NAME = "boundary.csv"
MANIFEST_NAME = "manifest.txt"

# Rows formatted, encoded and written at a time: emit never holds a whole file.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class OutputBundle:
    directory: Path
    boundary: Path
    manifest: Path
    profiles: Optional[Path]
    sha256: str


def _profile_chunks(run: RunResult) -> Iterator[str]:
    cfg = run.cfg
    yield ",".join(["t", "zeta", "z"]
                   + [f"f{i + 1}" for i in range(cfg.n)]
                   + [f"S{j + 1}" for j in range(cfg.m)]
                   + [f"Psi{i + 1}" for i in range(cfg.n)]) + "\n"
    for snap in run.snapshots:
        # t is the same on every row of a snapshot: format it once
        row = "%.17g" % float(snap.t) + ",%.17g" * (2 + 2 * cfg.n + cfg.m) + "\n"
        zeta_all = snap.zeta
        for k in range(0, zeta_all.size, _CHUNK_ROWS):
            part = slice(k, k + _CHUNK_ROWS)
            zeta = zeta_all[part]
            columns = [zeta.tolist(), (zeta * snap.L).tolist(),
                       *snap.f[:, part].tolist(), *snap.S[:, part].tolist(),
                       *snap.Psi[:, part].tolist()]
            yield "".join(map(row.__mod__, zip(*columns)))


_BOUNDARY_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
_REGIME_NAMES = ("detachment", "attachment")  # by BoundaryTrace.attachment


def _boundary_chunks(run: RunResult) -> Iterator[str]:
    yield "t,L,sigma_a,sigma_d,u_L,regime\n"
    b = run.boundary
    for k in range(0, b.t.size, _CHUNK_ROWS):
        part = slice(k, k + _CHUNK_ROWS)
        regimes = [_REGIME_NAMES[a] for a in b.attachment[part].tolist()]
        columns = [b.t[part].tolist(), b.L[part].tolist(),
                   b.sigma_a[part].tolist(), b.sigma_d[part].tolist(),
                   b.u_L[part].tolist(), regimes]
        yield "".join(map(_BOUNDARY_ROW.__mod__, zip(*columns)))


def _stream(path: Path, chunks: Iterable[str], content) -> str:
    """Write ``chunks`` to ``path``, each encoded once and fed to the file's
    own hash and to ``content``; returns the file's SHA-256."""
    digest = hashlib.sha256()
    with io_failure("write", path), open(path, "wb") as fh:
        for text in chunks:
            data = text.encode()
            fh.write(data)
            digest.update(data)
            content.update(data)
    return digest.hexdigest()


def _write(path: Path, text: str) -> None:
    with io_failure("write", path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit(run: RunResult, out_dir, notes: Sequence[str] = ()) -> OutputBundle:
    """Write the boundary history, snapshot profiles and manifest.

    The profiles file is only created when the run emitted snapshots;
    otherwise one left in ``out_dir`` by an earlier emit is removed.
    Returns the bundle with the overall content hash.  A note is one
    manifest line, so one that holds a line break is a ``ValueError``.
    """
    if any("\n" in note or "\r" in note for note in notes):
        raise ValueError(f"a manifest note must be one line: {notes!r}")
    out = Path(out_dir)
    with io_failure("create", out):
        out.mkdir(parents=True, exist_ok=True)

    hasher = hashlib.sha256()
    file_hashes = []

    profiles_path = None
    if run.snapshots:
        profiles_path = out / PROFILE_NAME
        file_hashes.append((PROFILE_NAME, _stream(
            profiles_path, _profile_chunks(run), hasher)))
    else:
        with io_failure("remove", out / PROFILE_NAME):
            (out / PROFILE_NAME).unlink(missing_ok=True)

    boundary_path = out / BOUNDARY_NAME
    file_hashes.append((BOUNDARY_NAME, _stream(
        boundary_path, _boundary_chunks(run), hasher)))
    cfg_text = configio.dumps(run.cfg)
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
