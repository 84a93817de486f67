"""The compiled form of :mod:`biofilm1d.elliptic`'s two sweeps.

``_sweeps.c`` makes the sweeps' IEEE-754 operations in the Python loops'
order, so its results are bitwise theirs.  The first sweep of a process
calls :func:`library`, which builds the file with the system C compiler
(``cc``) into the user's cache directory, under a name keyed by the source
and the flags, and loads it with ctypes; later processes load the cached
file without a compiler.  Where no compiler runs, the cache cannot be
written or the file does not load, :func:`library` logs the reason once at
INFO and returns None, and the Python loops run.  Importing this module
compiles and loads nothing.
"""

from __future__ import annotations

import functools
import logging
import os
from pathlib import Path

_SOURCE = Path(__file__).with_name("_sweeps.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 60.0

_log = logging.getLogger(__name__)


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/biofilm1d``, else ``~/.cache/biofilm1d``."""
    return Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                "biofilm1d")


def _compile(target: Path) -> None:
    """Build the library at ``target``.  The compiler writes a temporary file
    in the same directory that is then renamed into place, so a concurrent
    process loads either no file or a whole one."""
    import signal
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem, suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        # In a session of its own, a timeout kills the driver's children too.
        with subprocess.Popen(["cc", *_FLAGS, "-o", tmp, str(_SOURCE)],
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, start_new_session=True) as proc:
            try:
                out, _ = proc.communicate(timeout=COMPILE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                raise
        if proc.returncode:
            raise OSError(f"cc exited with status {proc.returncode}: "
                          + out.decode(errors="replace").strip())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def library():
    """The loaded library of ``_sweeps.c``, built on the first call if the
    cache lacks it; None where it cannot be built or loaded."""
    import ctypes
    import hashlib
    import subprocess

    try:
        key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_FLAGS).encode())
        path = cache_dir() / f"sweeps-{key.hexdigest()[:16]}.so"
        if not path.exists():
            _compile(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as exc:
        _log.info("compiled sweeps unavailable, the Python loops run: %s", exc)
        return None
    long_, double, ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
    lib.thomas_sweep.argtypes = (long_, ptr, ptr, ptr, ptr, double)
    lib.thomas_sweep.restype = long_
    lib.homogeneous_sweep.argtypes = (long_, ptr, double, ptr)
    lib.homogeneous_sweep.restype = None
    return lib
