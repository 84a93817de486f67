"""The loader of the compiled sweeps: built once per cache, loaded by later
processes without a compiler, and the Python loops' bits wherever it
cannot be built or loaded."""

import logging
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import biofilm1d
from biofilm1d import _sweeps, elliptic

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def bits(x):
    return np.asarray(x).view(np.uint64).tolist()


def test_cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert _sweeps.cache_dir() == tmp_path / "xdg" / "biofilm1d"
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for unset in (lambda: monkeypatch.setenv("XDG_CACHE_HOME", ""),
                  lambda: monkeypatch.delenv("XDG_CACHE_HOME")):
        unset()
        assert _sweeps.cache_dir() == tmp_path / "home" / ".cache" / "biofilm1d"


def backend_in_fresh_process(env):
    src = str(Path(biofilm1d.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-c", "from biofilm1d import elliptic; print(elliptic.sweep_backend())"],
        env=dict(env, PYTHONPATH=src), stdout=subprocess.PIPE, text=True)


@needs_cc
def test_built_once_then_loaded_without_compiler(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    # Two processes start on an empty cache at once: each builds into a
    # temporary file and renames it into place, and both load a whole file.
    procs = [backend_in_fresh_process(env) for _ in range(2)]
    assert [proc.communicate(timeout=120)[0].strip() for proc in procs] \
        == ["compiled", "compiled"]
    (lib,) = (tmp_path / "biofilm1d").iterdir()
    assert lib.name.startswith("sweeps-") and lib.suffix == ".so"
    built = lib.stat().st_mtime_ns
    # A later process finds it without a compiler on PATH.
    no_cc = tmp_path / "empty-bin"
    no_cc.mkdir()
    proc = backend_in_fresh_process(dict(env, PATH=str(no_cc)))
    assert proc.communicate(timeout=60)[0].strip() == "compiled"
    assert list((tmp_path / "biofilm1d").iterdir()) == [lib]
    assert lib.stat().st_mtime_ns == built


@pytest.fixture
def fresh_library(monkeypatch, tmp_path):
    """The loader's decision made afresh in this test, on a cache under
    ``tmp_path``, and again after it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _sweeps.library.cache_clear()
    yield
    _sweeps.library.cache_clear()


def fake_cc(tmp_path, monkeypatch, body):
    """Put a ``cc`` running the shell ``body`` first on PATH; it appends a
    line to ``cc.log`` per run."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text(f'#!/bin/sh\necho run >> "{tmp_path / "cc.log"}"\n{body}\n')
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    return tmp_path / "cc.log"


def no_compiler(tmp_path, monkeypatch):
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))


def unwritable_cache(tmp_path, monkeypatch):
    # a file where the cache directory would be: not writable even by root
    (tmp_path / "cache").write_text("")


def failing_compiler(tmp_path, monkeypatch):
    fake_cc(tmp_path, monkeypatch, 'echo "cc: error: no such target" >&2\nexit 1')


@pytest.mark.parametrize("setup", [no_compiler, unwritable_cache, failing_compiler])
def test_fallback_returns_python_bits(setup, fresh_library, tmp_path, monkeypatch, caplog):
    setup(tmp_path, monkeypatch)
    rng = np.random.default_rng(5)
    diag, rhs = 4.0 + rng.random(201), rng.standard_normal(201)
    diag[:7] = 2.0
    sk = rng.random(201)
    caplog.set_level(logging.INFO, logger="biofilm1d._sweeps")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            assert bits(elliptic.tridiagonal_solve(diag, rhs)) \
                == bits(elliptic._thomas_loop(diag, rhs))
            assert bits(elliptic._homogeneous_solve(sk, 3.5)) \
                == bits(elliptic._homogeneous_loop(sk, 3.5))
    assert elliptic.sweep_backend() == "python"
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    assert "the Python loops run" in record.getMessage()
    if setup is failing_compiler:
        assert "no such target" in record.getMessage()


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_compiler_timeout_leaves_no_process(fresh_library, tmp_path, monkeypatch):
    # The fake compiler starts a child of its own and waits for it; the
    # timeout kills both, once, and the loader falls back.
    log = fake_cc(tmp_path, monkeypatch,
                  f'sleep 60 &\necho $! > "{tmp_path / "child.pid"}"\nwait')
    monkeypatch.setattr(_sweeps, "COMPILE_TIMEOUT_S", 1.0)
    start = time.monotonic()
    assert _sweeps.library() is None
    assert time.monotonic() - start < 30.0
    elliptic.tridiagonal_solve(np.full(3, 4.0), np.ones(3))
    assert elliptic.sweep_backend() == "python"
    assert log.read_text().splitlines() == ["run"]
    child = int((tmp_path / "child.pid").read_text())
    deadline = time.monotonic() + 10.0
    while running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(child)
    assert list((tmp_path / "cache" / "biofilm1d").iterdir()) == []
