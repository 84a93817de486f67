"""One benchmark process: set-up probe, workload ops, correctness checks.

``run.py`` starts this script in fresh interpreters with BLAS/OpenMP pinned
to one thread.  Modes:

``prepare``    print the environment block and write the workload's inputs
               (the refine-n2400 scenario file); also warms the byte-code cache
``setup``      time ``import biofilm1d`` through config build/load and
               ``validate_config`` in this fresh interpreter, raw and scaled
               by the speed probe
``run``        repeat the workload's op for ``--seconds`` (at least one op);
               with ``--trace 1`` alternate untraced and traced ops
``reference``  run one op and store its answers in ``reference.json``

Each mode prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Answers may move by this relative amount before an op counts as wrong.  It
# admits round-off (a LAPACK tridiagonal kernel moves L by ~6e-16) and
# discretisation-level changes (halving dt moves L(0.3 d) by 6e-4), and
# rejects anything larger.
REL_TOL = 2e-3
# The oracle cross-check errors are relative sup norms; they may grow by this
# much in absolute terms (criterion 7 allows up to 5e-2).
XVAL_ABS_TOL = 2e-3

ORACLE_HORIZON = 0.02
ORACLE_GRID = 300
WINDOW_SPAN = 0.05  # the CLI's default ``window --span``

# Layer metrics that must be nonzero in every traced op of a workload, so
# that a refactor which moves a binding cannot silently blind the trace.
_STEPPING_LAYERS = (
    "stepper.steps", "stepper.parcels.max", "stepper.run.self_s",
    "stepper.make_snapshot.calls", "elliptic.solve_substrates.calls",
    "elliptic.solve_planktonic.calls", "elliptic.solve_problem.calls",
    "elliptic.tridiagonal_solve.calls", "elliptic.newton_iters",
    "kinetics.rate_bundle.calls", "kinetics.substrate_rates.calls",
    "kinetics.substrate_rate_jacobian_diag.calls", "output.emit.bytes")
EXPECTED_LAYERS = {
    "preset-case2": _STEPPING_LAYERS,
    "refine-n2400": _STEPPING_LAYERS,
    "oracle-xval": (
        "oracle.picard_solve.iters", "oracle.map_run_to_char_grid.self_s",
        "oracle.characteristic_trace.calls", "oracle.estimate_contraction.self_s",
        "stepper.steps", "stepper.run.self_s", "elliptic.solve_substrates.calls",
        "elliptic.tridiagonal_solve.calls", "kinetics.rate_bundle.calls"),
}


def import_package():
    """Import biofilm1d and its CLI from this checkout's ``src`` only."""
    sys.path.insert(0, str(SRC))
    import biofilm1d
    import biofilm1d.cli  # noqa: F401  (the ops go through the CLI module)
    if not Path(biofilm1d.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"biofilm1d resolved outside {SRC}: {biofilm1d.__file__}")
    return biofilm1d


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _refine_config_path(work: Path) -> Path:
    return work / "refine-n2400.cfg"


def _write_refine_config(b, work: Path) -> None:
    # case2 at N=2400, run past the t1 = 0.2 d arrival of the third species.
    cfg = b.build_preset("case2").cfg
    cfg = replace(cfg, numerics=replace(cfg.numerics, N=2400), horizon=0.3,
                  snapshot_times=(0.1, 0.2, 0.25, 0.3))
    b.configio.save(cfg, _refine_config_path(work))


def load_config(b, workload: str, work: Path):
    if workload == "preset-case2":
        return b.build_preset("case2").cfg
    if workload == "refine-n2400":
        return b.configio.load(_refine_config_path(work))
    return b.build_preset("case1").cfg


def _cli_run(b, argv, out: Path) -> None:
    rc = b.cli.cli(argv + ["--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"biofilm1d {' '.join(argv)} exited with {rc}")


def _oracle_op(b, seed: int) -> dict:
    """The calls ``biofilm1d oracle`` and ``biofilm1d window`` make for case1."""
    import numpy as np
    cli = b.cli
    cfg = b.build_preset("case1").cfg

    fields, _history = cli.picard_solve(cfg, ORACLE_HORIZON, ORACLE_GRID)
    result = cli.run_scenario(cli._short_numerics(cfg, ORACLE_HORIZON),
                              record_profiles=True)
    x_fd, c_fd, L_fd = cli.map_run_to_char_grid(result, fields.times)
    wedge = fields.wedge
    err_x = max(float(np.max(np.abs((fields.x[i] - x_fd[i])[wedge])))
                / max(float(np.max(np.abs(fields.x[i][wedge]))), 1e-300)
                for i in range(cfg.n))
    err_c = (float(np.max(np.abs((fields.c - c_fd)[wedge])))
             / max(float(np.max(np.abs(fields.c[wedge]))), 1e-300))
    err_L = (float(np.max(np.abs(fields.L - L_fd)))
             / max(float(np.max(np.abs(fields.L))), 1e-300))

    window_run = cli.run_scenario(cli._short_numerics(cfg, WINDOW_SPAN),
                                  record_profiles=True)
    box = cli.box_from_run(window_run)
    est = cli.estimate_contraction(cfg, box, t_max=WINDOW_SPAN, seed=seed)

    return {"arrays": (fields.times, fields.x, fields.s, fields.psi, fields.c,
                       fields.c_t0, fields.L, x_fd, c_fd, L_fd),
            "xval_err": [err_x, err_c, err_L],
            "picard_L_end": float(fields.L[-1]),
            "T_star": float(est.T_star),
            "contraction_at_T_star": float(est.contraction_factor(est.T_star))}


def _read_run_output(out: Path) -> dict:
    """content-sha256 and, per snapshot, (t, L, max S3) from the written files."""
    sha = None
    with open(out / "manifest.txt", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("content-sha256 = "):
                sha = line.split("=", 1)[1].strip()
    snaps: dict[float, list[float]] = {}
    with open(out / "profiles.csv", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        head = next(rows)
        i_t, i_z, i_s3 = head.index("t"), head.index("z"), head.index("S3")
        for row in rows:
            t = float(row[i_t])
            L, s3 = snaps.setdefault(t, [0.0, 0.0])
            snaps[t] = [max(L, float(row[i_z])), max(s3, float(row[i_s3]))]
    return {"content_sha256": sha,
            "snapshots": [[t, L, s3] for t, (L, s3) in sorted(snaps.items())]}


def run_op(b, workload: str, work: Path, seed: int):
    """One op: exactly the calls the CLI makes, program output to a sink.

    ``catch_warnings`` leaves the filters as they are, but entering it resets
    the "already shown" registries, so every op prints the warnings a fresh
    CLI process would print instead of only the first op of the process.
    """
    out = work / "out"
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink), warnings.catch_warnings():
        if workload == "preset-case2":
            _cli_run(b, ["run", "--preset", "case2"], out)
        elif workload == "refine-n2400":
            _cli_run(b, ["run", "--config", str(_refine_config_path(work))], out)
        else:
            return _oracle_op(b, seed)
    return None


def answers(workload: str, work: Path, op_result):
    """The op's checked answers, read outside the timed region."""
    if workload != "oracle-xval":
        return _read_run_output(work / "out")
    got = dict(op_result)
    digest = hashlib.sha256()
    for arr in got.pop("arrays"):
        digest.update(arr.astype(float).tobytes())
    got["content_sha256"] = digest.hexdigest()
    return got


def _close(a: float, ref: float) -> bool:
    return abs(a - ref) <= REL_TOL * abs(ref)


def check(workload: str, got: dict, ref: dict) -> list[str]:
    """Problems with an op's answers; an empty list means correct."""
    problems = []
    if workload == "oracle-xval":
        if max(got["xval_err"]) > max(ref["xval_err"]) + XVAL_ABS_TOL:
            problems.append(f"oracle cross-check error {got['xval_err']} "
                            f"exceeds reference {ref['xval_err']} + {XVAL_ABS_TOL}")
        for key in ("picard_L_end", "T_star"):
            if not _close(got[key], ref[key]):
                problems.append(f"{key} = {got[key]!r}, reference {ref[key]!r}")
        if not (got["T_star"] > 0.0 and got["contraction_at_T_star"] < 1.0):
            problems.append("contraction window is empty")
        return problems
    if len(got["snapshots"]) != len(ref["snapshots"]):
        return [f"{len(got['snapshots'])} snapshots, reference "
                f"{len(ref['snapshots'])}"]
    for (t, L, s3), (t_ref, L_ref, s3_ref) in zip(got["snapshots"], ref["snapshots"]):
        if abs(t - t_ref) > 1e-12 or not _close(L, L_ref) or not _close(s3, s3_ref):
            problems.append(f"snapshot t={t!r}: L={L!r} max S3={s3!r}, reference "
                            f"t={t_ref!r} L={L_ref!r} max S3={s3_ref!r}")
    return problems


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "tridiagonal_backend": ("numba" if importlib.util.find_spec("numba")
                                else "pure-python Thomas (numba not importable)"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def mode_prepare(workload: str, work: Path) -> dict:
    b = import_package()
    if workload == "refine-n2400":
        _write_refine_config(b, work)
    return {"environment": environment()}


def mode_setup(workload: str, work: Path) -> dict:
    t0 = time.perf_counter()
    b = import_package()
    cfg = load_config(b, workload, work)
    report = b.validate_config(cfg)
    setup_s = time.perf_counter() - t0
    if not report.ok:
        raise RuntimeError(f"invalid {workload} configuration:\n{report}")
    from speed import probe_once, scale
    return {"raw_setup_s": setup_s,
            "setup_s": setup_s * scale([probe_once() for _ in range(40)])}


def _timed_op(b, workload, work, seed, tracer):
    """Run one op under the speed probe; return its timings and answers.

    In a traced op each probe sample counts as a child of the span it
    interrupted, so it never adds to a layer's self time.
    """
    from speed import SpeedProbe
    if tracer is not None:
        tracer.install(b)
    try:
        with SpeedProbe(tracer.exclude if tracer else None) as probe:
            t0, c0 = time.perf_counter(), time.process_time()
            result = run_op(b, workload, work, seed)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.close()
    timings = {"wall_s": wall, "cpu_s": cpu,
               "norm_wall_s": probe.normalise(wall),
               "probe_ms": 1e3 * statistics.fmean(probe.samples)}
    return timings, answers(workload, work, result)


def mode_run(workload: str, work: Path, seed: int, seconds: float,
             trace: bool) -> dict:
    b = import_package()
    from tracing import Tracer
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)
    if ref is None:
        raise KeyError(f"no reference answers for {workload} in {REFERENCE}")

    ops, layer_runs = [], []
    untraced_sha = None
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < seconds:
        for traced in ((False, True) if trace else (False,)):
            tracer = Tracer() if traced else None
            op = {"traced": traced}
            try:
                timings, got = _timed_op(b, workload, work, seed, tracer)
                op.update(timings)
                problems = check(workload, got, ref)
                op["content_sha256"] = got["content_sha256"]
                op["sha_matches_reference"] = (got["content_sha256"]
                                               == ref["content_sha256"])
                if not traced:
                    untraced_sha = got["content_sha256"]
                elif got["content_sha256"] != untraced_sha:
                    problems.append("traced op changed content-sha256")
                if traced:
                    layers = tracer.metrics()
                    # 0 on the stepping workloads, which make no cross-check
                    layers["oracle.xval_err"] = max(got.get("xval_err", [0.0]))
                    layer_runs.append(layers)
                    missing = [k for k in EXPECTED_LAYERS[workload] if not layers[k]]
                    if missing:
                        problems.append(f"trace recorded nothing for {missing}")
                if workload == "oracle-xval":
                    op["xval_err"] = got["xval_err"]
            except Exception:  # an op that raises is a failed op, not a crash
                traceback.print_exc()
                problems = ["op raised; traceback on stderr"]
            op["problems"] = problems
            op["ok"] = not problems
            ops.append(op)

    out = {"ops": ops,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace and layer_runs:
        layers = {k: statistics.fmean(run[k] for run in layer_runs)
                  for k in layer_runs[0]}
        timed = [op for op in ops if "wall_s" in op]
        traced = [op for op in timed if op["traced"]]
        untraced = [op for op in timed if not op["traced"]]
        layers["trace.wall_s"] = statistics.median(op["wall_s"] for op in traced)
        if untraced:
            layers["trace.overhead_s"] = (
                statistics.median(op["norm_wall_s"] for op in traced)
                - statistics.median(op["norm_wall_s"] for op in untraced))
        out["layers"] = layers
    return out


def mode_reference(workload: str, work: Path, seed: int) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    b = import_package()
    if workload == "refine-n2400":
        _write_refine_config(b, work)
    _, got = _timed_op(b, workload, work, seed, None)
    entry = {k: got[k] for k in ("content_sha256", "snapshots", "xval_err",
                                 "picard_L_end", "T_star") if k in got}
    refs = (json.loads(REFERENCE.read_text(encoding="utf-8"))
            if REFERENCE.exists() else {})
    refs[workload] = entry
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return {workload: entry}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", required=True,
                   choices=("prepare", "setup", "run", "reference"))
    p.add_argument("--workload", required=True, choices=sorted(EXPECTED_LAYERS))
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.mode == "prepare":
        out = mode_prepare(args.workload, args.work)
    elif args.mode == "setup":
        out = mode_setup(args.workload, args.work)
    elif args.mode == "run":
        out = mode_run(args.workload, args.work, args.seed, args.seconds,
                       bool(args.trace))
    else:
        out = mode_reference(args.workload, args.work, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
