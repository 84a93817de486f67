"""biofilm1d benchmark: end-to-end timings, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; the benchmark writes only to ``.bench_work/`` there and
removes it before exiting.  Every workload runs in fresh single-threaded
interpreters started by this script:

1. a ``prepare`` process prints the environment block and writes the
   workload's inputs;
2. with ``--trace 0``, five ``setup`` processes each time ``import
   biofilm1d`` through ``validate_config``, and ``setup_s`` is the median of
   their times scaled by the speed probe (``speed.py``);
3. one ``run`` process repeats the workload's op for ``--seconds`` (at least
   one op), reports the median probe-scaled op time ``norm_wall_s`` and
   checks every op's answers against ``reference.json``.  With
   ``--trace 1`` it alternates untraced and traced ops and reports the layer
   metrics of the traced ones plus the tracing overhead.

The last line of standard output is the result object; the line before it
holds the environment, the set-up samples and the per-op records.  Workloads,
metrics and the predictions they test are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_SCRIPT = HERE / "workload.py"
WORKLOADS = ("preset-case2", "refine-n2400", "oracle-xval")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _child(mode: str, workload: str, work: Path, deadline: float,
           extra: tuple = ()) -> dict:
    """Run workload.py in a fresh interpreter; return its last JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    cmd = [sys.executable, str(WORKLOAD_SCRIPT), "--mode", mode,
           "--workload", workload, "--work", str(work), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{mode} process exceeded the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def _metric_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="passed to estimate_contraction; the stepping "
                        "workloads are deterministic and ignore it")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "biofilm1d" / "__init__.py").is_file():
        print(f"benchmark: no biofilm1d package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env_block = _child("prepare", args.workload, work, deadline)["environment"]
        setups = [] if args.trace else [
            _child("setup", args.workload, work, deadline)
            for _ in range(SETUP_PROBES)]
        res = _child("run", args.workload, work, deadline,
                     ("--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace)))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    ops = res["ops"]
    failed = sum(not op["ok"] for op in ops)
    if args.trace:
        values = res.get("layers", {})
        kind = "per_layer"
    else:
        walls = [op["norm_wall_s"] for op in ops if "norm_wall_s" in op]
        if not walls:
            print("benchmark: no op completed", file=sys.stderr)
            return 1
        values = {"setup_s": statistics.median(p["setup_s"] for p in setups),
                  "norm_wall_s": statistics.median(walls),
                  "peak_rss_mb": res["peak_rss_mb"]}
        kind = "end_to_end"
    units = _metric_units(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"benchmark: no value for {missing}", file=sys.stderr)
        return 1

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": env_block, "setup_samples": setups,
                      "ops": ops}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
