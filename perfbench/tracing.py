"""Per-layer tracing from outside the program.

Wrappers replace the module attributes that each caller looks up at call
time, time every call with ``time.perf_counter`` and keep one stack of open
spans, so a layer's self time is its duration minus the time of the wrapped
calls made inside it.  Nothing under ``src/`` changes: ``install`` patches the
bindings and ``Tracer.close`` puts the original objects back.

Which binding to patch matters:

* ``cli`` imported ``run_scenario``, ``emit``, ``picard_solve``,
  ``map_run_to_char_grid`` and ``estimate_contraction`` by name, and the
  workloads call them through ``biofilm1d.cli``;
* ``stepper`` imported ``solve_substrates``, ``solve_planktonic`` and
  ``rate_bundle`` by name and resolves its own ``make_snapshot`` as a module
  global;
* ``elliptic`` resolves ``tridiagonal_solve``, ``solve_problem`` and
  ``warnings`` as module globals and the kinetics through ``kinetics.<name>``;
* ``oracle`` resolves ``characteristic_trace`` as a module global and the
  kinetics through ``kinetics.rate_bundle``.
"""

from __future__ import annotations

import functools
import math
import os
import time
import types

# (module, attribute, layer name).  Two bindings of one function share a name.
BINDINGS = (
    ("cli", "run_scenario", "stepper.run"),
    ("cli", "emit", "output.emit"),
    ("cli", "picard_solve", "oracle.picard_solve"),
    ("cli", "map_run_to_char_grid", "oracle.map_run_to_char_grid"),
    ("cli", "estimate_contraction", "oracle.estimate_contraction"),
    ("stepper", "solve_substrates", "elliptic.solve_substrates"),
    ("stepper", "solve_planktonic", "elliptic.solve_planktonic"),
    ("stepper", "rate_bundle", "kinetics.rate_bundle"),
    ("stepper", "make_snapshot", "stepper.make_snapshot"),
    ("elliptic", "solve_problem", "elliptic.solve_problem"),
    ("elliptic", "tridiagonal_solve", "elliptic.tridiagonal_solve"),
    ("kinetics", "rate_bundle", "kinetics.rate_bundle"),
    ("kinetics", "substrate_rates", "kinetics.substrate_rates"),
    ("kinetics", "substrate_rate_jacobian_diag",
     "kinetics.substrate_rate_jacobian_diag"),
    ("oracle", "characteristic_trace", "oracle.characteristic_trace"),
)


class _Stat:
    __slots__ = ("calls", "self_time")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0


class Tracer:
    """Span statistics and per-layer counters for one traced op."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple] = []
        self._snapshot_depth = 0
        self._last_step = None
        self.steps = 0
        self.step_intervals: list[float] = []
        self.parcels: list[int] = []
        self.newton_iters = 0
        self.resolution_warnings = 0
        self.picard_iters = 0
        self.emit_bytes = 0

    def stat(self, name: str) -> _Stat:
        return self.stats.setdefault(name, _Stat())

    def _wrap(self, name, fn, before=None, after=None, leave=None):
        """``before(args)`` runs at entry, ``after(result)`` on return and
        ``leave()`` on every exit."""
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if leave is not None:
                    leave()
            if after is not None:
                after(out)
            return out

        return traced

    def exclude(self, seconds: float) -> None:
        """Count ``seconds`` of foreign work as a child of the open span."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- hooks that turn call arguments and results into counters -----------

    def _run_started(self, args):
        self._last_step = None

    def _snapshot_entered(self, args):
        self._snapshot_depth += 1

    def _snapshot_left(self):
        self._snapshot_depth -= 1

    def _substrates_called(self, args):
        # A step of the stepping loop starts with its substrate solve; the
        # solves made while packaging a snapshot are not steps.
        if self._snapshot_depth:
            return
        now = time.perf_counter()
        if self._last_step is not None:
            self.step_intervals.append(now - self._last_step)
        self._last_step = now
        self.steps += 1

    def _substrates_solved(self, sols):
        self.newton_iters += sum(int(s.iterations) for s in sols)

    def _rates_called(self, args):
        # The loop evaluates rates on the parcels; make_snapshot on N+1 nodes.
        if not self._snapshot_depth:
            self.parcels.append(int(args[0].shape[1]))

    def _picard_done(self, out):
        self.picard_iters += len(out[1])

    def _emitted(self, bundle):
        for path in (bundle.boundary, bundle.manifest, bundle.profiles):
            if path is not None:
                self.emit_bytes += os.path.getsize(path)

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Patch every binding in BINDINGS on the imported ``package``."""
        hooks = {
            ("cli", "run_scenario"): (self._run_started, None, None),
            ("cli", "emit"): (None, self._emitted, None),
            ("cli", "picard_solve"): (None, self._picard_done, None),
            ("stepper", "solve_substrates"): (self._substrates_called,
                                              self._substrates_solved, None),
            ("stepper", "rate_bundle"): (self._rates_called, None, None),
            ("stepper", "make_snapshot"): (self._snapshot_entered, None,
                                           self._snapshot_left),
        }
        try:
            for mod_name, attr, name in BINDINGS:
                module = getattr(package, mod_name)
                original = getattr(module, attr)  # AttributeError: binding gone
                hook = hooks.get((mod_name, attr), (None, None, None))
                setattr(module, attr, self._wrap(name, original, *hook))
                self._restore.append((module, attr, original))
            elliptic = package.elliptic
            self._restore.append((elliptic, "warnings", elliptic.warnings))
            elliptic.warnings = self._counting_warnings(
                elliptic.warnings, package.BoundaryLayerResolutionWarning)
        except BaseException:
            self.close()
            raise

    def _counting_warnings(self, real, category_counted):
        tracer = self

        def warn(message, category=None, stacklevel=1, **kwargs):
            if category is not None and issubclass(category, category_counted):
                tracer.resolution_warnings += 1
            # One frame deeper than the caller asked for, so the warning is
            # attributed to the same source line as without the proxy.
            real.warn(message, category, stacklevel + 1, **kwargs)

        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(real.__dict__)
        proxy.warn = warn
        return proxy

    def close(self) -> None:
        """Restore every patched binding."""
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-op layer metrics, named ``<module>.<function>.<quantity>``."""
        s = self.stat
        tri = s("elliptic.tridiagonal_solve")
        out = {
            "elliptic.tridiagonal_solve.calls": tri.calls,
            "elliptic.tridiagonal_solve.self_s": tri.self_time,
            "elliptic.tridiagonal_solve.us_per_call":
                1e6 * tri.self_time / tri.calls if tri.calls else 0.0,
            "elliptic.newton_iters": self.newton_iters,
            "elliptic.resolution_warnings": self.resolution_warnings,
            "stepper.run.self_s": s("stepper.run").self_time,
            "stepper.steps": self.steps,
            "stepper.step_ms.p50": 1e3 * _quantile(self.step_intervals, 0.50),
            "stepper.step_ms.p99": 1e3 * _quantile(self.step_intervals, 0.99),
            "stepper.parcels.mean":
                sum(self.parcels) / len(self.parcels) if self.parcels else 0.0,
            "stepper.parcels.max": max(self.parcels, default=0),
            "oracle.picard_solve.self_s": s("oracle.picard_solve").self_time,
            "oracle.picard_solve.iters": self.picard_iters,
            "oracle.map_run_to_char_grid.self_s":
                s("oracle.map_run_to_char_grid").self_time,
            "oracle.estimate_contraction.self_s":
                s("oracle.estimate_contraction").self_time,
            "output.emit.self_s": s("output.emit").self_time,
            "output.emit.bytes": self.emit_bytes,
        }
        for name in ("elliptic.solve_problem", "elliptic.solve_substrates",
                     "elliptic.solve_planktonic", "kinetics.rate_bundle",
                     "kinetics.substrate_rates",
                     "kinetics.substrate_rate_jacobian_diag",
                     "stepper.make_snapshot", "oracle.characteristic_trace"):
            out[f"{name}.calls"] = s(name).calls
            out[f"{name}.self_s"] = s(name).self_time
        return out


def _quantile(values, q):
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
