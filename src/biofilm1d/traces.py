"""Time-dependent bulk-liquid concentration traces.

Bulk concentrations are closed-form descriptors rather than callbacks so a
scenario can be serialized and replayed bit for bit.  Three descriptor kinds
are supported: a constant, the sigmoidal arrival ramp used for a species fed
into the reactor at a delay, and a tabulated trace with linear interpolation.
"""

from __future__ import annotations

import decimal
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError

RAMP_VARIANTS = ("printed", "corrected")


@dataclass(frozen=True)
class ConstantTrace:
    """Bulk concentration fixed in time."""

    value: float

    def __call__(self, t):
        return self.value

    def breakpoints(self):
        return ()

    def bounds(self):
        """``(low, high)`` of the trace over all time."""
        return self.value, self.value

    def descriptor(self):
        return f"constant,{self.value!r}"


@dataclass(frozen=True)
class RampTrace:
    """Delayed sigmoidal arrival of a bulk species: zero up to ``t1``, then
    ``psi30 * d**10 / (q + d**10)`` with ``d = t - t1`` and ``q = t1**(10/t1)``
    (``printed``) or ``t1**10`` (``corrected``), increasing strictly toward
    ``psi30``.  Evaluated as ``psi30 / (1 + r**10)``, ``r = a/d``, with ``r**10``
    by repeated squaring and ``a = q**(1/10)`` rounded once from ``decimal``
    under a fixed context: IEEE-754 arithmetic only, no libm.
    """

    psi30: float
    t1: float
    variant: str = "printed"

    def __post_init__(self):
        # a t1 that is not a finite real is left to validate_config, which
        # names its field
        if isinstance(self.t1, numbers.Real) and -math.inf < self.t1 <= 0:
            raise ConfigError(f"ramp arrival time must be > 0, got {self.t1}")
        if self.variant not in RAMP_VARIANTS:
            raise ConfigError(f"unknown ramp variant {self.variant!r}")

    @cached_property
    def _a(self):
        ctx, t1 = decimal.Context(40, decimal.ROUND_HALF_EVEN), decimal.Decimal(self.t1)
        return (self.t1 if self.variant == "corrected"
                else float(ctx.power(t1, ctx.divide(1, t1))))

    def __call__(self, t):
        d = t - self.t1
        if d <= 0.0:
            return 0.0
        r2 = (self._a / d) * (self._a / d)
        return self.psi30 / (1.0 + (r2 * r2) * (r2 * r2) * r2)

    def breakpoints(self):
        return (self.t1,)

    def bounds(self):
        """``(low, high)`` of the trace over all time: it runs from 0
        toward ``psi30``."""
        return min(0.0, self.psi30), max(0.0, self.psi30)

    def descriptor(self):
        return f"ramp,{self.psi30!r},{self.t1!r},{self.variant}"


@dataclass(frozen=True)
class TableTrace:
    """Tabulated trace, linear interpolation, clamped outside the knots."""

    times: tuple
    values: tuple

    def __post_init__(self):
        for name in ("times", "values"):
            knots = getattr(self, name)
            if not isinstance(knots, (tuple, list)):
                raise ConfigError(f"table trace {name} must be a tuple or list, "
                                  f"got {type(knots).__name__}")
            # stored as a tuple, as parse_descriptor and configio build it
            object.__setattr__(self, name, tuple(knots))
        if len(self.times) != len(self.values) or not self.times:
            raise ConfigError("table trace needs matching, nonempty times/values")
        # times that are not all real are left to validate_config
        if (all(isinstance(t, numbers.Real) for t in self.times)
                and any(b <= a for a, b in zip(self.times, self.times[1:]))):
            raise ConfigError("table trace times must be strictly increasing")

    def __call__(self, t):
        ts, vs = self.times, self.values
        if t <= ts[0]:
            return vs[0]
        if t >= ts[-1]:
            return vs[-1]
        for k in range(len(ts) - 1):
            if t <= ts[k + 1]:
                w = (t - ts[k]) / (ts[k + 1] - ts[k])
                return vs[k] * (1.0 - w) + vs[k + 1] * w
        return vs[-1]

    def breakpoints(self):
        return self.times

    def bounds(self):
        """``(low, high)`` of the trace over all time: the knot values'
        range, which linear interpolation stays inside."""
        return min(self.values), max(self.values)

    def descriptor(self):
        pairs = ";".join(f"{t!r}:{v!r}" for t, v in zip(self.times, self.values))
        return f"table,{pairs}"


def parse_descriptor(text):
    """Build a trace from its ``kind,args...`` descriptor string."""
    parts = [p.strip() for p in text.split(",")]
    kind = parts[0]
    if len(parts) > {"constant": 2, "ramp": 4}.get(kind, math.inf):
        raise ConfigError(f"bad trace descriptor {text!r}: too many fields")
    try:
        if kind == "constant":
            return ConstantTrace(float(parts[1]))
        if kind == "ramp":
            return RampTrace(float(parts[1]), float(parts[2]), *parts[3:])
        if kind == "table":
            times, values = [], []
            body = text.split(",", 1)[1]
            for item in body.split(";"):
                a, b = item.split(":")
                times.append(float(a))
                values.append(float(b))
            return TableTrace(tuple(times), tuple(values))
    except (IndexError, ValueError, ConfigError) as exc:
        raise ConfigError(f"bad trace descriptor {text!r}: {exc}") from exc
    raise ConfigError(f"unknown trace kind {kind!r}")


@dataclass(frozen=True)
class BulkTraces:
    """Bulk planktonic and substrate concentrations over time.

    ``psi_star`` has one descriptor per species, ``s_star`` one per substrate.
    """

    psi_star: tuple
    s_star: tuple

    def breakpoints(self):
        """Times where a descriptor changes analytic form (forced step times)."""
        pts = set()
        for tr in self.psi_star + self.s_star:
            pts.update(tr.breakpoints())
        return tuple(sorted(pts))
