"""Domain types: scenario parameters, snapshots and run results.

All types are frozen dataclasses.  A :class:`Snapshot` also freezes copies
of its arrays; the traces of a :class:`RunResult` hold arrays nothing writes.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .traces import BulkTraces, ConstantTrace, RampTrace, TableTrace

#: Absolute tolerance on the nodewise volume-fraction sum constraint.  Tight
#: enough to catch scheme bugs, loose enough for accumulated round-off over
#: very long runs.
CONSTRAINT_TOL = 1e-8


def attaching(sigma_a, sigma_d):
    """True while the net interface flux ``sigma_a - sigma_d`` is positive
    (attachment), False in detachment; ties detach.  Elementwise on arrays."""
    return sigma_a - sigma_d > 0.0


@dataclass(frozen=True)
class SpeciesParams:
    """Kinetic and transfer parameters of one microbial species."""

    mu_max: float  # maximum specific growth rate, 1/day
    K: float       # half-saturation constant of its growth substrate, g/m^3
    Y: float       # yield of sessile biomass on substrate
    rho: float     # sessile density, g/m^3
    v_a: float = 0.0     # attachment velocity, m/day
    k_col: float = 0.0   # maximum colonization rate, 1/day
    Y_psi: float = 1.0   # yield of sessile biomass on planktonic biomass
    D_psi: float = 1e-5  # planktonic diffusivity within the biofilm, m^2/day


@dataclass(frozen=True)
class SubstrateParams:
    """Transport parameters of one dissolved substrate."""

    D: float  # diffusivity within the biofilm, m^2/day


@dataclass(frozen=True)
class Stoichiometry:
    """Reaction network wiring.

    ``substrate_of[i]`` is the (0-based) index of the substrate limiting
    species ``i`` (both growth and colonization), and ``production[j][i]``
    is the signed coefficient of species ``i`` in the conversion rate of
    substrate ``j``:  r_S[j] = sum_i production[j][i] * rho_i * r_M[i] / Y_i.
    """

    substrate_of: tuple
    production: tuple

    @staticmethod
    def builtin3x3() -> "Stoichiometry":
        """Three species, three substrates: species i grows on substrate i,
        species 1 consumes substrate 1 and produces substrate 3, which
        species 3 consumes."""
        return Stoichiometry(
            substrate_of=(0, 1, 2),
            production=((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (1.0, 0.0, -1.0)),
        )


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization controls."""

    N: int = 200             # interior grid intervals (N+1 nodes)
    dt_max: float = 1e-3     # time-step cap, day
    L_eps: float = 1e-9      # seed thickness replacing the L(0)=0 singularity, m
    newton_tol: float = 1e-9     # relative elliptic residual tolerance
    newton_max_iter: int = 50
    picard_tol: float = 1e-8     # fixed-point iterate distance tolerance
    picard_max_iter: int = 200


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run."""

    species: tuple
    substrates: tuple
    delta: float          # detachment coefficient, 1/(m day)
    bulk: BulkTraces
    stoichiometry: Stoichiometry
    numerics: NumericsConfig
    horizon: float        # final time, day
    snapshot_times: tuple

    @property
    def n(self) -> int:
        return len(self.species)

    @property
    def m(self) -> int:
        return len(self.substrates)

    # Array views used by the vectorized kinetics; cached, read-only.
    @cached_property
    def arrays(self):
        def col(attr):
            a = np.array([getattr(sp, attr) for sp in self.species], dtype=float)
            a.flags.writeable = False
            return a

        D = np.array([sb.D for sb in self.substrates], dtype=float)
        W = np.array(self.stoichiometry.production, dtype=float)
        sigma = np.array(self.stoichiometry.substrate_of, dtype=int)
        rho_Y = col("rho") / col("Y")
        mu, K = col("mu_max"), col("K")
        rows = []
        for j in range(self.m):
            # the species on substrate j in order (a slice when adjacent), their
            # nonzero (k, W[j, i]) and (k, 1) columns, the row's nonzero (i, W[j, i])
            sp = np.flatnonzero(sigma == j)
            own = tuple((k, float(W[j, i])) for k, i in enumerate(sp) if W[j, i])
            if sp.size == 0:
                sp = slice(0, 0)
            elif sp[-1] - sp[0] == sp.size - 1:
                sp = slice(int(sp[0]), int(sp[-1]) + 1)
            rows.append((sp, own, mu[sp, None], K[sp, None], rho_Y[sp, None],
                         tuple((i, float(w)) for i, w in enumerate(W[j]) if w)))
        for a in (D, sigma, rho_Y) + tuple(a for row in rows for a in row[2:5]):
            a.flags.writeable = False
        return {
            "mu_max": mu, "K": K,
            "rho": col("rho"), "v_a": col("v_a"), "k_col": col("k_col"),
            "Y_psi": col("Y_psi"), "D_psi": col("D_psi"),
            "D": D, "substrate_of": sigma, "rho_Y": rho_Y,
            "substrate_rows": tuple(rows),
        }

    def psi_star(self, t: float) -> np.ndarray:
        return np.array([tr(t) for tr in self.bulk.psi_star], dtype=float)

    def s_star(self, t: float) -> np.ndarray:
        return np.array([tr(t) for tr in self.bulk.s_star], dtype=float)


@dataclass(frozen=True, eq=False)
class Snapshot:
    """The solution at a scheduled output time on the normalized moving grid
    zeta = z/L, with the interface fluxes and the interface velocity ``u_L``,
    the parcel quadrature of G that a step from there moves the interface by."""

    t: float
    L: float
    f: np.ndarray      # (n, N+1) volume fractions
    S: np.ndarray      # (m, N+1) substrate concentrations
    Psi: np.ndarray    # (n, N+1) planktonic concentrations
    sigma_a: float
    sigma_d: float
    u_L: float

    def __post_init__(self):
        for name in ("f", "S", "Psi"):  # read-only copies; the caller's arrays are untouched
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def N(self) -> int:
        return self.f.shape[1] - 1

    @property
    def zeta(self) -> np.ndarray:  # the uniform nodes, zeta_k = k/N
        return np.arange(self.N + 1, dtype=float) / self.N

    @property
    def attachment(self) -> bool:
        return bool(attaching(self.sigma_a, self.sigma_d))

    def sum_f_drift(self) -> float:
        """Max nodewise deviation of the volume-fraction sum from one."""
        return float(np.max(np.abs(self.f.sum(axis=0) - 1.0)))


@dataclass(frozen=True, eq=False)
class BoundaryTrace:
    """Per-step interface history."""

    t: np.ndarray
    L: np.ndarray
    sigma_a: np.ndarray
    sigma_d: np.ndarray
    u_L: np.ndarray
    sum_f_drift: np.ndarray

    @property
    def attachment(self) -> np.ndarray:
        """Regime per step, True while attaching (see :func:`attaching`)."""
        return attaching(self.sigma_a, self.sigma_d)


@dataclass(frozen=True, eq=False)
class ProfileTrace:
    """Records at each step start and at the horizon: the dissolved fields on
    the uniform grid they are solved on, and the parcels' abscissae, launch
    times and fractions, bottom to top.  Record k is at boundary row k's
    ``t`` and ``L``."""

    S: np.ndarray        # (steps, m, N+1)
    Psi: np.ndarray      # (steps, n, N+1)
    parcel_z: tuple      # (steps,) arrays of the parcel count at each record
    parcel_t0: tuple     # (steps,) arrays of launch times, strictly increasing
    parcel_f: tuple      # (steps,) arrays of shape (n, parcel count)


@dataclass(frozen=True, eq=False)
class RunResult:
    cfg: ScenarioConfig
    snapshots: list
    boundary: BoundaryTrace
    profiles: Optional[ProfileTrace] = None


@dataclass(frozen=True)
class Violation:
    field: str
    constraint: str

    def __str__(self):
        return f"{self.field}: {self.constraint}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


#: Lower bound of each numeric parameter field, by name: (bound, strict).
#: Every ``int`` and ``float`` field of the parameter dataclasses has one.
_LOWER_BOUNDS = {
    "mu_max": (0, False), "K": (0, True), "Y": (0, True), "rho": (0, True),
    "v_a": (0, False), "k_col": (0, False), "Y_psi": (0, True), "D_psi": (0, True),
    "D": (0, True), "delta": (0, False), "horizon": (0, False),
    "N": (8, False), "dt_max": (0, True), "L_eps": (0, True), "newton_tol": (0, True),
    "newton_max_iter": (0, True), "picard_tol": (0, True), "picard_max_iter": (0, True),
}


def _trace_numbers(trace) -> list:
    """Every number a bulk-trace descriptor holds, by its fields' declared
    types: a ``tuple`` field's entries (table ``times`` and ``values``), no
    ``str`` field, and any other field's value (``value``, ``psi30``, ``t1``)."""
    numbers = []
    for param in fields(trace):
        v = getattr(trace, param.name)
        if param.type == "tuple":
            numbers.extend(v)
        elif param.type != "str":
            numbers.append(v)
    return numbers


def validate_config(cfg: ScenarioConfig) -> ValidationReport:
    """Check every declared invariant of a scenario; report, never raise."""
    bad = []

    def check(ok, field_name, constraint):
        if not ok:
            bad.append(Violation(field_name, constraint))

    def finite(field_name, *values):
        """Report values that are not real numbers, or else not finite; True
        when all are real, so the field's range checks cannot raise."""
        real = all(isinstance(v, numbers.Real) for v in values)
        check(real, field_name, "must be a real number")
        check(not real or all(math.isfinite(v) for v in values), field_name,
              "must be finite")
        return real

    def params(tag, entry):
        """Check each ``int`` or ``float`` field of ``entry`` by that declared
        type (an integer, or else a finite real) and, when it is of its type,
        against its lower bound in ``_LOWER_BOUNDS``."""
        for param in fields(entry):
            name, v = param.name, getattr(entry, param.name)
            if param.type == "int":
                typed = isinstance(v, numbers.Integral)
                check(typed, f"{tag}.{name}", "must be an integer")
            else:
                typed = param.type == "float" and finite(f"{tag}.{name}", v)
            if typed:
                bound, strict = _LOWER_BOUNDS[name]
                check(v > bound if strict else v >= bound, f"{tag}.{name}",
                      f"{name} must be {'>' if strict else '>='} {bound}")

    def sequence(field_name, value):
        """Report a value that is not a sequence; True when it is one, so
        the checks on its length and entries cannot raise."""
        ok = isinstance(value, (Sequence, np.ndarray))
        check(ok, field_name, "must be a sequence")
        return ok

    def section(name, value, kind, noun=None):
        """Report a section, or one entry of a section, that is not a
        ``kind`` (named ``noun``, by default the kind's name); True when it
        is one, so the checks on its fields cannot raise."""
        ok = isinstance(value, kind)
        check(ok, name, f"must be a {noun or kind.__name__}")
        return ok

    def trace_ok(name, trace):
        """Report a bulk trace that is not a descriptor or holds a number
        that is not finite; True when its bounds can be checked."""
        kinds = (ConstantTrace, RampTrace, TableTrace)
        return (section(name, trace, kinds, "bulk trace")
                and finite(name, *_trace_numbers(trace)))

    # a count against a section that is not a sequence is skipped
    species_ok = sequence("species", cfg.species)
    substrates_ok = sequence("substrates", cfg.substrates)
    check(not species_ok or cfg.n >= 1, "species", "at least one species required")
    check(not substrates_ok or cfg.m >= 1, "substrates", "at least one substrate required")
    for i, sp in enumerate(cfg.species if species_ok else (), start=1):
        if section(f"species.{i}", sp, SpeciesParams):
            params(f"species.{i}", sp)
    for j, sb in enumerate(cfg.substrates if substrates_ok else (), start=1):
        if section(f"substrate.{j}", sb, SubstrateParams):
            params(f"substrate.{j}", sb)
    params("scenario", cfg)
    real_horizon = isinstance(cfg.horizon, numbers.Real)
    snaps = cfg.snapshot_times
    real_snaps = (sequence("scenario.snapshot_times", snaps)
                  and finite("scenario.snapshot_times", *snaps))
    check(not real_snaps or all(b >= a for a, b in zip(snaps, snaps[1:])),
          "scenario.snapshot_times", "snapshot times must be sorted ascending")
    check(not (real_snaps and real_horizon)
          or all(0.0 <= s <= cfg.horizon for s in snaps),
          "scenario.snapshot_times", "snapshot outside horizon")

    if section("bulk", cfg.bulk, BulkTraces):
        psi_star, s_star = cfg.bulk.psi_star, cfg.bulk.s_star
        psi_ok, s_ok = sequence("bulk.psi", psi_star), sequence("bulk.s", s_star)
        check(not (psi_ok and species_ok) or len(psi_star) == cfg.n, "bulk.psi",
              "one trace per species required")
        check(not (s_ok and substrates_ok) or len(s_star) == cfg.m, "bulk.s",
              "one trace per substrate required")
        for i, tr in enumerate(psi_star if psi_ok else (), start=1):
            check(not trace_ok(f"bulk.psi.{i}", tr) or tr.bounds()[0] >= 0,
                  f"bulk.psi.{i}", "bulk trace must stay >= 0 over the horizon")
        for j, tr in enumerate(s_star if s_ok else (), start=1):
            check(not trace_ok(f"bulk.s.{j}", tr) or tr.bounds()[0] >= 0,
                  f"bulk.s.{j}", "bulk trace must stay >= 0 over the horizon")

    st = cfg.stoichiometry
    st_ok = section("stoichiometry", st, Stoichiometry)
    limits = {}  # species index -> the substrate that limits it, where valid
    if st_ok and sequence("stoichiometry.substrate_of", st.substrate_of):
        check(not species_ok or len(st.substrate_of) == cfg.n,
              "stoichiometry.substrate_of", "needs one substrate index per species")
        indices = all(isinstance(k, numbers.Integral) for k in st.substrate_of)
        check(indices, "stoichiometry.substrate_of", "must be an integer")
        check(not (indices and substrates_ok)
              or all(0 <= k < cfg.m for k in st.substrate_of),
              "stoichiometry.substrate_of", "substrate index out of range")
        limits = {i: k for i, k in enumerate(st.substrate_of)
                  if isinstance(k, numbers.Integral) and substrates_ok and 0 <= k < cfg.m}
    if st_ok and sequence("stoichiometry.production", st.production):
        check(not substrates_ok or len(st.production) == cfg.m, "stoichiometry.production",
              "needs one row per substrate")
        rows = [(j, row) for j, row in enumerate(st.production, start=1)
                if sequence(f"stoichiometry.production.{j}", row)]
        check(not species_ok or all(len(row) == cfg.n for _, row in rows),
              "stoichiometry.production", "each row needs one coefficient per species")
        for j, row in rows:
            finite(f"stoichiometry.production.{j}", *row)
            # a consumption the consumed substrate does not limit has no
            # non-negative quasi-static solution once the bulk runs short
            for i, w in enumerate(row):
                consumes = isinstance(w, numbers.Real) and math.isfinite(w) and w < 0
                check(not (consumes and i in limits and limits[i] != j - 1),
                      f"stoichiometry.production.{j}",
                      f"species {i + 1} may consume only the substrate that limits it")

    if section("numerics", cfg.numerics, NumericsConfig):
        params("numerics", cfg.numerics)

    # The explicit update f + dt (r - f G) of a fraction f >= 0 is at least
    # f (1 - dt G), so the fractions stay >= 0 while dt G <= 1.  G is at most
    # max mu_max + sum k_col psi*_max / rho: the Monod factor is at most 1,
    # Psi stays within [0, psi*] and a linear interpolant within its data.
    # Half the exact bound leaves room for rounding in G, in the
    # interpolants and in the fraction sum.  Checked when every field it
    # reads is valid, so it cannot raise and is not hidden by another field.
    reads = {"species", "bulk", "bulk.psi", "numerics", "numerics.dt_max"}
    for i in range(1, cfg.n + 1) if species_ok else ():
        reads |= {f"species.{i}", f"species.{i}.mu_max", f"species.{i}.k_col",
                  f"species.{i}.rho", f"bulk.psi.{i}"}
    if species_ok and not reads & {v.field for v in bad}:
        g_max = float(max(sp.mu_max for sp in cfg.species)
                      + sum(sp.k_col * tr.bounds()[1] / sp.rho
                            for sp, tr in zip(cfg.species, cfg.bulk.psi_star)))
        check(g_max == 0 or cfg.numerics.dt_max <= 0.5 / g_max, "numerics.dt_max",
              f"dt_max * G_max must be <= 0.5, with G_max = {g_max:.6g} 1/d")

    return ValidationReport(tuple(bad))

