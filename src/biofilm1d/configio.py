"""Flat key-value serialization of scenario configurations.

One ``section.key = value`` assignment per line, ``#`` starts a comment,
arrays are comma lists.  The exact key set is documented in the README;
round-tripping a configuration through text reproduces it exactly.
"""

from __future__ import annotations

import dataclasses

from .errors import ConfigError, IoFailure
from .model import (NumericsConfig, ScenarioConfig, SpeciesParams, Stoichiometry,
                    SubstrateParams)
from .traces import BulkTraces, parse_descriptor

_SPECIES_FIELDS = tuple(field.name for field in dataclasses.fields(SpeciesParams))
_NUMERICS_FIELDS = dataclasses.fields(NumericsConfig)


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def dumps(cfg: ScenarioConfig) -> str:
    """Serialize a configuration to the flat text format."""
    lines = ["# biofilm1d scenario configuration"]
    lines.append(f"scenario.delta = {_fmt(cfg.delta)}")
    lines.append(f"scenario.horizon = {_fmt(cfg.horizon)}")
    lines.append("scenario.snapshot_times = "
                 + ", ".join(_fmt(float(s)) for s in cfg.snapshot_times))
    for i, sp in enumerate(cfg.species, start=1):
        for name in _SPECIES_FIELDS:
            lines.append(f"species.{i}.{name} = {_fmt(float(getattr(sp, name)))}")
    for j, sb in enumerate(cfg.substrates, start=1):
        lines.append(f"substrate.{j}.D = {_fmt(float(sb.D))}")
    for i, tr in enumerate(cfg.bulk.psi_star, start=1):
        lines.append(f"bulk.psi.{i} = {tr.descriptor()}")
    for j, tr in enumerate(cfg.bulk.s_star, start=1):
        lines.append(f"bulk.s.{j} = {tr.descriptor()}")
    st = cfg.stoichiometry
    builtin = st == Stoichiometry.builtin3x3()
    lines.append(f"stoichiometry.kind = {'builtin3x3' if builtin else 'custom'}")
    if not builtin:
        lines.append("stoichiometry.substrate_of = "
                     + ", ".join(str(k + 1) for k in st.substrate_of))
        for j, row in enumerate(st.production, start=1):
            lines.append(f"stoichiometry.production.{j} = "
                         + ", ".join(_fmt(float(w)) for w in row))
    nm = cfg.numerics
    for field in _NUMERICS_FIELDS:
        lines.append(f"numerics.{field.name} = {_fmt(getattr(nm, field.name))}")
    return "\n".join(lines) + "\n"


def _parse_lines(text):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def _pop(entries, key, parse=float, default=None):
    """Remove ``key`` and parse its value; ``default`` stands in for a missing
    key.  A missing required key or a malformed value is a ConfigError."""
    raw = entries.pop(key, default)
    if raw is None:
        raise ConfigError(f"missing required key {key!r}")
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def _count_indexed(entries, prefix):
    found = set()
    for key in entries:
        if key.startswith(prefix + "."):
            tail = key[len(prefix) + 1:]
            idx = tail.split(".", 1)[0]
            if idx.isdigit():
                found.add(int(idx))
    if not found:
        raise ConfigError(f"no {prefix}.<index> entries found")
    count = max(found)
    if found != set(range(1, count + 1)):
        raise ConfigError(f"{prefix} indices must be contiguous from 1")
    return count


def loads(text: str) -> ScenarioConfig:
    """Parse the flat text format back into a configuration."""
    entries = _parse_lines(text)

    n = _count_indexed(entries, "species")
    m = _count_indexed(entries, "substrate")

    species = []
    for i in range(1, n + 1):
        kwargs = {name: _pop(entries, f"species.{i}.{name}")
                  for name in _SPECIES_FIELDS}
        species.append(SpeciesParams(**kwargs))
    substrates = [SubstrateParams(D=_pop(entries, f"substrate.{j}.D"))
                  for j in range(1, m + 1)]

    psi = tuple(parse_descriptor(entries.pop(f"bulk.psi.{i}", "constant,0"))
                for i in range(1, n + 1))
    s_tr = tuple(parse_descriptor(entries.pop(f"bulk.s.{j}", "constant,0"))
                 for j in range(1, m + 1))

    kind = entries.pop("stoichiometry.kind", "builtin3x3")
    if kind == "builtin3x3":
        stoich = Stoichiometry.builtin3x3()
    elif kind == "custom":
        sof = _pop(entries, "stoichiometry.substrate_of",
                   lambda raw: tuple(int(v) - 1 for v in raw.split(",")))
        rows = tuple(_pop(entries, f"stoichiometry.production.{j}",
                          lambda raw: tuple(float(v) for v in raw.split(",")))
                     for j in range(1, m + 1))
        stoich = Stoichiometry(substrate_of=sof, production=rows)
    else:
        raise ConfigError(f"stoichiometry.kind must be builtin3x3 or custom, not {kind!r}")

    nm_kwargs = {}
    for field in _NUMERICS_FIELDS:
        key = f"numerics.{field.name}"
        if key in entries:
            nm_kwargs[field.name] = _pop(entries, key, type(field.default))
    numerics = NumericsConfig(**nm_kwargs)

    delta = _pop(entries, "scenario.delta")
    horizon = _pop(entries, "scenario.horizon")
    snapshot_times = _pop(entries, "scenario.snapshot_times", lambda raw: tuple(
        float(v) for v in raw.split(",") if v.strip()), default="")

    if entries:
        raise ConfigError("unknown keys: " + ", ".join(sorted(entries)))

    return ScenarioConfig(species=tuple(species), substrates=tuple(substrates),
                          delta=delta,
                          bulk=BulkTraces(psi_star=psi, s_star=s_tr),
                          stoichiometry=stoich, numerics=numerics,
                          horizon=horizon, snapshot_times=snapshot_times)


def save(cfg: ScenarioConfig, path) -> None:
    """Write ``cfg`` to ``path``; :class:`IoFailure` names the path on failure."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(cfg))
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}", path=str(path)) from exc


def load(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from None
    return loads(text)
