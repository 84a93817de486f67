"""Reaction-rate evaluations: growth, substrate conversion, colonization,
and the interface attachment and detachment fluxes.

All functions are pure.  The rates broadcast over a trailing node axis, so
they can be evaluated for a single point ``(n,)`` or a whole grid ``(n, K)``
alike.
Negative concentrations (transient numerical undershoot) are clamped to zero
on the rate side only; state arrays are never mutated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NoAttachment

logger = logging.getLogger(__name__)


def _clamped(a, label):
    a = np.asarray(a, dtype=float)
    if (a < 0.0).any():
        logger.debug("clamped %d negative %s value(s) during rate evaluation",
                     int(np.sum(a < 0.0)), label)
        a = np.maximum(a, 0.0)
    return a


def monod(s, K):
    """Saturating limitation factor s/(K+s), clamped at s = 0."""
    s = _clamped(s, "substrate")
    return s / (K + s)


def dmonod(s, K):
    """d/ds of :func:`monod`; the clamp branch uses the one-sided value 1/K."""
    s = _clamped(s, "substrate")
    return K / (K + s) ** 2


def growth_rates(f, S, cfg):
    """Specific sessile growth rates, one per species (1/day)."""
    a = cfg.arrays
    f = _clamped(f, "fraction")
    s_sel = np.asarray(S, dtype=float)[a["substrate_of"]]
    mu = a["mu_max"].reshape((-1,) + (1,) * (f.ndim - 1))
    K = a["K"].reshape(mu.shape)
    return mu * monod(s_sel, K) * f


def _network_weighted(r_m, a):
    """r_S from the growth rates; ``np.dot`` on the flattened load is what
    ``np.tensordot(W, load, axes=(1, 0))`` runs, without its set-up cost."""
    load = r_m * a["rho_Y"].reshape((-1,) + (1,) * (r_m.ndim - 1))
    W = a["W"]
    return np.dot(W, load.reshape(W.shape[1], -1)).reshape(
        W.shape[:1] + load.shape[1:])


def substrate_rates(f, S, cfg):
    """Substrate conversion rates (g/m^3/day), network-weighted."""
    return _network_weighted(growth_rates(f, S, cfg), cfg.arrays)


def substrate_rate_jacobian_diag(f, S, cfg):
    """d r_S[j] / d S[j] at each node; used by the elliptic Newton solver."""
    a = cfg.arrays
    f = _clamped(f, "fraction")
    S = np.asarray(S, dtype=float)
    trail = (1,) * (f.ndim - 1)
    mu = a["mu_max"].reshape((-1,) + trail)
    K = a["K"].reshape(mu.shape)
    s_sel = S[a["substrate_of"]]
    dload = mu * dmonod(s_sel, K) * f * a["rho_Y"].reshape(mu.shape)
    out = np.zeros_like(S)
    for i, (j, w) in enumerate(a["jacobian_terms"]):
        out[j] += w * dload[i]
    return out


def colonization_rates(Psi, S, cfg):
    """Sessile growth rates fed by planktonic cells (1/day)."""
    a = cfg.arrays
    Psi = _clamped(Psi, "planktonic")
    s_sel = np.asarray(S, dtype=float)[a["substrate_of"]]
    trail = (1,) * (Psi.ndim - 1)
    k_col = a["k_col"].reshape((-1,) + trail)
    K = a["K"].reshape(k_col.shape)
    rho = a["rho"].reshape(k_col.shape)
    return (k_col / rho) * monod(s_sel, K) * Psi


def _planktonic_from(r_col, a):
    return -(a["rho"] / a["Y_psi"]).reshape((-1,) + (1,) * (r_col.ndim - 1)) * r_col


def planktonic_conversion_rates(Psi, S, cfg):
    """Planktonic consumption by the switch to sessile growth (g/m^3/day, <= 0)."""
    return _planktonic_from(colonization_rates(Psi, S, cfg), cfg.arrays)


def planktonic_sink_coefficients(S, cfg):
    """Coefficients kappa_i >= 0 with r_Psi[i] = -kappa_i * Psi[i] at frozen S."""
    a = cfg.arrays
    s_sel = np.asarray(S, dtype=float)[a["substrate_of"]]
    trail = (1,) * (s_sel.ndim - 1)
    k_col = a["k_col"].reshape((-1,) + trail)
    K = a["K"].reshape(k_col.shape)
    Y_psi = a["Y_psi"].reshape(k_col.shape)
    return (k_col / Y_psi) * monod(s_sel, K)


def _sum_G(r_m, r_col):
    # Fixed left-to-right summation so every caller gets bitwise the same G.
    G = r_m[0] + r_col[0]
    for i in range(1, r_m.shape[0]):
        G = G + (r_m[i] + r_col[i])
    return G


def source_G(f, S, Psi, cfg):
    """Velocity source: total specific volume production (1/day)."""
    return _sum_G(growth_rates(f, S, cfg), colonization_rates(Psi, S, cfg))


@dataclass(frozen=True, eq=False)
class RateBundle:
    """All reaction rates at one point or grid, with their consistent sum G."""

    r_M: np.ndarray    # (n, ...) sessile specific growth rates, 1/day
    r_col: np.ndarray  # (n, ...) colonization rates, 1/day
    r_S: np.ndarray    # (m, ...) substrate conversion rates, g/m^3/day
    r_Psi: np.ndarray  # (n, ...) planktonic conversion rates, g/m^3/day
    G: np.ndarray      # velocity source, 1/day


def rate_bundle(f, S, Psi, cfg) -> RateBundle:
    """Evaluate every rate once; ``G`` is the exact ordered sum of the parts."""
    r_m = growth_rates(f, S, cfg)
    r_col = colonization_rates(Psi, S, cfg)
    return RateBundle(r_M=r_m, r_col=r_col, r_S=_network_weighted(r_m, cfg.arrays),
                      r_Psi=_planktonic_from(r_col, cfg.arrays), G=_sum_G(r_m, r_col))


def attachment_flux(psi_star, cfg) -> float:
    """Total interface gain from attaching bulk cells, sum v_a_i psi_i / rho_i (m/day)."""
    a = cfg.arrays
    psi = np.maximum(np.asarray(psi_star, dtype=float), 0.0)
    return float(np.sum(a["v_a"] * psi / a["rho"]))


def detachment_flux(L, delta) -> float:
    """Interface erosion rate delta * L^2 (m/day)."""
    return delta * L * L


def inflow_fractions(psi_star, cfg) -> np.ndarray:
    """Composition of freshly attached biomass.

    Proportional to v_a_i * psi_i; species with zero attachment stay exactly
    zero, and the closure to unit sum is folded into the last nonzero
    component so the fractions sum to one.
    """
    a = cfg.arrays
    psi = np.maximum(np.asarray(psi_star, dtype=float), 0.0)
    raw = a["v_a"] * psi
    total = float(raw.sum())
    if total <= 0.0:
        raise NoAttachment("all attachment fluxes vanish")
    out = raw / total
    k = int(np.nonzero(raw)[0][-1])
    out[k] = 1.0 - (out.sum() - out[k])
    for _ in range(3):
        err = out.sum() - 1.0
        if err == 0.0:
            break
        out[k] -= err
    return out
