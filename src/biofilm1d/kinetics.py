"""Reaction-rate evaluations: growth, substrate conversion, colonization,
and the interface attachment and detachment fluxes.

All functions are pure.  The rates broadcast over a trailing node axis, so
they can be evaluated for a single point ``(n,)`` or a whole grid ``(n, K)``
alike; the Newton row kernels take grids only.
The Monod factor reads a negative substrate iterate as zero, the package's
one clamp of a negative value; fractions and planktonic fields are
non-negative by construction and read as given.
Every substrate-network row (rates, single Newton rows, their Jacobian) is
one species-order sum of elementwise products, so a row computed alone is
bitwise that row of all and no CPU-chosen BLAS kernel decides a bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NoAttachment

logger = logging.getLogger(__name__)


def _clamped(a):
    a = np.asarray(a, dtype=float)
    # any(a < 0), NaN ignored, without the boolean temporary
    if np.fmin.reduce(a, axis=None, initial=0.0) < 0.0:
        if logger.isEnabledFor(logging.DEBUG):  # the count costs a pass
            logger.debug("clamped %d negative substrate value(s) during rate evaluation",
                         int(np.sum(a < 0.0)))
        a = np.maximum(a, 0.0)
    return a


def monod(s, K):
    """Saturating limitation factor s/(K+s); a negative s reads as 0, the one clamp."""
    s = _clamped(s)
    return s / (K + s)


def dmonod(s, K):
    """d/ds of :func:`monod`; the clamp branch uses the one-sided value 1/K."""
    s = _clamped(s)
    return K / (K + s) ** 2


def _column(v, ndim):
    """Per-species vector ``v`` shaped to broadcast over ``ndim - 1`` node axes."""
    return v.reshape((-1,) + (1,) * (ndim - 1))


def _limitation(S, a, ndim):
    """Monod factor of every species on its own substrate, (n, ...)."""
    s_sel = np.asarray(S, dtype=float)[a["substrate_of"]]
    return monod(s_sel, _column(a["K"], ndim))


def _growth(f, limitation, a):
    return _column(a["mu_max"], f.ndim) * limitation * f


def _colonization(Psi, limitation, a):
    return (_column(a["k_col"], Psi.ndim) / _column(a["rho"], Psi.ndim)) \
        * limitation * Psi


def _row_sum(terms, load):
    """One substrate-network row: from +0.0, add ``w * load[i]`` for each
    ``(i, w)`` of ``terms``, the row's nonzero coefficients in species order."""
    out = np.zeros(load.shape[1:])
    for i, w in terms:
        out += w * load[i]
    return out


def _network_weighted(r_m, a):
    """r_S from the growth rates, one :func:`_row_sum` per substrate."""
    load = r_m * _column(a["rho_Y"], r_m.ndim)
    return np.array([_row_sum(terms, load) for *_, terms in a["substrate_rows"]])


def substrate_rates(f, S, cfg):
    """Substrate conversion rates (g/m^3/day), network-weighted."""
    a = cfg.arrays
    f = np.asarray(f, dtype=float)
    return _network_weighted(_growth(f, _limitation(S, a, f.ndim), a), a)


def substrate_row_rates(f, S, cfg):
    """One substrate row at a time on a grid: ``f`` (n, K) and ``S`` (m, K).

    Returns ``rate(j, s)``, the conversion rate of substrate j with S[j]
    replaced by ``s`` and every other row at its value in S or at the last
    ``s`` passed for it.  A call refreshes only the load rows ``rho/Y * r_M``
    of the species growing on substrate j and sums row j alone, by the same
    rule as :func:`substrate_rates`, so it is bitwise that function's row j.
    """
    a = cfg.arrays
    f = np.asarray(f, dtype=float)
    load = _growth(f, _limitation(S, a, f.ndim), a) * _column(a["rho_Y"], 2)
    rows = [(sp, mu, K, f[sp], rho_Y, terms)
            for sp, _, mu, K, rho_Y, terms in a["substrate_rows"]]

    def rate(j, s):
        sp, mu, K, f_sp, rho_Y, terms = rows[j]
        load[sp] = mu * monod(s, K) * f_sp * rho_Y
        return _row_sum(terms, load)

    return rate


def substrate_rate_jacobian_diag(f, s, j, cfg):
    """d r_S[j] / d S[j] at each node of a grid, ``f`` (n, K), at S[j] = ``s``
    (K,); used by the elliptic Newton solver.  Row j depends on no other
    substrate: only the species growing on substrate j contribute, summed as
    in :func:`_row_sum`.  Any other shapes raise ``ValueError``: the
    species' parameter columns would broadcast a point across species."""
    f = np.asarray(f)
    if f.ndim != 2 or f.shape[0] != cfg.n or np.shape(s) != f.shape[1:]:
        raise ValueError(f"need f (n, K) with n = {cfg.n} and s (K,), "
                         f"got {f.shape} and {np.shape(s)}")
    sp, own, mu, K, rho_Y, _ = cfg.arrays["substrate_rows"][j]
    dload = mu * dmonod(s, K) * f[sp] * rho_Y
    return _row_sum(own, dload)


def planktonic_sink_coefficients(S, cfg):
    """Coefficients kappa_i >= 0 with r_Psi[i] = -kappa_i * Psi[i] at frozen S."""
    a = cfg.arrays
    ndim = np.ndim(S)
    return (_column(a["k_col"], ndim) / _column(a["Y_psi"], ndim)) \
        * _limitation(S, a, ndim)


def _sum_G(r_m, r_col):
    # Fixed left-to-right summation so every caller gets bitwise the same G.
    G = r_m[0] + r_col[0]
    for i in range(1, r_m.shape[0]):
        G = G + (r_m[i] + r_col[i])
    return G


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
    a = cfg.arrays
    f = np.asarray(f, dtype=float)
    Psi = np.asarray(Psi, dtype=float)
    limitation = _limitation(S, a, f.ndim)  # shared by both rates
    r_m = _growth(f, limitation, a)
    r_col = _colonization(Psi, limitation, a)
    del limitation, f  # not held while r_S, r_Psi and G are built
    return RateBundle(r_M=r_m, r_col=r_col, r_S=_network_weighted(r_m, a),
                      r_Psi=-_column(a["rho"] / a["Y_psi"], r_col.ndim) * r_col,
                      G=_sum_G(r_m, r_col))


def attachment_flux(psi_star, cfg) -> float:
    """Total interface gain from attaching bulk cells, sum v_a_i psi_i / rho_i (m/day)."""
    a = cfg.arrays
    psi = np.maximum(np.asarray(psi_star, dtype=float), 0.0)
    return float(np.sum(a["v_a"] * psi / a["rho"]))


def detachment_flux(L, delta) -> float:
    """Interface erosion rate delta * L^2 (m/day)."""
    return delta * L * L


def _closed(shares, k) -> np.ndarray:
    """``shares`` with the closure to unit sum folded into share ``k``."""
    out = shares.copy()
    out[k] = 1.0 - (out.sum() - out[k])
    for _ in range(3):
        err = out.sum() - 1.0
        if err == 0.0:
            break
        out[k] -= err
    return out


def inflow_fractions(psi_star, cfg) -> np.ndarray:
    """Composition of freshly attached biomass.

    Proportional to v_a_i * psi_i; species with zero attachment stay exactly
    +0.0 (a -0.0 velocity or bulk value counts as +0.0), and the closure to unit sum is folded into the last nonzero
    component so the fractions sum to one.  Where that component is below
    rounding and the fold would make it negative, the closure goes into the
    largest component instead: that one is at least 1/n, so no share is
    negative.
    """
    a = cfg.arrays
    psi = np.maximum(np.asarray(psi_star, dtype=float), 0.0)
    raw = np.maximum(a["v_a"], 0.0) * psi
    total = float(raw.sum())
    if total <= 0.0:
        raise NoAttachment("all attachment fluxes vanish")
    shares = raw / total
    out = _closed(shares, int(np.nonzero(raw)[0][-1]))
    if out.min() < 0.0:
        out = _closed(shares, int(np.argmax(shares)))
    return out
