"""Built-in scenarios for the three-species / three-substrate reactor.

All three cases share the same kinetics: species 1 and 2 grow on substrates
1 and 2, species 1 produces substrate 3, species 3 consumes it.  Species 3
arrives in the bulk only at ``t1``:

* ``case1``: attachment only (colonization disabled).
* ``case2``: attachment plus colonization for every species.
* ``case3``: species 3 cannot attach but can colonize.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownPreset
from .model import (NumericsConfig, ScenarioConfig, SpeciesParams, Stoichiometry,
                    SubstrateParams)
from .traces import BulkTraces, ConstantTrace, RampTrace

PRESET_IDS = ("case1", "case2", "case3")

#: Arrival time of the third bulk species.  The scenario definition leaves it
#: open; 0.2 d keeps the arrival inside the early attachment phase.
DEFAULT_T1 = 0.2


@dataclass(frozen=True)
class CasePreset:
    cfg: ScenarioConfig
    notes: tuple


def build_preset(preset_id: str, t1: float = DEFAULT_T1,
                 variant: str = "printed") -> CasePreset:
    """Assemble one of the built-in scenarios.

    ``t1`` is the arrival time of the third species' bulk ramp and
    ``variant`` selects the ramp denominator constant ('printed' uses
    t1**(10/t1), 'corrected' uses t1**10).
    """
    if preset_id not in PRESET_IDS:
        raise UnknownPreset(f"unknown preset {preset_id!r}; expected one of {PRESET_IDS}")

    col = preset_id in ("case2", "case3")
    k_col = 2.5 if col else 0.0
    v_a3 = 0.0 if preset_id == "case3" else 0.025

    def species(mu, K, Y, v_a):
        return SpeciesParams(mu_max=mu, K=K, Y=Y, rho=5000.0, v_a=v_a,
                             k_col=k_col, Y_psi=2e-7, D_psi=1e-5)

    cfg = ScenarioConfig(
        species=(
            species(0.4, 1.0, 0.4, 0.025),
            species(1.5, 20.0, 0.9, 0.025),
            species(0.5, 1.0, 0.9, v_a3),
        ),
        substrates=(SubstrateParams(1e-5),) * 3,
        delta=2000.0,
        bulk=BulkTraces(
            psi_star=(ConstantTrace(100.0), ConstantTrace(100.0),
                      RampTrace(100.0, t1, variant)),
            s_star=(ConstantTrace(100.0), ConstantTrace(100.0),
                    ConstantTrace(0.0)),
        ),
        stoichiometry=Stoichiometry.builtin3x3(),
        numerics=NumericsConfig(),
        horizon=10.0,
        snapshot_times=(0.25, 0.5, 1.0, 10.0),
    )
    notes = (
        f"t1 = {t1!r} d: assumed arrival time of the third bulk species "
        "(not fixed by the scenario definition)",
        f"psi3 ramp variant = {variant}: denominator constant "
        + ("t1**(10/t1)" if variant == "printed" else "t1**10"),
    )
    return CasePreset(cfg=cfg, notes=notes)
