"""One-dimensional free-boundary simulator for multispecies biofilms.

The model couples hyperbolic transport of sessile volume fractions on a
moving domain, quasi-static diffusion of substrates and planktonic cells,
Monod growth and colonization kinetics, and an ODE for the biofilm
thickness driven by attachment, detachment and internal expansion.  A
fixed-point solver in characteristic coordinates cross-validates the time
stepper on short horizons and estimates the contraction window on which
the integral formulation is well posed, from sampled kernel bounds (a
bound once ROADMAP item 11 lands).
"""

from .errors import (Biofilm1dError, BoundaryLayerResolutionWarning, ConfigError,
                     DetachmentRegime, IoFailure, NoAttachment, NonConvergence,
                     NumericalBlowup, OutOfDomain, SingularJacobian, UnknownPreset)
from .kinetics import (RateBundle, attachment_flux, detachment_flux,
                       inflow_fractions, monod, rate_bundle, substrate_rates)
from .model import (CONSTRAINT_TOL, BoundaryTrace, NumericsConfig, ProfileTrace,
                    RunResult, ScenarioConfig, Snapshot, SpeciesParams,
                    Stoichiometry, SubstrateParams, ValidationReport, attaching,
                    validate_config)
from .elliptic import (EllipticSolution, solve_planktonic, solve_substrates,
                       tridiagonal_solve)
from .stepper import compute_velocity, make_snapshot, run
from .oracle import (CharField, CharPath, ContractionBox, ContractionEstimate,
                     box_from_run, characteristic_trace, cross_check_errors,
                     estimate_contraction, map_run_to_char_grid, picard_solve,
                     window_root)
from .presets import DEFAULT_T1, PRESET_IDS, CasePreset, build_preset
from .traces import (BulkTraces, ConstantTrace, RampTrace, TableTrace,
                     parse_descriptor)
from .output import OutputBundle, emit
from . import configio

__version__ = "0.1.0"
