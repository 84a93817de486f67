"""The stepper against closed-form solutions of the model.

A species that neither grows (``mu_max = 0``) nor colonizes (``k_col = 0``)
makes the velocity source G vanish, so ``u_L = 0`` and the interface law of a
film started empty is the Riccati problem

    dL/dt = sigma_a - delta L^2,   L(0) = 0,

with the solution ``L(t) = sqrt(sigma_a/delta) tanh(sqrt(sigma_a delta) t)``.
Explicit Euler steps of it are first order in dt.
"""

import math

import numpy as np
import pytest

from biofilm1d.model import (NumericsConfig, ScenarioConfig, SpeciesParams,
                             Stoichiometry, SubstrateParams)
from biofilm1d.stepper import run
from biofilm1d.traces import BulkTraces, ConstantTrace

# sigma_a = v_a psi* / rho = 0.025 * 100 / 5000 m/d
SIGMA_A, DELTA = 5e-4, 2000.0


def riccati_cfg(horizon, dt_max):
    """One inert species attaching at ``SIGMA_A`` against erosion ``DELTA``."""
    species = (SpeciesParams(mu_max=0.0, K=1.0, Y=0.5, rho=5000.0, v_a=0.025,
                             k_col=0.0),)
    return ScenarioConfig(
        species=species, substrates=(SubstrateParams(D=1e-4),), delta=DELTA,
        bulk=BulkTraces(psi_star=(ConstantTrace(100.0),),
                        s_star=(ConstantTrace(100.0),)),
        stoichiometry=Stoichiometry(substrate_of=(0,), production=((-1.0,),)),
        numerics=NumericsConfig(N=8, dt_max=dt_max), horizon=horizon,
        snapshot_times=())


def riccati_L(t):
    return math.sqrt(SIGMA_A / DELTA) * math.tanh(math.sqrt(SIGMA_A * DELTA) * t)


@pytest.mark.parametrize("T", [0.02, 1.0])
def test_thickness_is_first_order_in_dt(T):
    # the short horizon sees the start: any L(0) other than 0 floors the
    # relative error there (a 1e-9 m offset floors it at 1e-4, order 0.03)
    errors = []
    for steps in (50, 100, 200):
        b = run(riccati_cfg(T, T / steps)).boundary
        assert b.t[-1] == T and b.t.size == steps + 1
        np.testing.assert_array_equal(b.u_L, 0.0)
        errors.append(abs(b.L[-1] - riccati_L(T)) / riccati_L(T))
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert min(orders) >= 0.9, (errors, orders)
    assert errors[-1] < 1e-2


def test_first_step_from_the_empty_film():
    # L(dt) = sigma_a dt, which the closed form matches to its local error
    # sigma_a^2 delta dt^3 / 3
    dt = 4e-4
    b = run(riccati_cfg(dt, dt)).boundary
    assert b.L[0] == 0.0 and b.sigma_d[0] == 0.0
    assert b.L[1] == dt * SIGMA_A == dt * b.sigma_a[0]
    local = SIGMA_A ** 2 * DELTA * dt ** 3 / 3.0
    assert abs(b.L[1] - riccati_L(dt)) == pytest.approx(local, rel=1e-3)
