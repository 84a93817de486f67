"""Session fixtures shared across test modules.

The three reference scenarios at their defaults (N = 200, dt_max = 1e-3 d,
10 d), each run once per session: the acceptance criteria read them, and
the byte-identity tests pin their output hashes.
"""

import pytest

from biofilm1d.presets import build_preset
from biofilm1d.stepper import run


@pytest.fixture(scope="session")
def case1_run():
    return run(build_preset("case1").cfg, record_profiles=True, profile_t_max=1.05)


@pytest.fixture(scope="session")
def case2_run():
    return run(build_preset("case2").cfg, record_profiles=True, profile_t_max=0.55)


@pytest.fixture(scope="session")
def case3_run():
    return run(build_preset("case3").cfg)
