import numpy as np
import pytest

from twl.scenario import Scenario


@pytest.fixture(scope="session")
def reference_scenario() -> Scenario:
    return Scenario.reference_defaults()


@pytest.fixture(scope="session")
def default_signal(reference_scenario):
    """38 GHz carrier, 125 MHz bandwidth, 64 pilots, 0 dBm, -170 dBm/Hz."""
    return reference_scenario.signal


@pytest.fixture(scope="session")
def ura12(reference_scenario):
    """The reference 12x12 half-wavelength array."""
    return reference_scenario.bs_array


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
