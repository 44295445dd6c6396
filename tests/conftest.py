import numpy as np
import pytest

from twl.beamforming import SignalConfig
from twl.geometry import ArrayGeometry


@pytest.fixture(scope="session")
def default_signal() -> SignalConfig:
    """38 GHz carrier, 125 MHz bandwidth, 64 pilots, 0 dBm, -170 dBm/Hz."""
    return SignalConfig.from_link_budget(
        power_w=1e-3, bandwidth=125e6, ns=64, n0=1e-20, carrier=38e9
    )


@pytest.fixture(scope="session")
def ura12(default_signal):
    return ArrayGeometry(12, 12, default_signal.wavelength)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
