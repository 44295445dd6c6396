"""Position and orientation error bounds for single-anchor two-way localization.

The library derives Cramér-Rao-style bounds for estimating a terminal's 3D
position and two-angle orientation from a single anchor over a mmWave MIMO
link, for one-way, round-trip, and collaborative two-way protocols.
"""

__version__ = "0.1.0"

from .beamforming import (
    Beamformer,
    SignalConfig,
    directional_beams,
    region_spot_grid,
    reverse_direction,
    sector_beam_grid,
)
from .fim import (
    angle_efim,
    channel_fim,
    delay_info,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    steering,
    wavenumber,
)
from .kernels import steering_forms
from .pose import (
    ChannelGeometry,
    Pose,
    channel_geometry,
    location_jacobian,
    rotation_matrix,
)
from .protocols import (
    LocalizationBound,
    assemble,
    delay_weight,
)
from .scenario import (
    CdfResult,
    Region,
    Scenario,
    percentile,
    run_cdf,
    sample_positions,
    sweep_antennas,
    sweep_bandwidth,
)
