"""Link-level simulator and analysis toolkit for threshold-detected
receive spatial modulation over clustered mmWave MIMO downlinks."""

__version__ = "0.1.0"

from .analysis import (
    AbepBreakdown,
    abep,
    constellation_bep,
    modulation_error_prob,
    spatial_error_probs_estimated,
    spatial_error_probs_perfect,
)
from .baseline import RankDeficient, fd_ber, received_power, svd_link
from .channel import ChannelParams, array_response, draw_channel, sector_gain
from .mimo import (
    AntennaSelection,
    SingularChannel,
    TooManySubsets,
    select_antennas,
    zf_precoder,
)
from .phy import (
    Constellation,
    IllegalSpatialWord,
    NoRoot,
    UnsupportedOrder,
    build_constellation,
    combine_and_detect_modulation,
    detect_spatial,
    nearest_point,
    spatial_bits,
    threshold,
    transmit,
)
from .power import PowerConfig, power_fd, power_proposed, power_ratio
from .simulate import (
    ErrorReport,
    FdConfig,
    PointAborted,
    RsmConfig,
    SnrPoint,
    run,
    run_fd,
)
from .training import (
    DegenerateSample,
    SingularFisher,
    estimate_amplitude,
    threshold_estimate_stats,
)

__all__ = [
    "__version__",
    "AbepBreakdown",
    "AntennaSelection",
    "ChannelParams",
    "Constellation",
    "DegenerateSample",
    "ErrorReport",
    "FdConfig",
    "IllegalSpatialWord",
    "NoRoot",
    "PointAborted",
    "PowerConfig",
    "RankDeficient",
    "RsmConfig",
    "SingularChannel",
    "SingularFisher",
    "SnrPoint",
    "TooManySubsets",
    "UnsupportedOrder",
    "abep",
    "array_response",
    "build_constellation",
    "combine_and_detect_modulation",
    "constellation_bep",
    "detect_spatial",
    "draw_channel",
    "estimate_amplitude",
    "fd_ber",
    "modulation_error_prob",
    "nearest_point",
    "power_fd",
    "power_proposed",
    "power_ratio",
    "received_power",
    "run",
    "run_fd",
    "sector_gain",
    "select_antennas",
    "spatial_bits",
    "spatial_error_probs_estimated",
    "spatial_error_probs_perfect",
    "svd_link",
    "threshold",
    "threshold_estimate_stats",
    "transmit",
    "zf_precoder",
]
