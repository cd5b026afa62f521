"""User-terminal power consumption accounting.

Component costs are expressed as multiples of a reference power: an RF
chain costs 2x, an ADC 10x, an RF switch 0.25x, an LNA 1x, a phase
shifter 1.5x, and baseband processing 1x per RF chain. The proposed
envelope-detection receiver shares LNAs between uplink and downlink
(hence the factor 2 inside the per-antenna term) but needs only one
RF chain/ADC pair each way; the fully digital receiver replicates the
whole chain per antenna for both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PowerConfig",
    "power_proposed",
    "power_fd",
    "power_ratio",
    "ratio_approximation",
]

# Component costs in units of the reference power.
RF_CHAIN = 2.0
ADC = 10.0
SWITCH = 0.25
LNA = 1.0
PHASE_SHIFTER = 1.5


@dataclass(frozen=True)
class PowerConfig:
    """Receiver sizing for the power model (powers in milliwatts)."""

    p_ref: float
    n_rx: int

    def __post_init__(self) -> None:
        if not 0 < self.p_ref < math.inf:
            raise ValueError("p_ref must be positive and finite")
        if self.n_rx < 1:
            raise ValueError("n_rx must be >= 1")


def power_proposed(cfg: PowerConfig) -> float:
    """Uplink+downlink consumption of the envelope-detection receiver (mW)."""
    per_antenna = 2.0 * LNA + PHASE_SHIFTER + SWITCH
    shared = 2.0 * (RF_CHAIN + ADC) + 1.0  # baseband for its one RF chain
    return cfg.p_ref * (cfg.n_rx * per_antenna + shared)


def power_fd(cfg: PowerConfig) -> float:
    """Uplink+downlink consumption of the fully digital receiver (mW)."""
    # baseband for one RF chain per antenna
    return cfg.p_ref * (2.0 * cfg.n_rx * (LNA + RF_CHAIN + ADC) + cfg.n_rx * 1.0)


def ratio_approximation(n_rx: int) -> float:
    """Published small-ratio approximation 0.14 + 0.9 / n_rx."""
    return 0.14 + 0.9 / n_rx


def power_ratio(cfg: PowerConfig) -> tuple[float, float]:
    """Exact proposed/fully-digital consumption ratio and its approximation."""
    return power_proposed(cfg) / power_fd(cfg), ratio_approximation(cfg.n_rx)
