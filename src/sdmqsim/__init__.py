"""Photon-level Monte Carlo toolkit for multilevel time-bin/phase quantum
transmission over a mode-division-multiplexed few-mode fiber link."""

__version__ = "0.1.0"

from .config import (
    ConfigError,
    RandomSource,
    SignalAssignment,
    SimConfig,
)
from .channel import (
    AssignmentError,
    ChannelModel,
    crosstalk_from_db,
    load_link_tables,
)
from .receiver import Histogram, InterferometerRates, delay_interferometer_rates
from .analysis import (
    capacity_from_counts,
    counts_per_second,
    crosstalk_db,
    error_budget,
    extinction_ratio_db,
    fit_visibility,
    prob_from_db,
    snr_db,
    tomography,
)
from .protocol import key_rate
from .scenarios import Scenario, load_scenario
from .pipeline import RunResult, run_scenario, simulate_bb84

__all__ = [name for name in dir() if not name.startswith("_")]
