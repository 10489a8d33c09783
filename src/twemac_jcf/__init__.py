"""Density evolution and finite-length validation for joint
compute-and-forward message-passing decoding of identical LDPC codes over
two-way erasure multiple-access channels."""

__version__ = "0.1.0"

from .channel import (
    ChannelFamily,
    get_family,
    parse_channel_config,
    puncture,
    validate_dist,
)
from .de_coupled import Caps, DeOutcome, Ensemble, de_batch, nominal_rate
from .rates import RateBundle, rate_bounds
from .threshold import find_threshold, sweep

__all__ = [
    "ChannelFamily",
    "get_family",
    "parse_channel_config",
    "puncture",
    "validate_dist",
    "Caps",
    "DeOutcome",
    "Ensemble",
    "de_batch",
    "nominal_rate",
    "RateBundle",
    "rate_bounds",
    "find_threshold",
    "sweep",
]
