"""Shared utilities: addressing, RNG, statistics, errors."""

from repro.util.errors import (
    AddressError,
    CheckpointError,
    ConfigError,
    ExplorationError,
    IsolationViolation,
    PrivacyViolation,
    ReproError,
    SimulationError,
    SolverError,
    SymbolicError,
    WireFormatError,
)
from repro.util.ip import ADDR_BITS, ADDR_MAX, Prefix, PrefixTrie, int_to_ip, ip_to_int, mask_for
from repro.util.rng import derive_rng, derive_seed
from repro.util.stats import (
    Counter,
    CounterRegistry,
    Histogram,
    RateMeter,
    RunningStats,
    Stopwatch,
)

__all__ = [
    "ADDR_BITS",
    "ADDR_MAX",
    "AddressError",
    "CheckpointError",
    "ConfigError",
    "Counter",
    "CounterRegistry",
    "ExplorationError",
    "Histogram",
    "IsolationViolation",
    "Prefix",
    "PrefixTrie",
    "PrivacyViolation",
    "RateMeter",
    "ReproError",
    "RunningStats",
    "SimulationError",
    "SolverError",
    "Stopwatch",
    "SymbolicError",
    "WireFormatError",
    "derive_rng",
    "derive_seed",
    "int_to_ip",
    "ip_to_int",
    "mask_for",
]
