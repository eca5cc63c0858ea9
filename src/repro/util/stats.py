"""Lightweight measurement primitives used by benchmarks and the monitor.

The evaluation reproduces throughput (updates per second), memory-page
fractions, and exploration counters, so the library carries its own tiny
metrics toolkit rather than depending on an external one:

* :class:`Counter` / :class:`CounterRegistry` — named monotonically
  increasing counters,
* :class:`RunningStats` — Welford mean / variance / min / max,
* :class:`Histogram` — fixed set of recorded samples with percentiles,
* :class:`RateMeter` — events per (simulated or wall-clock) second,
* :class:`Stopwatch` — context-manager wall-clock timer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional


@dataclass
class Counter:
    """A named monotonically increasing counter."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge for decrements")
        self.value += amount


class CounterRegistry:
    """A namespace of counters, created on first use.

    >>> registry = CounterRegistry()
    >>> registry.increment("paths_explored")
    >>> registry["paths_explored"]
    1
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def increment(self, name: str, amount: int = 1) -> None:
        # In place rather than through counter()/Counter.increment: the
        # router bumps several counters per delivered message.
        if amount < 0:
            raise ValueError("counters only increase; use a gauge for decrements")
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.value += amount

    def __getitem__(self, name: str) -> int:
        return self._counters[name].value if name in self._counters else 0

    def snapshot(self) -> Dict[str, int]:
        """A plain dict copy of all counter values."""
        return {name: counter.value for name, counter in self._counters.items()}

    def reset(self) -> None:
        self._counters.clear()

    def fork(self) -> "CounterRegistry":
        """An independent registry holding the same values."""
        registry = CounterRegistry()
        registry._counters = {
            name: replace(counter) for name, counter in self._counters.items()
        }
        return registry


class RunningStats:
    """Welford online mean/variance with min/max tracking."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.4g}, "
            f"stddev={self.stddev:.4g}, min={self.minimum}, max={self.maximum})"
        )


class Histogram:
    """Recorded samples with percentile queries.

    Keeps raw samples; fine for the sample counts benchmarks produce
    (thousands, not millions).
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = False

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile, ``pct`` in [0, 100]."""
        if not self._samples:
            raise ValueError("empty histogram")
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile {pct} out of range")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        if len(self._samples) == 1:
            return self._samples[0]
        rank = (pct / 100.0) * (len(self._samples) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return self._samples[low]
        weight = rank - low
        low_sample, high_sample = self._samples[low], self._samples[high]
        # lerp as low + w*(high-low), clamped: the textbook two-product
        # form can dip below earlier percentiles when rounding denormal
        # products (e.g. two 5e-324 samples make p50 = 0 < p25).
        value = low_sample + weight * (high_sample - low_sample)
        return min(max(value, low_sample), high_sample)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("empty histogram")
        return sum(self._samples) / len(self._samples)

    @property
    def maximum(self) -> float:
        if not self._samples:
            raise ValueError("empty histogram")
        return max(self._samples)

    @property
    def minimum(self) -> float:
        if not self._samples:
            raise ValueError("empty histogram")
        return min(self._samples)


@dataclass
class RateMeter:
    """Events per second over an explicit time axis.

    The time axis is supplied by the caller (simulated seconds from the
    event simulator, or wall-clock seconds), so the same meter works for
    both live and simulated throughput measurements.
    """

    start_time: float = 0.0
    events: int = 0
    last_time: float = field(default=0.0)

    def record(self, now: float, count: int = 1) -> None:
        if now < self.last_time:
            raise ValueError("time went backwards")
        self.events += count
        self.last_time = now

    def rate(self, now: Optional[float] = None) -> float:
        """Events per second from ``start_time`` to ``now``."""
        end = self.last_time if now is None else now
        elapsed = end - self.start_time
        if elapsed <= 0:
            return 0.0
        return self.events / elapsed


class Stopwatch:
    """Context-manager wall-clock timer.

    >>> with Stopwatch() as watch:
    ...     _ = sum(range(100))
    >>> watch.elapsed >= 0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started = 0.0

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._started
