"""CPU accounting for experiment components.

The paper normalizes CPU usage against the number of cores of the host
(Fig. 6, 8, 9).  Here every measured component (agent, server, baseline
controller, base-station user plane) charges the CPU time it consumes to
a :class:`CpuMeter`.  Two modes are supported:

* **wall-clock sections** — ``with meter.measure(): ...`` charges the
  elapsed ``time.perf_counter_ns`` of the block.  Used for socket-driven
  experiments where the component actually runs on this machine.
* **modelled charges** — :meth:`CpuMeter.charge` adds an externally
  computed cost (seconds).  Used by the discrete-event simulator, where
  simulated time and host time are decoupled.

Normalization follows the paper: ``busy_seconds / (interval * n_cores)``
expressed as a percentage.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class CpuSample:
    """One normalized CPU reading.

    Attributes:
        busy_s: CPU-seconds consumed by the component.
        interval_s: observation interval in seconds.
        cores: number of cores used for normalization.
    """

    busy_s: float
    interval_s: float
    cores: int

    @property
    def normalized_percent(self) -> float:
        """CPU usage normalized to the whole machine, in percent."""
        if self.interval_s <= 0.0:
            return 0.0
        return 100.0 * self.busy_s / (self.interval_s * self.cores)

    @property
    def single_core_percent(self) -> float:
        """CPU usage of a single core, in percent."""
        if self.interval_s <= 0.0:
            return 0.0
        return 100.0 * self.busy_s / self.interval_s


class CpuMeter:
    """Accumulates CPU time consumed by one named component.

    Example:
        >>> meter = CpuMeter("agent", cores=8)
        >>> with meter.measure():
        ...     _ = sum(range(1000))
        >>> meter.busy_s > 0
        True
    """

    def __init__(self, name: str, cores: int | None = None) -> None:
        self.name = name
        self.cores = cores if cores is not None else (os.cpu_count() or 1)
        self.busy_s = 0.0
        self._section_count = 0

    def measure(self) -> "_MeasuredSection":
        """Charge the wall-clock duration of the block to this meter.

        Returns a lightweight context manager rather than a
        ``contextlib`` generator: metering wraps every message on the
        hot path, so its fixed cost must stay far below the work it
        measures.
        """
        return _MeasuredSection(self)

    def charge(self, seconds: float) -> None:
        """Add a modelled CPU cost (discrete-event simulations)."""
        if seconds < 0.0:
            raise ValueError(f"negative CPU charge: {seconds}")
        self.busy_s += seconds
        self._section_count += 1

    def reset(self) -> None:
        """Zero the accumulated time (e.g. after a warm-up phase)."""
        self.busy_s = 0.0
        self._section_count = 0

    @property
    def sections(self) -> int:
        """Number of measured sections / charges recorded."""
        return self._section_count

    def sample(self, interval_s: float) -> CpuSample:
        """Snapshot usage over ``interval_s`` seconds of observation."""
        return CpuSample(busy_s=self.busy_s, interval_s=interval_s, cores=self.cores)

    def __repr__(self) -> str:
        return f"CpuMeter(name={self.name!r}, busy_s={self.busy_s:.6f}, cores={self.cores})"


class _MeasuredSection:
    """Minimal-overhead timing context for :meth:`CpuMeter.measure`."""

    __slots__ = ("_meter", "_start")

    def __init__(self, meter: CpuMeter) -> None:
        self._meter = meter

    def __enter__(self) -> None:
        self._start = time.perf_counter_ns()

    def __exit__(self, exc_type, exc, tb) -> None:
        meter = self._meter
        meter.busy_s += (time.perf_counter_ns() - self._start) / 1e9
        meter._section_count += 1
