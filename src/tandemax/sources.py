"""Service-time sourcing: trace files and a portable seeded generator.

The random kinds use a counter-based 64-bit mixing generator (the
splitmix64 finalizer applied twice to a per-cell key derived from the
seed and the station/customer indices), so tau_ik depends only on
(seed, i, k) and is reproducible across platforms, iteration orders,
and thread counts.  Uniform sampling scales the 53-bit mantissa
fraction; exponential sampling is the inverse transform
-log(1 - u) / rate.  Integer mode rounds samples to the nearest
integer so cross-route comparisons are exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import ServiceTimes

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def cell_uniform01(seed: int, i: int, k: int) -> float:
    """Deterministic u in [0, 1) for cell (station i, customer k), 1-based."""
    key = (seed + _GOLDEN * ((i << 32) ^ k)) & _MASK
    return (_mix64(_mix64(key)) >> 11) * 2.0 ** -53


class SourceConfigError(ValueError):
    """Invalid service-time source description."""


@dataclass(frozen=True)
class ServiceTimeSource:
    """Supplier of the n x K service-time matrix.

    kinds: "constant" (value), "uniform" (low, high), "exponential"
    (rate), "trace" (path to a k,i,tau CSV).
    """

    kind: str
    value: float = 1.0
    low: float = 0.0
    high: float = 1.0
    rate: float = 1.0
    path: str | None = None
    seed: int = 0
    integer_times: bool = False

    def __post_init__(self):
        if self.kind not in ("trace", "constant", "uniform", "exponential"):
            raise SourceConfigError(f"unknown source kind {self.kind!r}")
        if self.kind == "constant" and self.value < 0:
            raise SourceConfigError("constant service time must be >= 0")
        if self.kind == "uniform" and not (0 <= self.low <= self.high):
            raise SourceConfigError("uniform bounds need 0 <= low <= high")
        if self.kind == "exponential" and self.rate <= 0:
            raise SourceConfigError("exponential rate must be > 0")
        if self.kind == "trace" and not self.path:
            raise SourceConfigError("trace source needs a path")

    def sample(self, n: int, horizon: int) -> ServiceTimes:
        if self.kind == "trace":
            return load_trace(self.path, n, horizon)
        tau = np.empty((n, horizon))
        for i in range(1, n + 1):
            for k in range(1, horizon + 1):
                if self.kind == "constant":
                    x = self.value
                else:
                    u = cell_uniform01(self.seed, i, k)
                    if self.kind == "uniform":
                        x = self.low + (self.high - self.low) * u
                    else:
                        x = -math.log1p(-u) / self.rate
                tau[i - 1, k - 1] = x
        if self.integer_times:
            tau = np.rint(tau)
        return ServiceTimes(tau)


TRACE_HEADER = ["k", "i", "tau"]


def load_trace(path, n: int, horizon: int) -> ServiceTimes:
    """Load a dense service-time trace from a `k,i,tau` CSV."""
    path = Path(path)
    tau = np.full((n, horizon), np.nan)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != TRACE_HEADER:
            raise SourceConfigError(f"{path}: expected header 'k,i,tau'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise SourceConfigError(f"{path}:{lineno}: expected 3 fields")
            try:
                k = int(row[0])
                i = int(row[1])
                x = float(row[2])
            except ValueError as exc:
                raise SourceConfigError(f"{path}:{lineno}: {exc}") from exc
            if not (1 <= i <= n and 1 <= k <= horizon):
                raise SourceConfigError(
                    f"{path}:{lineno}: cell (k={k}, i={i}) outside 1..{horizon} x 1..{n}"
                )
            if not math.isfinite(x) or x < 0:
                raise SourceConfigError(
                    f"{path}:{lineno}: tau must be finite and >= 0, got {row[2]}"
                )
            if not math.isnan(tau[i - 1, k - 1]):
                raise SourceConfigError(f"{path}:{lineno}: duplicate cell (k={k}, i={i})")
            tau[i - 1, k - 1] = x
    missing = np.argwhere(np.isnan(tau))
    if missing.size:
        i0, k0 = missing[0]
        raise SourceConfigError(
            f"{path}: missing cell (k={int(k0) + 1}, i={int(i0) + 1})"
        )
    return ServiceTimes(tau)


def dump_trace(tau: ServiceTimes, path) -> None:
    """Write the trace CSV that ``load_trace`` reads back verbatim."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for k in range(1, tau.horizon + 1):
            for i in range(1, tau.n + 1):
                writer.writerow([k, i, format(tau.tau[i - 1, k - 1], ".17g")])
