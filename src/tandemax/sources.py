"""Service-time sourcing: trace files and a portable seeded generator.

The random kinds use a counter-based generator: the splitmix64 finalizer
applied twice to a key of (seed, station i, customer k), evaluated on
the whole n x K index grid (a chunk of its customers, or the grids of
several seeds) at once in numpy uint64 arithmetic, so tau_ik is the same
on every platform, in every iteration order, in chunks of any size and
in stacks of any seeds.  Uniform sampling
scales the 53-bit mantissa fraction; exponential sampling is
-log1p(-u) / rate per cell with the platform libm's log1p (numpy's SIMD
log1p can differ in the last bit).  Integer mode rounds samples to the
nearest integer so cross-route comparisons are exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import ServiceTimes


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _uniform01(seed, i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """u in [0, 1) at cells (i, k), 1-based, over broadcastable uint64 index
    arrays.  The seed is one int, or one per trial, ints whose grids stack
    on a new first axis; each is reduced mod 2**64."""
    # the key is written into an array: a 0-d array, unlike a scalar, wraps silently
    z = np.empty(np.broadcast(i, k).shape, np.uint64)
    np.bitwise_xor(i << np.uint64(32), k, out=z)
    z *= np.uint64(0x9E3779B97F4A7C15)
    if isinstance(seed, int):
        z += np.uint64(seed % 2**64)
    else:
        z = np.add.outer(np.array([s % 2**64 for s in seed], np.uint64), z)
    z = _mix64(_mix64(z))
    z >>= np.uint64(11)
    return z * 2.0 ** -53


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
        return ServiceTimes(self._draws(n, horizon))

    def _draws(self, n: int, horizon: int, k0: int = 0, trials: int | None = None) -> np.ndarray:
        """The service times of customers k0+1..K, an n x (K - k0) array, or
        given trials, a (trials, n, K - k0) stack of the seeds seed, ...,
        seed + trials - 1, each cell its own seed's: from one ``_uniform01``
        call, or the constant; a trace has none."""
        if self.kind == "constant":
            shape = (n, horizon - k0) if trials is None else (trials, n, horizon - k0)
            tau = np.full(shape, self.value, dtype=float)
        else:
            seed = self.seed if trials is None else range(self.seed, self.seed + trials)
            tau = _uniform01(seed, np.arange(1, n + 1, dtype=np.uint64)[:, None],
                             np.arange(k0 + 1, horizon + 1, dtype=np.uint64))
            if self.kind == "uniform":
                tau *= self.high - self.low
                tau += self.low
            else:
                log1p = np.frompyfunc(math.log1p, 1, 1)
                with np.errstate(over="ignore"):  # ServiceTimes rejects the +inf
                    tau = log1p(-tau).astype(float) / -self.rate
        if self.integer_times:
            np.rint(tau, out=tau)
        return tau

    def _chunks(self, n: int, horizon: int, size: int):
        """``sample``'s cells as ServiceTimes of customers k0+1..k0+size, k0 =
        0, size, ...: each drawn alone, or cut from a trace loaded whole."""
        whole = self.sample(n, horizon).tau if self.kind == "trace" else None
        for k0 in range(0, horizon, size):
            yield ServiceTimes(whole[:, k0:k0 + size] if whole is not None else
                               self._draws(n, min(k0 + size, horizon), k0))


TRACE_HEADER = ["k", "i", "tau"]


def load_trace(path, n: int, horizon: int) -> ServiceTimes:
    """Load a dense service-time trace from a `k,i,tau` CSV."""
    path = Path(path)
    tau = np.full((n, horizon), np.nan)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
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
                    k, i, x = int(row[0]), int(row[1]), float(row[2])
                except ValueError as exc:
                    raise SourceConfigError(f"{path}:{lineno}: {exc}") from exc
                if not (1 <= i <= n and 1 <= k <= horizon):
                    raise SourceConfigError(f"{path}:{lineno}: cell (k={k}, i={i}) "
                                            f"outside 1..{horizon} x 1..{n}")
                if not math.isfinite(x) or x < 0:
                    raise SourceConfigError(f"{path}:{lineno}: tau must be finite "
                                            f"and >= 0, got {row[2]}")
                if not math.isnan(tau[i - 1, k - 1]):
                    raise SourceConfigError(f"{path}:{lineno}: duplicate cell (k={k}, i={i})")
                tau[i - 1, k - 1] = x
    except UnicodeDecodeError as exc:
        raise SourceConfigError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    missing = np.argwhere(np.isnan(tau))
    if missing.size:
        i0, k0 = missing[0]
        raise SourceConfigError(f"{path}: missing cell (k={int(k0) + 1}, i={int(i0) + 1})")
    return ServiceTimes(tau)


def dump_trace(tau: ServiceTimes, path) -> None:
    """Write the trace CSV that ``load_trace`` reads back verbatim."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for k in range(1, tau.horizon + 1):
            for i in range(1, tau.n + 1):
                writer.writerow([k, i, format(tau.tau[i - 1, k - 1], ".17g")])
