"""Checks of tandemax outputs against code this benchmark owns.

Nothing here imports tandemax.  Service times are re-derived from the
splitmix64 formula in the repository README, departures come from the
scalar max/+ recursions of the four model variants, and every CSV the
program writes is read back and compared with them.

Integer-valued inputs must match exactly.  Float-valued inputs may
differ by the rounding of the at most n + K additions on a longest
path, so every cell must lie within (n + K) * u * max|d| of the
reference, with u = 2**-53 the unit roundoff.
"""

from __future__ import annotations

import csv
from collections import deque
from pathlib import Path

import numpy as np

U = 2.0**-53
EPS = float("-inf")
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


PREFIX = {"departures": "d", "sojourn": "s", "waiting": "w"}


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def service_times(n: int, K: int, low: float, high: float, seed: int, integer: bool) -> np.ndarray:
    """tau[i-1, k-1] of a uniform source: the splitmix64 finalizer applied
    twice to seed + 0x9E3779B97F4A7C15 * ((i << 32) ^ k), mod 2**64, whose
    top 53 bits give u in [0, 1); tau = low + (high - low) * u."""
    k = np.arange(1, K + 1, dtype=np.uint64)
    tau = np.empty((n, K))
    for i in range(1, n + 1):
        key = np.uint64(seed % 2**64) + _GOLDEN * ((np.uint64(i) << np.uint64(32)) ^ k)
        u = (_mix64(_mix64(key)) >> np.uint64(11)).astype(np.float64) * U
        tau[i - 1] = low + (high - low) * u
    return np.rint(tau) if integer else tau


def departures(variant: str, tau: np.ndarray, b: int = 0, c: int = 1):
    """Yield d(k) for k = 1..K from the scalar recursions, with d(0) = 0
    and d(k) = eps for k < 0.  Station 1 of an open system is the
    arrival stream."""
    n, K = tau.shape
    hist = deque([[0.0] * n], maxlen=max(b + 1, c))  # hist[-j] = d(k - j)

    def past(j: int, i: int) -> float:
        return hist[-j][i] if j <= len(hist) else EPS

    for t in tau.T.tolist():
        d = [0.0] * n
        for i in range(n):
            if variant == "closed":
                d[i] = max(past(c, i - 1), past(1, i)) + t[i]
                continue
            ready = max(d[i - 1] if i else EPS, past(1, i))
            blocker = past(b + 1, i + 1) if i < n - 1 else EPS
            if variant == "open_infinite":
                d[i] = ready + t[i]
            elif variant == "open_mfg":
                d[i] = max(ready + t[i], blocker)
            elif variant == "open_comm":
                d[i] = max(ready, blocker) + t[i]
            else:
                raise ValueError(f"unknown variant {variant!r}")
        hist.append(d)
        yield d


def read_csv(path: Path, prefix: str, n: int, K: int):
    """Yield the value rows of a `k,<prefix>_1..<prefix>_n` table,
    checking the header, the k column and the row count."""
    with Path(path).open(newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        want = ["k"] + [f"{prefix}_{i}" for i in range(1, n + 1)]
        if header != want:
            raise CheckError(f"{path.name}: header {header} != {want}")
        k = 0
        for k, row in enumerate(rows, start=1):
            if len(row) != n + 1 or row[0] != str(k):
                raise CheckError(f"{path.name}: malformed row {k}: {row[:3]}...")
            yield [EPS if x == "eps" else float(x) for x in row[1:]]
        if k != K:
            raise CheckError(f"{path.name}: {k} rows, want {K}")


class Gap:
    """Largest |got - want| over the cells of one table, judged at the end
    against the exact or the float bound."""

    def __init__(self, name: str, n: int, K: int, exact: bool):
        self.name, self.n, self.K, self.exact = name, n, K, exact
        self.gap = 0.0
        self.scale = 0.0
        self.where = None

    def add(self, k: int, got: list, want: list) -> None:
        for i, (g, w) in enumerate(zip(got, want), start=1):
            if w != EPS:
                self.scale = max(self.scale, abs(w))
            if g != w:
                gap = abs(g - w) if EPS not in (g, w) else float("inf")
                if gap > self.gap:
                    self.gap, self.where = gap, (k, i, g, w)

    @property
    def bound(self) -> float:
        return 0.0 if self.exact else (self.n + self.K) * U * self.scale

    def close(self) -> None:
        if self.gap > self.bound:
            k, i, g, w = self.where
            raise CheckError(
                f"{self.name}: k={k} i={i} got {g!r} want {w!r}, "
                f"gap {self.gap:.3g} > bound {self.bound:.3g}"
            )


def check_simulation(op, out: Path) -> list:
    """Read back every CSV a completed `simulate` op wrote and compare it
    with the reference; returns the departure rows."""
    n, K = op.n, op.K
    exact = op.integer
    tau = service_times(n, K, op.low, op.high, op.seed, op.integer)
    want = departures(op.variant, tau, op.b, op.c)
    tables = {m: read_csv(op.output(out, m), PREFIX[m], n, K) for m in op.measures}
    gaps = {m: Gap(f"{op.name} {m}", n, K, exact) for m in op.measures}
    kept = []
    prev = [EPS] * n
    for k, w_d in enumerate(want, start=1):
        d = next(tables["departures"]) if "departures" in tables else w_d
        if "departures" in tables:
            gaps["departures"].add(k, d, w_d)
            if any(a < p for a, p in zip(d, prev)):
                raise CheckError(f"{op.name}: d decreases in k at k={k}")
            prev = d
            kept.append(d)
        if "sojourn" in tables or "waiting" in tables:
            w_s = [x - w_d[0] for x in w_d]
        if "sojourn" in tables:
            s = next(tables["sojourn"])
            if s[0] != 0.0:
                raise CheckError(f"{op.name}: s_1({k}) = {s[0]!r}, want 0")
            gaps["sojourn"].add(k, s, w_s)
        if "waiting" in tables:
            w = next(tables["waiting"])
            want_w = [0.0, *(np.array(w_s[1:]) - np.cumsum(tau[1:, k - 1])).tolist()]
            if exact and op.variant == "open_infinite" and min(w) < 0:
                raise CheckError(f"{op.name}: negative waiting time at k={k}: {w}")
            gaps["waiting"].add(k, w, want_w)
    for m, rows in tables.items():
        if next(rows, None) is not None:
            raise CheckError(f"{op.name} {m}: rows beyond K")
    for gap in gaps.values():
        gap.close()
    return kept


def check_dominance(name: str, upper: list, lower: list, exact: bool) -> None:
    """upper >= lower cell by cell, up to the float bound of the pair."""
    n, K = len(upper[0]), len(upper)
    scale = max(max(map(abs, row)) for row in upper)
    slack = 0.0 if exact else (n + K) * U * scale
    for k, (hi, lo) in enumerate(zip(upper, lower), start=1):
        for i, (a, b) in enumerate(zip(hi, lo), start=1):
            if a < b - slack:
                raise CheckError(f"{name}: {a!r} < {b!r} at k={k} i={i}")
