"""The benchmark's workloads: the tandemax CLI operations of one round.

A run repeats whole rounds.  Round r of a run with base seed s draws
its service times from source seed s * 1000003 + r, so every round
sees fresh inputs and the same seed always gives the same inputs.  The
two calls that fail today (F1, F2) use the fixed source seed
FAULT_SEED instead, so they fail in every round of every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FAULT_SEED = 7
REFERENCE_INF = "reference open_infinite"


@dataclass(frozen=True)
class Op:
    """One `tandemax.cli.main([...])` call on a uniform service-time source."""

    name: str
    command: str
    variant: str
    n: int
    K: int
    seed: int
    integer: bool
    b: int = 0
    c: int = 1
    measures: tuple[str, ...] = ("departures",)
    trials: int = 2
    low: float = 0.0
    high: float = 5.0

    @property
    def cells(self) -> int:
        """Departure cells (station x customer) the call delivers."""
        return self.n * self.K * (self.trials if self.command == "validate" else 1)

    def output(self, out: Path, measure: str = "departures") -> Path:
        if measure == "departures":
            return out / f"{self.name}.csv"
        return out / f"{self.name}_{measure}.csv"

    def outputs(self, out: Path) -> list[Path]:
        return [self.output(out, m) for m in self.measures] if self.command == "simulate" else []

    def config(self, out: Path) -> dict:
        doc = {
            "variant": self.variant,
            "n": self.n,
            "K": self.K,
            "source": {
                "kind": "uniform",
                "low": self.low,
                "high": self.high,
                "seed": self.seed,
                "integer_times": self.integer,
            },
        }
        if self.variant == "closed":
            doc["c"] = self.c
        if self.variant in ("open_mfg", "open_comm"):
            doc["b"] = self.b
        if self.command == "simulate":
            doc["measures"] = list(self.measures)
            doc["output"] = str(self.output(out))
        return doc

    def argv(self, config_path: Path) -> list[str]:
        argv = [self.command, "--config", str(config_path)]
        if self.command == "validate":
            argv += ["--trials", str(self.trials)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int], list[Op]]
    # Op names whose departures must be ordered d >= d' >= ... cell by
    # cell (they share tau); REFERENCE_INF is the benchmark's own
    # infinite-buffer recursion on that tau.
    chains: tuple[tuple[str, ...], ...] = ()


def round_seed(base: int, r: int) -> int:
    return base * 1000003 + r


def _open_long(seed: int) -> list[Op]:
    return [Op("open_infinite", "simulate", "open_infinite", 16, 3000, seed, True,
               measures=("departures", "sojourn", "waiting"))]


def _blocking_augmented(seed: int) -> list[Op]:
    return [
        Op("comm-b3", "simulate", "open_comm", 16, 250, seed, False, b=3),
        Op("mfg-b2", "simulate", "open_mfg", 16, 250, seed, False, b=2),
    ]


FAMILIES = (
    ("closed-c1", "closed", 0, 1),
    ("closed-c2", "closed", 0, 2),
    ("inf", "open_infinite", 0, 1),
    ("mfg-b0", "open_mfg", 0, 1),
    ("mfg-b2", "open_mfg", 2, 1),
    ("comm-b0", "open_comm", 0, 1),
    ("comm-b1", "open_comm", 1, 1),
)


def _variant_grid(seed: int) -> list[Op]:
    ops = []
    for name, variant, b, c in FAMILIES:
        ops.append(Op(f"sim-{name}", "simulate", variant, 8, 200, seed, True, b=b, c=c))
        ops.append(Op(f"val-{name}", "validate", variant, 8, 200, seed, True, b=b, c=c))
    # F1: waiting times of float inputs hit the zero-tolerance w >= 0 check.
    ops.append(Op("F1-waiting-float", "simulate", "open_infinite", 8, 2000, FAULT_SEED, False,
                  measures=("waiting",)))
    # F2: validate compares the two float routes for exact equality.
    ops.append(Op("F2-validate-float", "validate", "open_infinite", 8, 200, FAULT_SEED, False))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("open-long", _open_long),
        Workload("blocking-augmented", _blocking_augmented,
                 chains=(("comm-b3", REFERENCE_INF), ("mfg-b2", REFERENCE_INF))),
        Workload("variant-grid", _variant_grid,
                 chains=(("sim-comm-b0", "sim-mfg-b0", "sim-inf"),
                         ("sim-comm-b1", "sim-mfg-b2", "sim-inf"))),
    )
}
