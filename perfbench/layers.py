"""Per-layer tracing of tandemax from outside the package.

The layers are tandemax's modules.  Each is traced by wrapping its
public functions at the name their caller looks up (engine imports
`build_transition` by name, so the wrapper goes on
`tandemax.engine.build_transition`).  A span's self time is its
duration minus the spans of wrapped calls inside it.  Wrappers are
installed only around traced rounds and are removed afterwards; a name
a later change has removed is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _cells(counts, result):
    counts["sources.cells"] += result.tau.size


def _built(counts, result):
    counts["models.cells_built"] += result.rows * result.cols


def _steps(counts, result):
    counts["engine.steps"] += result.ledger.steps
    counts["engine.scalar_ops"] += result.ledger.scalar_ops


def _oracle_steps(counts, result):
    counts["engine.oracle_steps"] += result.horizon


def _rows(counts, result):
    counts["measures.rows"] += len(result)


# (module, attribute path, layer, counter of the returned value)
POINTS = (
    ("tandemax.sources", "ServiceTimeSource.sample", "sources", _cells),
    ("tandemax.engine", "build_transition", "models", _built),
    ("tandemax.models", "star_truncated", "solver", None),
    ("tandemax.core", "MaxPlusMatrix.__matmul__", "core.matmul", None),
    ("tandemax.engine", "matvec", "core.matvec", None),
    ("tandemax.cli", "simulate", "engine", _steps),
    ("tandemax.engine", "simulate_serial", "engine", _steps),
    ("tandemax.engine", "simulate_closed_sparse", "engine", _steps),
    ("tandemax.engine", "simulate_vectorized", "engine", _steps),
    ("tandemax.engine", "simulate_batched", "engine", _steps),
    ("tandemax.cli", "oracle_lindley", "engine.oracle", _oracle_steps),
    ("tandemax.cli", "trajectory_sojourn", "measures.sojourn", _rows),
    ("tandemax.cli", "trajectory_waiting", "measures.waiting", _rows),
    ("tandemax.cli", "parse_config", "cli.parse", None),
    ("tandemax.cli", "run", "cli", None),
    ("tandemax.cli", "validate", "cli", None),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Accumulates self time, full span time, outermost calls and counts
    per layer.  A call nested in a span of its own layer (cli.simulate
    -> engine.simulate_serial) adds self time but is not counted again."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.span_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._installed = []

    def _wrap(self, original, layer, count):
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            outermost = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += span
                self.self_s[layer] += span - frame[1]
                if outermost:
                    self.span_s[layer] += span
                    self.calls[layer] += 1
            if outermost and count is not None:
                count(self.counts, result)
            return result

        return traced

    def __enter__(self):
        for module, path, layer, count in POINTS:
            try:
                owner, name, original = _resolve(module, path)
            except (ImportError, AttributeError):
                continue
            setattr(owner, name, self._wrap(original, layer, count))
            self._installed.append((owner, name, original))
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)
        return False

    def metrics(self, rounds: int, factor: float) -> dict:
        """Per-layer metrics per traced round, times in reference seconds
        (wall seconds times `factor`); `us_per_*` divide the full span
        (children included) by the count."""
        calls, counts = self.calls, self.counts
        s = defaultdict(float, {layer: t * factor for layer, t in self.self_s.items()})
        span = defaultdict(float, {layer: t * factor for layer, t in self.span_s.items()})

        def per_round(x):
            return x / rounds

        def us_per(layer, n):
            return span[layer] / n * 1e6 if n else 0.0

        return {
            "sources.sample_s": (per_round(s["sources"]), "s"),
            "sources.cells": (per_round(counts["sources.cells"]), "count"),
            "sources.us_per_cell": (us_per("sources", counts["sources.cells"]), "us"),
            "models.build_s": (per_round(s["models"]), "s"),
            "models.builds": (per_round(calls["models"]), "count"),
            "models.cells_built": (per_round(counts["models.cells_built"]), "count"),
            "models.us_per_build": (us_per("models", calls["models"]), "us"),
            "solver.star_s": (per_round(s["solver"]), "s"),
            "solver.star_calls": (per_round(calls["solver"]), "count"),
            "core.matmul_s": (per_round(s["core.matmul"]), "s"),
            "core.matmul_calls": (per_round(calls["core.matmul"]), "count"),
            "core.matvec_s": (per_round(s["core.matvec"]), "s"),
            "core.matvec_calls": (per_round(calls["core.matvec"]), "count"),
            "engine.self_s": (per_round(s["engine"]), "s"),
            "engine.steps": (per_round(counts["engine.steps"]), "count"),
            "engine.us_per_step": (us_per("engine", counts["engine.steps"]), "us"),
            "engine.scalar_ops": (per_round(counts["engine.scalar_ops"]), "count"),
            "engine.oracle_s": (per_round(s["engine.oracle"]), "s"),
            "engine.oracle_us_per_step": (
                us_per("engine.oracle", counts["engine.oracle_steps"]), "us"),
            "measures.sojourn_s": (per_round(s["measures.sojourn"]), "s"),
            "measures.waiting_s": (per_round(s["measures.waiting"]), "s"),
            "measures.rows": (per_round(counts["measures.rows"]), "count"),
            "cli.parse_s": (per_round(s["cli.parse"]), "s"),
            "cli.self_s": (per_round(s["cli"]), "s"),
            "cli.csv_bytes": (per_round(counts["cli.csv_bytes"]), "bytes"),
        }
