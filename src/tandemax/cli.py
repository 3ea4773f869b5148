"""Command-line surface: simulate, validate, and bench subcommands.

Configs are JSON documents; see README for the schema.  Exit codes:
0 success, 1 validation mismatch, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import rounding_gap
from .engine import (
    STRATEGIES, Trajectory, _ledger, _paper_formulas, check_strategy, oracle_lindley, simulate,
)
from .measures import trajectory_sojourn, trajectory_waiting
from .models import ModelConfigError, TandemSpec
from .sources import ServiceTimeSource, SourceConfigError

MEASURES = ("departures", "sojourn", "waiting")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    spec: TandemSpec
    source: ServiceTimeSource
    strategy: str = "serial"
    processors: int = 1
    measures: tuple[str, ...] = ("departures",)
    count_ops: bool = False
    output_path: str = "departures.csv"


_TOP_KEYS = {
    "variant", "n", "K", "c", "b",
    "source", "strategy", "processors", "measures", "count_ops", "output",
}
_SOURCE_KEYS = {"kind", "value", "low", "high", "rate", "path", "seed", "integer_times"}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _decode(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "config root must be an object")
    return doc


def parse_config(document: str | dict) -> RunConfig:
    """Parse and fully validate a run configuration: JSON text, or the
    object it decodes to."""
    doc = _decode(document) if isinstance(document, str) else document
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    for key in ("variant", "n", "K", "source"):
        _require(key in doc, f"missing required key '{key}'")
    for key in ("n", "K", "c", "b", "processors"):
        _require(type(doc.get(key, 1)) is int, f"'{key}' must be an integer")
    _require(isinstance(doc.get("count_ops", False), bool), "'count_ops' must be true or false")
    try:
        spec = TandemSpec(
            variant=doc["variant"],
            n=doc["n"],
            horizon=doc["K"],
            population=doc.get("c", 1),
            buffer_capacity=doc.get("b", 0),
        )
    except ModelConfigError as exc:
        raise ConfigError(str(exc)) from exc

    src = doc["source"]
    _require(isinstance(src, dict), "'source' must be an object")
    unknown = set(src) - _SOURCE_KEYS
    _require(not unknown, f"unknown keys under 'source': {sorted(unknown)}")
    _require("kind" in src, "missing required key 'source.kind'")
    for key in ("value", "low", "high", "rate"):
        _require(type(src.get(key, 0.0)) in (int, float), f"'source.{key}' must be a number")
    _require(type(src.get("seed", 0)) is int, "'source.seed' must be an integer")
    _require(isinstance(src.get("integer_times", False), bool),
             "'source.integer_times' must be true or false")
    _require(isinstance(src.get("path", ""), str), "'source.path' must be a string")
    try:
        source = ServiceTimeSource(**src)
    except SourceConfigError as exc:
        raise ConfigError(f"source: {exc}") from exc

    strategy = doc.get("strategy", "serial")
    processors = doc.get("processors", 1)
    try:
        check_strategy(spec, strategy, processors)
    except ModelConfigError as exc:
        raise ConfigError(str(exc)) from exc
    measures = doc.get("measures", ["departures"])
    _require(isinstance(measures, list) and all(isinstance(m, str) for m in measures),
             "'measures' must be a list of strings")
    bad = set(measures) - set(MEASURES)
    _require(not bad, f"unknown measures: {sorted(bad)}")
    _require(spec.variant != "closed" or set(measures) <= {"departures"},
             "sojourn/waiting measures are defined for open variants only")
    _require(isinstance(doc.get("output", ""), str), "'output' must be a string")
    return RunConfig(
        spec=spec,
        source=source,
        strategy=strategy,
        processors=processors,
        measures=tuple(measures),
        count_ops=doc.get("count_ops", False),
        output_path=doc.get("output", "departures.csv"),
    )


# Exactness is checked per block of _CHUNK_ROWS rows. An exact-integer
# block is encoded by _int_csv in one numpy pass; any other block is
# formatted _FORMAT_ROWS rows per `%` call, whose transient Python
# objects fragment the heap, so a larger call raises the peak RSS of a
# long run. Every block size writes the same bytes.
_CHUNK_ROWS = 256
_FORMAT_ROWS = 32


def _int_csv(table: np.ndarray) -> str:
    """The ``%d`` text, as CSV rows, of a float64 table of exact integers
    below 2**53. Cell j owns column j of a (W+1, N) uint8 buffer: digits
    as x - 10 (x // 10) on uint32 (uint64 from 2**32; numpy's % is slower),
    right-aligned after any ``-``, then ``,`` or ``\n``. A transpose and a
    mask of each cell's last width + 1 bytes join the cells in row order."""
    cells = table.ravel()
    mag = np.abs(cells)
    top = int(mag.max())
    mag = mag.astype(np.uint32 if top < 2**32 else np.uint64)
    neg = cells < 0
    digits = len(str(top))
    width = neg + np.uint8(1)
    for j in range(1, digits):
        width += mag >= 10**j
    W = int(width.max())
    buf = np.empty((W + 1, cells.size), np.uint8)
    for r in range(W - 1, W - 1 - digits, -1):
        q = mag // 10
        buf[r] = mag - q * 10
        mag = q
    buf[W - digits : W] += ord("0")
    if neg.any():
        buf[W - width[neg], np.flatnonzero(neg)] = ord("-")
    buf[W] = ord(",")
    buf[W, table.shape[1] - 1 :: table.shape[1]] = ord("\n")
    keep = np.arange(W + 1, dtype=np.uint8)[:, None] + width >= W
    return buf.T[keep.T].tobytes().decode("ascii")


def _write_measure(rows: np.ndarray, prefix: str, path: Path) -> None:
    """Write rows (K x n) under a k column as CSV, each cell as ``.17g``
    text, one block of _CHUNK_ROWS rows at a time. A block of exact
    integers (|x| < 2**53, not -0.0) is encoded by ``_int_csv``; any
    other block goes through ``%.17g``."""
    K, n = rows.shape
    float_row = "%d" + ",%.17g" * n + "\n"
    with path.open("w") as fh:
        fh.write("k," + ",".join(f"{prefix}_{i}" for i in range(1, n + 1)) + "\n")
        for k0 in range(0, K, _CHUNK_ROWS):
            block = rows[k0:k0 + _CHUNK_ROWS]
            table = np.column_stack((np.arange(k0 + 1, k0 + len(block) + 1), block))
            exact = (np.abs(table) < 2.0**53) & (table == np.rint(table))
            if np.all(exact & ((table != 0) | ~np.signbit(table))):
                fh.write(_int_csv(table))
                continue
            for j in range(0, len(table), _FORMAT_ROWS):
                part = table[j:j + _FORMAT_ROWS]
                fh.write(float_row * len(part) % tuple(part.ravel().tolist()))


def op_report(traj: Trajectory, processors: int) -> str:
    """The run's ledger, then the reference counts of the open-infinite
    tandem with the run's n, K and P: its serial and batched ledgers
    (``engine._ledger``) and the paper's idealized formulas (the speedup
    figures are formula values, not timings)."""
    led = traj.ledger
    n, K = traj.spec.n, traj.spec.horizon
    ref = TandemSpec("open_infinite", n, K)
    serial = _ledger(ref, "serial", 1)
    batches = _ledger(ref, "batched", processors).batches
    f = _paper_formulas(n, K, processors)
    lines = [
        f"strategy: {traj.strategy}",
        f"steps: {led.steps}",
        f"scalar_oplus: {led.scalar_oplus}",
        f"scalar_otimes: {led.scalar_otimes}",
        f"vector_ops: {led.vector_ops}",
        f"parallel_ops: {led.parallel_ops}",
        f"batches: {led.batches}",
        f"memory_cells: {led.memory_cells}",
        "-- reference formulas (open-infinite tandem) --",
        f"serial per-step ops n(n+1)/2 + n^2: {serial.scalar_ops // K}",
        f"serial total K(N1+N2): {serial.scalar_ops}",
        f"serial memory n(n+5)/2: {serial.memory_cells}",
        f"vector ideal reduction n + log2(n!): {f['vector_step']:.6f}",
        f"batched batches ceil(K/P): {batches}",
        f"batched ops L(n(n+1)/2 + 2Pn): {f['batched']}",
        f"speedup formula S_v = n(3n+1)/(log2(n!)/2 + n): {f['sv']:.6f}",
        f"speedup formula S_P = 3P/5: {f['sp']:.6f}",
    ]
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> int:
    """Execute one simulation and write the requested artifacts."""
    tau = config.source.sample(config.spec.n, config.spec.horizon)
    traj = simulate(config.spec, tau, config.strategy, config.processors)
    out = Path(config.output_path)
    if "departures" in config.measures or not config.measures:
        _write_measure(traj.departures(), "d", out)
    if "sojourn" in config.measures:
        s = trajectory_sojourn(traj.states, config.spec.n)
        _write_measure(s, "s", out.with_name(out.stem + "_sojourn.csv"))
    if "waiting" in config.measures:
        w = trajectory_waiting(traj.states, tau.tau)
        _write_measure(w, "w", out.with_name(out.stem + "_waiting.csv"))
    if config.count_ops:
        report = op_report(traj, config.processors)
        out.with_name(out.stem + "_ops.txt").write_text(report)
        sys.stdout.write(report)
    return 0


def validate(config: RunConfig, trials: int = 10) -> int:
    """Compare the matrix-recursion trajectory against the scalar
    oracle over several seeds; nonzero exit on the first trial where a
    departure differs by more than the float contract's rounding gap
    (``core.rounding_gap``: 0 for integer-valued service times whose
    total is below 2**53)."""
    _require(trials >= 1, "'--trials' must be >= 1")
    # a trace has no seed to vary, so it gives one trial
    trials = 1 if config.source.kind == "trace" else trials
    worst = (0.0, 0.0, 0, 0)
    for t in range(trials):
        tau = replace(config.source, seed=config.source.seed + t).sample(
            config.spec.n, config.spec.horizon
        )
        traj = simulate(config.spec, tau, config.strategy, config.processors)
        got = traj.departures()
        want = oracle_lindley(config.spec, tau).departures()
        bound = rounding_gap(tau.tau, want)
        # row blocks, so no K x n gap table; both cells are the row-major first
        top = (0.0, 0, 0)
        for k0 in range(0, len(got), _CHUNK_ROWS):
            g, w = got[k0:k0 + _CHUNK_ROWS], want[k0:k0 + _CHUNK_ROWS]
            diff = np.abs(g - w)
            over = np.argwhere(diff > bound)
            if over.size:
                k, i = over[0]
                print(
                    f"mismatch at k={k0 + k + 1} i={i + 1}: matrix={g[k, i]:.17g} "
                    f"oracle={w[k, i]:.17g} gap {diff[k, i]:.3g} > bound {bound:.3g} "
                    f"(trial {t})"
                )
                return 1
            k, i = np.unravel_index(diff.argmax(), diff.shape)
            if diff[k, i] > top[0]:
                top = (float(diff[k, i]), k0 + k, i)
        gap, k, i = top
        worst = max(worst, (gap, bound, k + 1, i + 1))
    gap, bound, k, i = worst
    print(
        f"validate: ok ({trials} trial(s), variant={config.spec.variant}, "
        f"max gap {gap:.3g} at k={k} i={i}, bound {bound:.3g})"
    )
    return 0


def bench(n_list, k_list, p_list, out=None) -> int:
    """Sweep (n, K, P) over the open-infinite model and tabulate its
    serial, vector and batched ledgers (``engine._ledger``) next to the
    paper's idealized formulas.  Every value is a formula: no service
    time is sampled and no kernel runs.  Each (n, K, P) first passes the
    strategy and array-size rules (``engine.check_strategy``; the vector
    rules include the serial ones), so an n whose transition matrix
    passes numpy's largest array is a configuration error."""
    header = (
        "n,K,P,L,serial_ops,serial_formula,vector_build,vector_reduce,"
        "vector_reduce_ideal,batched_ops,batched_formula,sv_formula,sp_formula"
    )
    lines = [header]
    for n in n_list:
        for K in k_list:
            spec = TandemSpec(variant="open_infinite", n=n, horizon=K)
            check_strategy(spec, "vector", 1)
            serial = _ledger(spec, "serial", 1).scalar_ops
            vector = _ledger(spec, "vector", 1)
            for P in p_list:
                check_strategy(spec, "batched", P)
                batched = _ledger(spec, "batched", P)
                f = _paper_formulas(n, K, P)
                row = [n, K, P, batched.batches, serial, serial, vector.vector_build_ops,
                       vector.vector_reduce_ops, f"{f['vector_run']:.3f}", batched.parallel_ops,
                       f["batched"], f"{f['sv']:.3f}", f"{f['sp']:.3f}"]
                lines.append(",".join(map(str, row)))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_config(args) -> RunConfig:
    """Merge the command-line overrides into the config document, then
    parse it once."""
    try:
        doc = _decode(Path(args.config).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config}: not valid UTF-8 ({exc.reason})") from exc
    measures = getattr(args, "measures", None)
    overrides = {
        "strategy": getattr(args, "strategy", None),
        "processors": getattr(args, "processors", None),
        "measures": None if measures is None else measures.split(","),
        "count_ops": getattr(args, "count_ops", None),
        "output": getattr(args, "out", None),
    }
    doc.update((key, value) for key, value in overrides.items() if value is not None)
    return parse_config(doc)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="tandemax", description="Max-plus tandem queueing simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out")
    sim.add_argument("--strategy", choices=STRATEGIES)
    sim.add_argument("--processors", type=int)
    sim.add_argument("--measures", help="comma list from: " + ",".join(MEASURES))
    sim.add_argument("--count-ops", action="store_true", dest="count_ops", default=None)

    val = sub.add_parser("validate", help="cross-check matrix path against the oracle")
    val.add_argument("--config", required=True)
    val.add_argument("--trials", type=int, default=10)

    ben = sub.add_parser("bench", help="operation-count sweep")
    ben.add_argument("--n-list", type=_int_list, required=True)
    ben.add_argument("--k-list", type=_int_list, required=True)
    ben.add_argument("--p-list", type=_int_list, required=True)
    ben.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return bench(args.n_list, args.k_list, args.p_list, args.out)
        config = _load_config(args)
        try:
            if args.command == "simulate":
                return run(config)
            return validate(config, trials=args.trials)
        except MemoryError as exc:
            n, K = config.spec.n, config.spec.horizon
            raise ConfigError(f"n x K = {n} x {K} cells do not fit in memory ({exc})") from exc
    except (ConfigError, ModelConfigError, SourceConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
