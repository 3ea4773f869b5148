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

from .engine import (
    STRATEGIES, Trajectory, _kernel, _ledger, _paper_formulas, _steps, check_strategy,
    oracle_lindley, simulate,
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
    output = doc.get("output", "departures.csv")
    _require(isinstance(output, str), "'output' must be a string")
    _require(Path(output).name != "", f"'output' must end in a file name, got {output!r}")
    return RunConfig(
        spec=spec,
        source=source,
        strategy=strategy,
        processors=processors,
        measures=tuple(measures),
        count_ops=doc.get("count_ops", False),
        output_path=output,
    )


# Tables are written in blocks of _CHUNK_ROWS rows, as the bytes of %.17g.
# _layout prints a block of exact integers below 2**53 (not -0.0) as |x|,
# and a block of 0 or 1e-4 <= |x| < 1e17, which %.17g prints in fixed
# notation, from _fixed17: 17 digits N = x 10**(16-E) rounded half to even,
# E = floor(log10|x|). 10**(16-E) is exact, Dekker's TwoProduct splits the
# product exactly into h + l, and h >= 2**53 is even, so N = h + rint(l).
# Any other block is formatted _FORMAT_ROWS rows per `%` call, whose Python
# objects fragment the heap, so a larger call raises a long run's peak RSS.
_CHUNK_ROWS = 256
_FORMAT_ROWS = 32


def _layout(table: np.ndarray, neg: np.ndarray, mag: np.ndarray,
            cols: np.ndarray | None = None, point: np.ndarray | None = None) -> str:
    """CSV rows of a table: cell j is ``-`` if neg[j], then the last cols[j]
    digits of mag[j] (all of them if mag is |x| of exact integers and no
    cols), with ``.`` over the 0 digit point[j] > 0 places from the right.
    Cell j owns column j of a (W+1, C) uint8 buffer: digits as x - 10
    (x // 10) on uint32, nine at a time (numpy's % is slower), right-aligned,
    then ``,`` or ``\n``. A transpose and a mask of each cell's last
    width + 1 bytes join them in row order."""
    if cols is None:
        top = int(mag.max())
        mag = mag.astype(np.uint32 if top < 2**32 else np.uint64)
        cols = np.ones(mag.size, np.uint8)
        for j in range(1, len(str(top))):
            cols += mag >= 10**j
    width = neg + cols
    W = int(width.max())
    buf = np.empty((W + 1, mag.size), np.uint8)
    for j in range(W):
        if j % 9 == 0:
            mag, limb = np.divmod(mag, 10**9) if W - j > 9 else (mag, mag)
            limb = limb.astype(np.uint32, copy=False)
        q = limb // 10
        buf[W - 1 - j] = limb - q * 10
        limb = q
    buf[:W] += ord("0")
    if point is not None:
        at = np.flatnonzero(point)
        buf[W - 1 - point[at], at] = ord(".")
    if neg.any():
        buf[W - width[neg], np.flatnonzero(neg)] = ord("-")
    buf[W] = ord(",")
    buf[W, table.shape[1] - 1 :: table.shape[1]] = ord("\n")
    keep = np.arange(W + 1, dtype=np.uint8)[:, None] + width >= W
    return buf.T[keep.T].tobytes().decode("ascii")


def _fixed17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_layout's (mag, cols, point) for the %.17g text of a, 0 or 1e-4 <= a
    < 1e17: M is N with its trailing zeros past the point stripped, leaving
    f digits past it, and mag = M + 9 (M - M mod 10**f) has a 0 digit where
    the point goes (``0.`` leads if E < 0)."""
    x = a + (a == 0)
    scale = np.array([float(10**j) for j in range(21)])
    E = np.floor(np.log10(x))
    # floor(log10) may be one off next to a power of ten; no cell rounds up
    # to N = 10**17, as the float below each 10**j here is over 10**(j-17) off
    for _ in range(2):
        E = np.clip(E, -4, 16)  # so the index and the int64 cast stay in range
        s = scale[(16 - E).astype(np.intp)]
        h = x * s
        xh, sh = x * 134217729.0, s * 134217729.0
        xh -= xh - x
        sh -= sh - s
        l = ((xh * sh - h) + xh * (s - sh) + (x - xh) * sh) + (x - xh) * (s - sh)
        N = h.astype(np.int64) + np.rint(l).astype(np.int64)
        off = (N >= 10**17).astype(np.int8) - (N < 10**16)
        if not off.any():
            break
        E += off
    f = (16 - E).astype(np.int64)
    for j in (16, 8, 4, 2, 1):
        q = N // 10**j
        cut = (q * 10**j == N) & (f >= j)
        N = np.where(cut, q, N)
        f -= j * cut
    N[a == 0] = 0
    unit = 10 ** np.where((f > 0) & (f < 17), f, 17)  # 10**17 > M: mag = M
    cols = (np.maximum(E, 0) + 1 + f + (f > 0)).astype(np.uint8)
    return N + N // unit * unit * 9, cols, f


def _write_measure(rows: np.ndarray, prefix: str, path: Path) -> None:
    """Write rows (K x n) under a k column as CSV, each cell as ``.17g``
    text, one block of _CHUNK_ROWS rows at a time (see above)."""
    K, n = rows.shape
    float_row = "%d" + ",%.17g" * n + "\n"
    with path.open("w") as fh:
        fh.write("k," + ",".join(f"{prefix}_{i}" for i in range(1, n + 1)) + "\n")
        for k0 in range(0, K, _CHUNK_ROWS):
            block = rows[k0:k0 + _CHUNK_ROWS]
            table = np.column_stack((np.arange(k0 + 1, k0 + len(block) + 1), block))
            a, neg = np.abs(table.ravel()), np.signbit(table.ravel())
            if np.all((a < 2.0**53) & (a == np.rint(a)) & ((a != 0) | ~neg)):
                fh.write(_layout(table, neg, a))
            elif np.all((a == 0) | ((a >= 1e-4) & (a < 1e17))):
                fh.write(_layout(table, neg, *_fixed17(a)))
            else:
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
        w = trajectory_waiting(traj.states, tau)
        _write_measure(w, "w", out.with_name(out.stem + "_waiting.csv"))
    if config.count_ops:
        report = op_report(traj, config.processors)
        out.with_name(out.stem + "_ops.txt").write_text(report)
        sys.stdout.write(report)
    return 0


# validate builds its <= 3 m x m T_k in one call: at most 3 x 2**20 cells, 24 MiB
_STATE_CHECK_ARITY = 1024


def validate(config: RunConfig, trials: int = 10) -> int:
    """Two checks per trial, over several seeds, exact when ``tau.exact``
    and else within ``tau.rounding_gap``; exit 1 at the first departure
    past that.  The strategy's table against the oracle's, unless its
    kernel is the oracle's own loop; then the oracle's d(k) against the
    paper's state equation (``engine._steps``, one build per trial) at
    k = 1, lag = m / n (where blocking or closed feedback first reads
    d(0)) and K, or none past m = _STATE_CHECK_ARITY.  The ok line names
    the largest gap over both checks, the row-major first.  A trace or
    constant source ignores the seed, so it gives one trial."""
    _require(trials >= 1, "'--trials' must be >= 1")
    trials = 1 if config.source.kind in ("trace", "constant") else trials
    spec = config.spec
    K, m, n = spec.horizon, spec.arity, spec.n
    steps = sorted({1, min(m // n, K), K}) if m <= _STATE_CHECK_ARITY else []
    clause = (f"state equation at k={','.join(map(str, steps))}" if steps
              else f"state equation skipped (m = {m} > {_STATE_CHECK_ARITY})")
    worst = (0.0, 0.0, 0, 0)
    for t in range(trials):
        tau = replace(config.source, seed=config.source.seed + t).sample(n, K)
        traj = simulate(spec, tau, config.strategy, config.processors)
        recursion = _kernel(spec, tau, config.strategy) == "recursion"  # the oracle's own loop
        states = traj.states if recursion else oracle_lindley(spec, tau).states
        bound = tau.rounding_gap(states[1:])
        # (failure label, k of each row, route rows, oracle rows), the route
        # in row blocks, so no K x n gap table is made
        checks = [] if recursion else [
            ("mismatch at k={} i={}: matrix", range(k, K + 1),
             traj.states[k:k + _CHUNK_ROWS], states[k:k + _CHUNK_ROWS])
            for k in range(1, K + 1, _CHUNK_ROWS)]
        if steps:
            checks.append(("state equation fails at k={} i={}: T_k", steps,
                           _steps(spec, tau, states, steps), states[steps]))
        top = (0.0, -1, -1)  # (gap, -k, -i): max is the row-major first largest
        for label, ks, got, want in checks:
            diff = np.abs(got - want)
            over = np.argwhere(diff > bound)
            if over.size:
                r, i = over[0]
                print(f"{label.format(ks[r], i + 1)}={got[r, i]:.17g} "
                      f"oracle={want[r, i]:.17g} gap {diff[r, i]:.3g} > bound {bound:.3g} "
                      f"(trial {t})")
                return 1
            r, i = np.unravel_index(diff.argmax(), diff.shape)
            top = max(top, (float(diff[r, i]), -ks[r], -(i + 1)))
        gap, k, i = top
        worst = max(worst, (gap, bound, -k, -i))
    gap, bound, k, i = worst
    print(
        f"validate: ok ({trials} trial(s), variant={spec.variant}, {clause}, "
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
