"""Command-line surface: simulate, validate, bench; CSV tables via ``csvout``.

Configs are JSON documents; see README for the schema.  Exit codes: 0 success,
1 validation mismatch or negative waiting time, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .csvout import _header, _write_rows
from .engine import (
    STRATEGIES, _kernel, _ledger, _paper_formulas, _start, _state, _step, _step_block, _tops,
    check_strategy,
)
from .measures import (
    MeasureConsistencyError, _check_lows, _Records, _waiting, trajectory_sojourn,
)
from .models import ModelConfigError, ServiceTimes, TandemSpec, _rounding_gap
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


def op_report(spec: TandemSpec, strategy: str, processors: int) -> str:
    """The run's ledger (``engine._ledger``), then the reference counts of
    the open-infinite tandem with the run's n, K and P: its serial and
    batched ledgers and the paper's idealized formulas (the speedup
    figures are formula values, not timings)."""
    led = _ledger(spec, strategy, processors)
    n, K = spec.n, spec.horizon
    ref = TandemSpec("open_infinite", n, K)
    serial = _ledger(ref, "serial", 1)
    batches = _ledger(ref, "batched", processors).batches
    f = _paper_formulas(n, K, processors)
    counters = ("steps", "scalar_oplus", "scalar_otimes", "vector_ops", "parallel_ops",
                "batches", "memory_cells")
    lines = [f"strategy: {strategy}"] + [f"{c}: {getattr(led, c)}" for c in counters] + [
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


# Customers per chunk of a streamed run: three engine._BLOCK, and one
# _write_rows block while the run is exact, else two csvout._CHUNK_ROWS.
# Chunks of 384 or 512 slowed open-long by 3-8%.
_CHUNK = 768


def run(config: RunConfig) -> int:
    """Execute one simulation in memory O((_CHUNK + lag) n): per chunk,
    sample tau, step the run's tracked carry (``engine._step_block``, which
    names an overflow) and append each table's rows to its ``.part`` file,
    in one integer block while the carry is exact (``_write_rows``).  The
    waiting check waits for the rounding gap, from the carry's exactness
    and d(K), the largest departure.  Success renames the tables."""
    spec, n, K = config.spec, config.spec.n, config.spec.horizon
    out = Path(config.output_path)
    paths = {m: out if m == "departures" else out.with_name(f"{out.stem}_{m}.csv")
             for m in MEASURES if m in (config.measures or ("departures",))}
    parts = {m: path.with_name(path.name + ".part") for m, path in paths.items()}
    carry, lows = None, _Records()  # the carry waits for a sampled chunk: a huge n fails there
    try:
        with contextlib.ExitStack() as stack:
            files = {}
            for k0, tau in config.source._chunks(n, K, _CHUNK):
                tau = ServiceTimes(tau[0])
                carry, states = _step_block(spec, carry or _start(spec, True), tau)
                if not files:  # opened once the first chunk passes: its errors leave no file
                    for m, part in parts.items():
                        files[m] = stack.enter_context(part.open("w"))
                        files[m].write(_header(m, n))
                if "departures" in files:
                    _write_rows(files["departures"], states[1:], k0, carry.exact)
                s = trajectory_sojourn(states) if {"sojourn", "waiting"} & files.keys() else None
                if "sojourn" in files:
                    _write_rows(files["sojourn"], s, k0, carry.exact)
                if "waiting" in files:  # the waiting rows overwrite s
                    w = _waiting(s, tau.tau)
                    lows.add(-w, range(k0 + 1, K + 1))
                    _write_rows(files["waiting"], w, k0, carry.exact)
                del tau, states, s  # the next chunk is sampled and stepped without this one's
        _check_lows(lows, _rounding_gap(n, K, carry.rows[-1], carry.exact) if lows else 0.0)
        for m, part in parts.items():
            part.replace(paths[m])
    except BaseException:
        for part in parts.values():
            part.unlink(missing_ok=True)
        raise
    if config.count_ops:
        report = op_report(spec, config.strategy, config.processors)
        out.with_name(out.stem + "_ops.txt").write_text(report)
        sys.stdout.write(report)
    return 0


# past m = _STATE_CHECK_ARITY validate skips its state-equation check
_STATE_CHECK_ARITY = 1024


class _Mismatch(Exception):
    """The one line ``validate`` prints for its first departure past the bound."""


def _first_past(records: _Records, bound: float, label: str, t: int) -> None:
    """Raise _Mismatch, naming trial t, at the first record past bound."""
    first = records.past(bound)
    if first:
        gap, k, i, got, want = first
        raise _Mismatch(f"{label.format(k, i)}={got:.17g} oracle={want:.17g} "
                        f"gap {gap:.3g} > bound {bound:.3g} (trial {t})")


def _trial(spec: TandemSpec, chunks, t: int) -> tuple:
    """Trial t of ``validate``, streamed as ``run`` streams, from its chunks
    (k0, tau, ks, tops): the ServiceTimes of customers k0+1.., the k of
    steps that the chunk holds and their top rows of T_k (``_trials``).
    Per chunk, step the route (a tracked carry: its exactness picks the
    scan) and, where it scanned, an untracked oracle carry, recording their
    gaps; elsewhere the route's rows are the oracle's.  Keep the oracle's
    state for each k in ks.  The bound comes at the end, from the route's
    exactness and d(K): then the scan's first gap past it, then the state
    equation's.  Returns (gap, bound, k, i) of the row-major first largest."""
    n, K = spec.n, spec.horizon
    route, oracle = _start(spec, True), _start(spec)
    scans, pairs = _Records(), []
    for k0, tau, ks, tops in chunks:
        hist = oracle.rows
        route, got = _step_block(spec, route, tau)
        if _kernel(spec, route.exact) == "scan":
            oracle, want = _step_block(spec, oracle, tau)
            scans.add(np.abs(got[1:] - want[1:]), range(k0 + 1, K + 1), got[1:], want[1:])
        else:
            oracle, want = route, got
        if ks:
            rows = np.concatenate((hist, want[1:]))  # d(k0 + 1 - len(hist)), ..., d(k1)
            xs = np.array([_state(spec, rows, k - k0 + len(hist) - 1) for k in ks])  # copies
            pairs += zip(tops, xs, want[[k - k0 for k in ks]], ks)
            del rows
        del tau, got, want  # the next chunk is sampled and stepped without this one's
    bound = _rounding_gap(n, K, oracle.rows[-1], route.exact)
    _first_past(scans, bound, "mismatch at k={} i={}: scan", t)
    eqs = _Records()
    if pairs:
        tops, xs, wants, ks = zip(*pairs)
        got, want = _step(np.array(tops), np.array(xs)), np.array(wants)
        eqs.add(np.abs(got - want), ks, got, want)
        _first_past(eqs, bound, "state equation fails at k={} i={}: T_k", t)
    gap, k, i = max([(r[0], -r[1], -r[2]) for r in scans[-1:] + eqs[-1:]],
                    default=(0.0, -1, -1))
    return gap, bound, -k, -i


def _trials(spec: TandemSpec, source: ServiceTimeSource, steps: list, trials: int):
    """The chunks of trials 0, 1, ... on seeds seed, seed+1, ..., for
    ``_trial``.  A group is as many whole trials as fit in the cells of one
    chunk, G = max(1, _CHUNK // (K + len(steps) m)): per chunk of _CHUNK
    customers, one ``_draws`` call samples its (G, n, L) service times and,
    if the chunk holds a k of steps, one ``_tops`` call builds their top
    rows.  A trial's ServiceTimes is made, and so checked, in its turn."""
    n, K = spec.n, spec.horizon
    size = max(1, _CHUNK // (K + len(steps) * spec.arity))

    def built(chunk):
        k0, taus = chunk
        ks = [k for k in steps if k0 < k <= k0 + taus.shape[-1]]
        tops = _tops(spec, taus, [k - k0 - 1 for k in ks]) if ks else [None] * len(taus)
        return k0, taus, ks, tops

    for t0 in range(0, trials, size):
        g = min(size, trials - t0)
        # map, unlike a generator's loop, keeps no chunk it gave: the next is drawn without it
        chunks = map(built, replace(source, seed=source.seed + t0)._chunks(n, K, _CHUNK, g))
        if g > 1:  # then K < _CHUNK: one chunk, built once and read by each trial
            chunks = list(chunks)
        for j in range(g):
            yield map(lambda c, j=j: (c[0], ServiceTimes(c[1][j]), c[2], c[3][j]), chunks)


def validate(config: RunConfig, trials: int = 10) -> int:
    """Two checks per trial (``_trial``), seeds seed, seed+1, ..., exact
    while tau is exact and else within ``models._rounding_gap``; exit 1
    at the first departure past that.  The prefix scan's rows against the
    oracle's, in the chunks where the variant's kernel is the scan
    (open_infinite on exact tau; else it is the oracle's own loop,
    whatever the strategy); then the oracle's d(k) against the paper's
    state equation (``engine._step``) at k = 1, lag = m / n (where
    blocking or closed feedback first reads d(0)) and K, or none past
    m = _STATE_CHECK_ARITY.  The ok line names the largest gap over both
    checks, the row-major first.  A trace or constant source ignores the
    seed, so it gives one trial.  Trials are sampled and built by the
    group, chunk by chunk (``_trials``), as many whole trials as fit in one
    chunk's cells, but stepped and checked one by one: errors and
    mismatches come in trial order, and no trial runs after one fails.
    Memory is O((_CHUNK + lag) n + 3 n m) for a generated source, whatever
    K and the trials."""
    _require(trials >= 1, "'--trials' must be >= 1")
    trials = 1 if config.source.kind in ("trace", "constant") else trials
    spec = config.spec
    K, m, n = spec.horizon, spec.arity, spec.n
    steps = sorted({1, min(m // n, K), K}) if m <= _STATE_CHECK_ARITY else []
    clause = (f"state equation at k={','.join(map(str, steps))}" if steps
              else f"state equation skipped (m = {m} > {_STATE_CHECK_ARITY})")
    worst = (0.0, 0.0, 0, 0)
    try:
        for t, chunks in enumerate(_trials(spec, config.source, steps, trials)):
            worst = max(worst, _trial(spec, chunks, t))
    except _Mismatch as failed:
        print(failed)
        return 1
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
    except MeasureConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
