"""Wall-clock benchmark of the tandemax CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a tandemax checkout; the package is imported from
its `src/`.  One run is one process and one closed-loop caller: it
times how long a fresh interpreter takes to import `tandemax.cli`, runs
one warm-up round, then repeats whole rounds of `tandemax.cli.main`
calls back to back for S seconds.  Every output of every call is
checked against the benchmark's own references (check.py).  The last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics (layers.py) with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

import host  # noqa: E402
from check import CheckError, check_dominance, check_simulation, departures, service_times  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import REFERENCE_INF, WORKLOADS, round_seed  # noqa: E402

SETUP_SAMPLES = 9
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import tandemax.cli; print('ready', flush=True)"


def measure_setup() -> float:
    """Reference seconds from spawning a fresh interpreter to `tandemax.cli`
    imported."""
    factor = host.scale()
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import tandemax.cli")
    return elapsed * factor


class Runner:
    """Runs the rounds of one workload and checks every output."""

    def __init__(self, cli, workload, base_seed: int, out: Path):
        self.cli, self.workload, self.base_seed, self.out = cli, workload, base_seed, out

    def call(self, op) -> tuple[float, str | None]:
        """Time one CLI call; returns (seconds, failure or None)."""
        config = self.out / f"{op.name}.json"
        config.write_text(json.dumps(op.config(self.out)))
        for path in op.outputs(self.out):
            path.unlink(missing_ok=True)
        text = io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = self.cli.main(op.argv(config))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error ends the call, as it would the process
            code, error = 1, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        lines = text.getvalue().splitlines()
        if code != 0:
            return seconds, error or f"exit {code}: {lines[-1] if lines else ''}"
        if op.command == "validate" and not (lines and lines[-1].startswith("validate: ok")):
            raise CheckError(f"{op.name}: validate printed {lines!r}")
        return seconds, None

    def round(self, r: int, tracer: Tracer | None = None) -> list:
        """One pass over the workload's ops; returns (op, seconds, failure)."""
        results, rows = [], {}
        ops = self.workload.ops(round_seed(self.base_seed, r))
        for op in ops:
            seconds, error = self.call(op)
            results.append((op, seconds, error))
            if error is None and op.command == "simulate":
                if tracer is not None:
                    tracer.counts["cli.csv_bytes"] += sum(
                        p.stat().st_size for p in op.outputs(self.out))
                rows[op.name] = check_simulation(op, self.out)
        by_name = {op.name: op for op in ops}
        for chain in self.workload.chains:
            if not all(name in rows for name in chain if name != REFERENCE_INF):
                continue
            first = by_name[chain[0]]
            if REFERENCE_INF in chain:
                tau = service_times(first.n, first.K, first.low, first.high, first.seed, first.integer)
                rows[REFERENCE_INF] = list(departures("open_infinite", tau))
            for upper, lower in zip(chain, chain[1:]):
                check_dominance(f"{upper} >= {lower}", rows[upper], rows[lower], first.integer)
        return results


def end_to_end(measured: list, setup: list) -> dict:
    """op_p50_s is the median over the round's operations of each one's
    median time, so a round of unlike calls gives a steady middle value."""
    done = [(op, s) for op, s, error in measured if error is None]
    seconds = sum(s for _, s in done)
    per_op = {}
    for op, s in done:
        per_op.setdefault(op.name, []).append(s)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(statistics.median(v) for v in per_op.values()), "s"),
        "cells_per_s": (sum(op.cells for op, _ in done) / seconds, "cells/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run(args, cli) -> int:
    setup = [] if args.trace else [measure_setup() for _ in range(SETUP_SAMPLES)]
    out = RUNS / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, WORKLOADS[args.workload], args.seed, out)
    tracer = Tracer()
    measured, walls, factors = [], {False: [], True: []}, {False: [], True: []}
    correct, note = True, ""
    try:
        runner.round(0)
        start, r = perf_counter(), 1
        while perf_counter() - start < args.seconds or r <= (2 if args.trace else 1):
            traced = bool(args.trace) and r % 2 == 0
            factor = host.scale()
            with tracer if traced else contextlib.nullcontext():
                results = runner.round(r, tracer if traced else None)
            results = [(op, s * factor, error) for op, s, error in results]
            measured += results
            walls[traced].append(sum(s for _, s, _ in results))
            factors[traced].append(factor)
            r += 1
    except CheckError as exc:
        correct, note = False, f"check failed: {exc}"
    finally:
        shutil.rmtree(out, ignore_errors=True)

    if not correct:
        metrics = {}
    elif args.trace:
        metrics = tracer.metrics(len(walls[True]), statistics.median(factors[True]))
        base, traced = statistics.median(walls[False]), statistics.median(walls[True])
        metrics["trace.overhead_s"] = (traced - base, "s")
        metrics["trace.overhead_pct"] = ((traced - base) / base * 100, "%")
    else:
        metrics = end_to_end(measured, setup)
    failures = Counter((op.name, error) for op, _, error in measured if error is not None)

    rounds = len(walls[False]) + len(walls[True])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"ops {len(measured)}  failed {failures.total()}")
    for (name, error), count in failures.items():
        print(f"  failed x{count} {name}: {error}")
    every = factors[False] + factors[True]
    if every:
        print(f"  reference s per wall s: median {statistics.median(every):.3f}, "
              f"range {min(every):.3f}..{max(every):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    if note:
        print(note)
    result = {
        "correct": correct,
        "attempted": len(measured),
        "failed": failures.total(),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


def self_test(cli) -> int:
    """Show that the checks pass on real outputs and fail when one
    departure cell is corrupted, for an integer and a float op."""
    out = RUNS / f"self-test-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    grid = {op.name: op for op in WORKLOADS["variant-grid"].ops(round_seed(1, 0))}
    ops = [grid["sim-comm-b1"], WORKLOADS["blocking-augmented"].ops(round_seed(1, 0))[0]]
    runner = Runner(cli, None, 1, out)
    try:
        for op in ops:
            seconds, error = runner.call(op)
            if error is not None:
                raise RuntimeError(f"{op.name} failed: {error}")
            check_simulation(op, out)
            path = op.output(out)
            lines = path.read_text().splitlines()
            cells = lines[-1].split(",")
            value = float(cells[-1])
            cells[-1] = repr(value + (1.0 if op.integer else 1e-9 * value))
            lines[-1] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            try:
                check_simulation(op, out)
            except CheckError as exc:
                print(f"self-test {op.name}: corrupted d_{op.n}({op.K}) caught: {exc}")
            else:
                print(f"self-test {op.name}: corrupted cell NOT caught")
                return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print("self-test: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    src = ROOT / "src"
    if not (src / "tandemax" / "cli.py").is_file():
        print(f"no tandemax sources under {src}; run from a tandemax checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tandemax.cli as cli

    if Path(cli.__file__).resolve().parent != src / "tandemax":
        print(f"imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    return self_test(cli) if args.self_test else run(args, cli)


if __name__ == "__main__":
    sys.exit(main())
