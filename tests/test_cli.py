import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemax import cli, engine
from tandemax.cli import (
    ConfigError,
    build_parser,
    main,
    parse_config,
    run,
    validate,
)
from tandemax.core import EPS, matvec
from tandemax.csvout import _CHUNK_ROWS, _header, _write_rows
from tandemax.engine import oracle_lindley, simulate, simulate_serial
from tandemax.measures import _Records, trajectory_sojourn, trajectory_waiting
from tandemax.models import ModelConfigError, ServiceTimes, TandemSpec, build_transition
from tandemax.sources import (
    ServiceTimeSource,
    SourceConfigError,
    _uniform01,
    dump_trace,
    load_trace,
)


def make_config(**overrides):
    doc = {
        "variant": "open_infinite",
        "n": 3,
        "K": 10,
        "source": {"kind": "constant", "value": 1.0},
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal(self):
        config = parse_config(make_config())
        assert config.spec == TandemSpec("open_infinite", 3, 10)
        assert config.strategy == "serial"
        assert config.measures == ("departures",)

    def test_closed_c2_arity(self):
        config = parse_config(make_config(variant="closed", n=2, c=2))
        assert config.spec.arity == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(make_config(bogus=1))
        with pytest.raises(ConfigError, match=r"^unknown config keys: \['initial_state'\]$"):
            parse_config(make_config(initial_state="zero"))
        with pytest.raises(ConfigError, match="source"):
            parse_config(make_config(source={"kind": "constant", "oops": 2}))

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="'K'"):
            parse_config(json.dumps({"variant": "closed", "n": 2,
                                     "source": {"kind": "constant"}}))

    def test_type_mismatch_rejected(self):
        cases = [
            ({"n": "three"}, "'n'"),
            ({"source": {"kind": "uniform", "seed": 3.9}}, "seed"),
            ({"source": {"kind": "uniform", "seed": True}}, "seed"),
            ({"source": {"kind": "uniform", "integer_times": "false"}}, "integer_times"),
            ({"source": {"kind": "uniform", "low": "0"}}, "low"),
            ({"source": {"kind": "constant", "value": None}}, "value"),
            ({"source": {"kind": "exponential", "rate": False}}, "rate"),
            ({"source": {"kind": "trace", "path": 7}}, "path"),
            ({"n": True}, "'n'"),
            ({"K": 4.0}, "'K'"),
            ({"c": False}, "'c'"),
            ({"b": True}, "'b'"),
            ({"processors": True}, "processors"),
            ({"count_ops": "false"}, "count_ops"),
            ({"measures": 5}, "measures"),
            ({"measures": [[1]]}, "measures"),
            ({"measures": "sojourn"}, "measures"),
            ({"output": 5}, "output"),
        ]
        for overrides, key in cases:
            with pytest.raises(ConfigError, match=key):
                parse_config(make_config(**overrides))

    @pytest.mark.parametrize("measure", ["sojourn", "waiting"])
    def test_epsilon_initial_state_measures_rejected(self, tmp_path, capsys, measure):
        # the all-eps d(0) setting is gone; a config that still asks for it exits 2
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(initial_state="epsilon", measures=["departures", measure],
                                   output=str(tmp_path / "eps.csv")))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: unknown config keys: ['initial_state']\n")
        assert not (tmp_path / "eps.csv").exists()

    @pytest.mark.parametrize("strategy,processors,message", [
        ("sparse-closed", 1, "strategy 'sparse-closed' requires the closed variant with c = 1"),
        ("batched", 0, "'processors' must be >= 1"),
        ("warp", 1, "'strategy' must be one of ('serial', 'sparse-closed', 'vector', 'batched')"),
    ])
    def test_strategy_rules_stated_once(self, strategy, processors, message):
        """The config parser and simulate apply one rule set, word for word."""
        text = f"^{re.escape(message)}$"
        with pytest.raises(ConfigError, match=text):
            parse_config(make_config(strategy=strategy, processors=processors))
        spec = TandemSpec("open_infinite", 3, 10)
        tau = ServiceTimeSource(kind="constant", value=1.0).sample(3, 10)
        with pytest.raises(ModelConfigError, match=text):
            simulate(spec, tau, strategy, processors)

    def test_incompatible_strategy_rejected(self):
        with pytest.raises(ConfigError, match="sparse-closed"):
            parse_config(make_config(variant="open_mfg", b=0, strategy="sparse-closed"))

    def test_closed_measures_restricted(self):
        with pytest.raises(ConfigError):
            parse_config(make_config(variant="closed", n=2, measures=["sojourn"]))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{nope")

    def test_readme_schema_parses(self):
        # the example under "Config schema" in README, without its // comments
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Config schema.*?```json\n(.*?)```", readme, re.S).group(1)
        config = parse_config(re.sub(r"\s*//.*", "", block))
        assert config.spec == TandemSpec("open_infinite", 3, 100)
        assert config.measures == ("departures", "sojourn", "waiting")


# u at cells (station i, customer k) as the scalar Python-int splitmix64
# gives it: ((seed + 0x9E3779B97F4A7C15 * ((i << 32) ^ k)) mod 2**64,
# finalizer twice, top 53 bits).
PINNED_U = {
    0: {(1, 1): 0.9077188858688816, (16, 3000): 0.15150025018008384,
        (5, 70000): 0.3789075687018778},
    7: {(1, 1): 0.476472204964401, (16, 3000): 0.09775375388561414,
        (5, 70000): 0.25051264282805996},
    2**63 + 5: {(1, 1): 0.8418317643105325, (16, 3000): 0.8120637094043287,
                (5, 70000): 0.5310349756645503},
    -1: {(1, 1): 0.9079969070926105, (16, 3000): 0.7762377550210996,
         (5, 70000): 0.8581262168984212},
    2**70 + 3: {(1, 1): 0.10157732693534327, (16, 3000): 0.6245187371808072,
                (5, 70000): 0.8608883315499819},
}


def cell_u(seed, i, k):
    """u at one cell, from the generator on 0-d uint64 index arrays and a
    stack of one seed."""
    u = _uniform01([seed], np.array(i, np.uint64), np.array(k, np.uint64))
    assert u.shape == (1,)
    return float(u[0])


class TestPortableGenerator:
    def test_sample_matches_per_cell_derivation(self):
        for seed, cells in PINNED_U.items():
            src = ServiceTimeSource(kind="uniform", low=0.0, high=1.0, seed=seed)
            tau = src.sample(16, 70000).tau
            for (i, k), u in cells.items():
                assert cell_u(seed, i, k) == u
                assert tau[i - 1, k - 1] == u
        for kind in ("uniform", "exponential"):
            src = ServiceTimeSource(kind=kind, low=0.0, high=1.0, rate=2.5, seed=42)
            tau = src.sample(3, 40).tau
            for i in range(1, 4):
                for k in range(1, 41):
                    u = cell_u(42, i, k)
                    assert tau[i - 1, k - 1] == (u if kind == "uniform" else -math.log1p(-u) / 2.5)

    @pytest.mark.parametrize("kind", ["uniform", "exponential"])
    @pytest.mark.parametrize("integer_times", [False, True])
    def test_chunked_draws_equal_the_whole_draw(self, kind, integer_times):
        """``_chunks`` of any size give (k0, a (1, n, L) stack) whose stacks
        are ``sample``'s grid bit for bit, sign bits included, and a seed is
        the seed mod 2**64, across the wrap and past it."""
        src = ServiceTimeSource(kind=kind, low=0.5, high=3.0, rate=2.5,
                                integer_times=integer_times)
        for seed in (0, 7, -1, 2**64 - 2, 2**64 + 1, 2**70 + 3):
            whole = replace(src, seed=seed).sample(5, 30).tau
            wrapped = replace(src, seed=seed % 2**64).sample(5, 30).tau
            assert np.array_equal(whole.view(np.int64), wrapped.view(np.int64))
            for size in (1, 7, 29, 30, 31):
                chunks = list(replace(src, seed=seed)._chunks(5, 30, size))
                assert [k0 for k0, _ in chunks] == list(range(0, 30, size))
                assert [c.shape for _, c in chunks] == [(1, 5, min(size, 30 - k0))
                                                        for k0 in range(0, 30, size)]
                got = np.concatenate([c[0] for _, c in chunks], axis=1)
                assert np.array_equal(got.view(np.int64), whole.view(np.int64))

    @pytest.mark.parametrize("kind", ["uniform", "exponential", "constant"])
    @pytest.mark.parametrize("integer_times", [False, True])
    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_group_draw_equals_each_seeds_own_draw(self, kind, integer_times, trials):
        """``_draws`` over a group of trials stacks each seed's own draw, bit
        for bit, sign bits included, from the chunk's first customer on;
        the seeds wrap mod 2**64 inside a group as they do alone."""
        src = ServiceTimeSource(kind=kind, value=2.5, low=0.0, high=3.0, rate=2.5,
                                integer_times=integer_times)
        for seed in (0, -2, 2**64 - 3, 2**64 - 1, 2**64 + 1, 2**70 + 3):
            for k0 in (0, 7):
                group = replace(src, seed=seed)._draws(5, 30, k0, trials=trials)
                assert group.shape == (trials, 5, 30 - k0)
                for t, got in enumerate(group):
                    own = replace(src, seed=seed + t)._draws(5, 30, k0)
                    assert own.shape == (1, 5, 30 - k0)
                    own = own[0]
                    assert np.array_equal(got.view(np.int64), own.view(np.int64))
                    assert np.array_equal(np.signbit(got), np.signbit(own))

    def test_range_and_spread(self):
        us = [cell_u(7, i, k) for i in range(1, 20) for k in range(1, 20)]
        assert all(0 <= u < 1 for u in us)
        assert 0.4 < sum(us) / len(us) < 0.6

    def test_sample_reproducible(self):
        src = ServiceTimeSource(kind="exponential", rate=2.0, seed=99)
        assert np.array_equal(src.sample(4, 6).tau, src.sample(4, 6).tau)

    def test_integer_mode(self):
        src = ServiceTimeSource(kind="uniform", low=0, high=9, seed=1, integer_times=True)
        tau = src.sample(3, 5).tau
        assert np.array_equal(tau, np.rint(tau))

    def test_source_validation(self):
        with pytest.raises(SourceConfigError):
            ServiceTimeSource(kind="nope")
        with pytest.raises(SourceConfigError):
            ServiceTimeSource(kind="exponential", rate=0.0)
        with pytest.raises(SourceConfigError):
            ServiceTimeSource(kind="trace")


class TestTrace:
    def test_round_trip_identical_trajectory(self, tmp_path):
        src = ServiceTimeSource(kind="uniform", low=0, high=5, seed=3)
        tau = src.sample(2, 4)
        path = tmp_path / "trace.csv"
        dump_trace(tau, path)
        reloaded = load_trace(path, 2, 4)
        assert np.array_equal(tau.tau, reloaded.tau)
        spec = TandemSpec("open_infinite", 2, 4)
        assert np.array_equal(
            simulate_serial(spec, tau).states, simulate_serial(spec, reloaded).states
        )

    def test_small_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,i,tau\n1,1,1\n1,2,2\n2,1,3\n2,2,4\n")
        tau = load_trace(path, 2, 2)
        assert tau.tau.tolist() == [[1, 3], [2, 4]]

    def test_missing_cell_named(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,i,tau\n1,1,1\n1,2,2\n2,2,4\n")
        with pytest.raises(SourceConfigError, match=r"\(k=2, i=1\)"):
            load_trace(path, 2, 2)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,i,tau\n1,1,1\n1,1,2\n")
        with pytest.raises(SourceConfigError, match="duplicate"):
            load_trace(path, 1, 1)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,i,tau\n1,1,-1\n")
        with pytest.raises(SourceConfigError, match=">= 0"):
            load_trace(path, 1, 1)

    def test_validate_reports_the_one_trial_run(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        dump_trace(ServiceTimeSource(kind="uniform", low=0, high=5, seed=3).sample(3, 5), path)
        config = parse_config(make_config(K=5, source={"kind": "trace", "path": str(path)}))
        assert validate(config, trials=10) == 0
        assert "validate: ok (1 trial(s)" in capsys.readouterr().out

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(SourceConfigError, match="header"):
            load_trace(path, 1, 1)


def assert_waiting_below_zero_within_gap(tmp_path, source):
    """`simulate` writes the n=8, K=2000 waiting table of an open_infinite
    run; some w sit below 0, by no more than the rounding gap."""
    cfg = tmp_path / "c.json"
    cfg.write_text(make_config(n=8, K=2000, output=str(tmp_path / "f.csv"),
                               measures=["waiting"], source=source))
    assert main(["simulate", "--config", str(cfg)]) == 0
    rows = (tmp_path / "f_waiting.csv").read_text().splitlines()[1:]
    w = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
    config = parse_config(cfg.read_text())
    tau = config.source.sample(8, 2000)
    d = simulate_serial(config.spec, tau).departures()
    assert -tau.rounding_gap(d) <= w.min() < 0


_TRANSITIONS = engine._transitions


def wrong_transitions(spec, v):
    """``engine._transitions`` with the communication feedback D unshifted
    (S_k (x) T_k, not shifted by GT), or the closed routing T_k (x) F^T in
    place of T_k (x) F."""
    a = _TRANSITIONS(spec, v)
    n = spec.n
    if spec.variant == "open_comm":
        a[..., :n, 1 - n:] = _TRANSITIONS(TandemSpec("open_infinite", n, 1), v)[..., 1:]
    else:
        diag = np.where(np.eye(n, dtype=bool), v[..., None, :], EPS)
        a[..., :n, -n:] = np.roll(diag, 1, axis=-1)
    return a


def reference_validate(config, trials, top_rows=None):
    """A serial validate's stdout, recomputed whole trial by whole trial
    from ``simulate``, the oracle, ``build_transition`` (or top_rows, the
    top n rows of a faulty T_k from its service vector) and ``matvec``.
    On exact open_infinite tau the scan's table is checked against the
    oracle's; then the first n entries of T_k (x) (d(k-1), ..., d(k-lag)),
    eps before k = 0, against the oracle's d(k) at k = 1, lag and K.  The
    first gap past the trial's bound is the line; else the ok line names
    the largest gap, the row-major first of its trial."""
    spec = config.spec
    n, K, m = spec.n, spec.horizon, spec.arity
    lag = m // n
    top_rows = top_rows or (lambda v: build_transition(spec, v).readonly()[:n])
    steps = sorted({1, min(lag, K), K}) if m <= 1024 else []
    worst = (0.0, 0.0, 0, 0)
    for t in range(trials):
        tau = replace(config.source, seed=config.source.seed + t).sample(n, K)
        d = oracle_lindley(spec, tau).states
        bound = tau.rounding_gap(d[1:])
        checks = []
        if spec.variant == "open_infinite" and tau.exact:
            checks.append(("mismatch at", "scan", range(1, K + 1), simulate(spec, tau).states[1:],
                           d[1:]))
        rows = [matvec(top_rows(tau.column(k)),
                       np.concatenate([d[j] if j >= 0 else np.full(n, EPS)
                                       for j in range(k - 1, k - 1 - lag, -1)]))
                for k in steps]
        checks.append(("state equation fails at", "T_k", steps, np.reshape(rows, (-1, n)),
                       d[steps]))
        top = (0.0, 1, 1)
        for what, route, ks, got, want in checks:
            for r, k in enumerate(ks):
                for i, (x, y) in enumerate(zip(got[r], want[r]), 1):
                    gap = abs(x - y)
                    if gap > bound:
                        return (f"{what} k={k} i={i}: {route}={x:.17g} oracle={y:.17g} "
                                f"gap {gap:.3g} > bound {bound:.3g} (trial {t})\n")
                    if gap > top[0] or gap == top[0] and (k, i) < top[1:]:
                        top = (gap, k, i)
        worst = max(worst, (top[0], bound, *top[1:]))
    gap, bound, k, i = worst
    clause = (f"state equation at k={','.join(map(str, steps))}" if steps
              else f"state equation skipped (m = {m} > 1024)")
    return (f"validate: ok ({trials} trial(s), variant={spec.variant}, {clause}, "
            f"max gap {gap:.3g} at k={k} i={i}, bound {bound:.3g})\n")


_PREFIX_SCAN = engine._prefix_scan


class ScanFault:
    """``engine._prefix_scan`` with d_{i+1}(k) of trial t moved by delta,
    for each (t, k, i) in cells.  A trial scans its K customers in one
    call or in chunks, all of them on small integer tau, so the calls
    count the customers of trial 0, then of trial 1, ..."""

    def __init__(self, K, cells, delta=1.0):
        self.K, self.cells, self.delta, self.seen = K, cells, delta, 0

    def __call__(self, spec, hist, tau):
        states = _PREFIX_SCAN(spec, hist, tau)
        t, k0 = divmod(self.seen, self.K)
        self.seen += tau.shape[1]
        for trial, k, i in self.cells:
            if trial == t and k0 < k <= k0 + tau.shape[1]:
                states[k - k0, i] += self.delta
        return states


# The reference block of the --count-ops report for K = 7, P = 3.
OPS_REFERENCE = {
    5: """-- reference formulas (open-infinite tandem) --
serial per-step ops n(n+1)/2 + n^2: 40
serial total K(N1+N2): 280
serial memory n(n+5)/2: 25
vector ideal reduction n + log2(n!): 11.906891
batched batches ceil(K/P): 3
batched ops L(n(n+1)/2 + 2Pn): 135
speedup formula S_v = n(3n+1)/(log2(n!)/2 + n): 9.463597
speedup formula S_P = 3P/5: 1.800000
""",
    3: """-- reference formulas (open-infinite tandem) --
serial per-step ops n(n+1)/2 + n^2: 15
serial total K(N1+N2): 105
serial memory n(n+5)/2: 12
vector ideal reduction n + log2(n!): 5.584963
batched batches ceil(K/P): 3
batched ops L(n(n+1)/2 + 2Pn): 72
speedup formula S_v = n(3n+1)/(log2(n!)/2 + n): 6.988965
speedup formula S_P = 3P/5: 1.800000
""",
}

class TestRun:
    def test_departures_csv(self, tmp_path):
        out = tmp_path / "dep.csv"
        config = parse_config(
            make_config(n=2, K=3, output=str(out),
                        source={"kind": "constant", "value": 1.0})
        )
        # n=2 constant interarrival 1, service 1
        assert run(config) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,d_1,d_2"
        assert lines[1] == "1,1,2"

    def test_hand_case_csv(self, tmp_path):
        out = tmp_path / "dep.csv"
        trace = tmp_path / "trace.csv"
        rows = ["k,i,tau"]
        for k in range(1, 4):
            rows.append(f"{k},1,1")
            rows.append(f"{k},2,2")
        trace.write_text("\n".join(rows) + "\n")
        config = parse_config(
            make_config(n=2, K=3, output=str(out),
                        source={"kind": "trace", "path": str(trace)})
        )
        run(config)
        assert out.read_text().splitlines()[1:] == ["1,1,3", "2,2,5", "3,3,7"]

    def test_measures_and_ops(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        config = parse_config(
            make_config(n=2, K=3, output=str(out),
                        measures=["departures", "sojourn", "waiting"],
                        count_ops=True)
        )
        run(config)
        assert (tmp_path / "r_sojourn.csv").exists()
        assert (tmp_path / "r_waiting.csv").exists()
        report = (tmp_path / "r_ops.txt").read_text()
        assert "scalar_otimes" in report and "speedup formula" in report

    @pytest.mark.parametrize("model,strategy,counters", [
        # steps, scalar_oplus, scalar_otimes, vector_ops, parallel_ops, batches, memory_cells
        ({"variant": "open_infinite", "n": 5}, "serial", (7, 70, 210, 0, 0, 0, 25)),
        ({"variant": "open_infinite", "n": 5}, "vector", (7, 0, 0, 126, 0, 0, 25)),
        ({"variant": "open_infinite", "n": 5}, "batched", (7, 0, 0, 0, 115, 3, 55)),
        ({"variant": "closed", "n": 3}, "serial", (7, 42, 63, 0, 0, 0, 15)),
        ({"variant": "closed", "n": 3}, "sparse-closed", (7, 21, 21, 0, 0, 0, 9)),
        ({"variant": "closed", "n": 3}, "vector", (7, 0, 0, 84, 0, 0, 15)),
        ({"variant": "closed", "n": 3}, "batched", (7, 0, 0, 0, 60, 3, 33)),
    ])
    def test_ops_report_bytes(self, tmp_path, capsys, model, strategy, counters):
        """The whole --count-ops report, in _ops.txt and on stdout, for K = 7
        and P = 3 (P does not divide K)."""
        out = tmp_path / "r.csv"
        run(parse_config(make_config(**model, K=7, strategy=strategy, processors=3,
                                     count_ops=True, output=str(out))))
        names = ("steps", "scalar_oplus", "scalar_otimes", "vector_ops", "parallel_ops",
                 "batches", "memory_cells")
        want = f"strategy: {strategy}\n" + "".join(
            f"{name}: {value}\n" for name, value in zip(names, counters)
        ) + OPS_REFERENCE[model["n"]]
        assert (tmp_path / "r_ops.txt").read_text() == want
        assert capsys.readouterr().out == want

    def test_validate_ok(self, capsys):
        config = parse_config(
            make_config(source={"kind": "uniform", "low": 0, "high": 5,
                                "seed": 1, "integer_times": True})
        )
        assert validate(config, trials=5) == 0
        assert "max gap 0 at k=1 i=1, bound 0" in capsys.readouterr().out

    def test_validate_constant_source_runs_one_trial(self, capsys, monkeypatch):
        """A constant source ignores the seed, as a trace does: one trial."""
        real, calls = ServiceTimeSource._chunks, []
        monkeypatch.setattr(ServiceTimeSource, "_chunks",
                            lambda src, *args: calls.append(args) or real(src, *args))
        assert validate(parse_config(make_config()), trials=10) == 0
        assert len(calls) == 1
        assert "validate: ok (1 trial(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("integer_times", [True, False])
    def test_exactness_decided_once_per_service_times(self, tmp_path, monkeypatch,
                                                      integer_times):
        """The kernel choice, the waiting check, the validate bound and the
        writer all read one ``ServiceTimes.exact``: every run tracks it, so
        a departures-only open_mfg run evaluates it once per chunk while its
        tau is exact, and on float tau only in its first chunk."""
        calls = []
        real = ServiceTimes.exact.func
        exact = functools.cached_property(lambda tau: calls.append(tau) or real(tau))
        exact.__set_name__(ServiceTimes, "exact")
        monkeypatch.setattr(ServiceTimes, "exact", exact)
        cfg = tmp_path / "c.json"
        source = {"kind": "uniform", "low": 0, "high": 5, "seed": 1,
                  "integer_times": integer_times}
        cfg.write_text(make_config(n=4, K=50, measures=["departures", "sojourn", "waiting"],
                                   source=source, output=str(tmp_path / "d.csv")))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert len(calls) == 1
        calls.clear()
        assert main(["validate", "--config", str(cfg), "--trials", "3"]) == 0
        assert len(calls) == 3 and len({id(tau) for tau in calls}) == 3
        calls.clear()
        cfg.write_text(make_config(variant="open_mfg", n=4, K=2 * cli._CHUNK + 5, b=1,
                                   source=source, output=str(tmp_path / "d.csv")))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert len(calls) == (3 if integer_times else 1)
        assert len({id(tau) for tau in calls}) == len(calls)

    def test_float_waiting_within_rounding_gap(self, tmp_path):
        # departures and service prefixes are summed in different orders,
        # so float inputs leave some w a few ulps below zero (w_3 at seed 7)
        assert_waiting_below_zero_within_gap(
            tmp_path, {"kind": "uniform", "low": 0, "high": 5, "seed": 7})

    def test_validate_float_within_rounding_gap(self, capsys, monkeypatch):
        import tandemax.cli as cli

        config = parse_config(
            make_config(n=8, K=200, source={"kind": "uniform", "low": 0, "high": 5, "seed": 7})
        )
        assert validate(config, trials=2) == 0
        line = capsys.readouterr().out
        assert "bound" in line
        # a strategy selects only its cost model: vector runs serial's kernel
        assert validate(replace(config, strategy="vector", processors=3), trials=2) == 0
        assert capsys.readouterr().out == line
        # on integer tau open_infinite runs the prefix scan, which validate
        # compares with the oracle's table exactly
        exact = replace(config, source=replace(config.source, integer_times=True))
        monkeypatch.setattr(engine, "_prefix_scan", ScanFault(200, [(0, 5, 3)], 1e-9))
        assert validate(exact, trials=1) == 1
        # the one route validate compares with the oracle is the prefix scan
        assert "mismatch at k=5 i=4: scan=" in capsys.readouterr().out

    def test_validate_compares_in_row_blocks(self, capsys, monkeypatch):
        """The prefix scan's rows are compared one chunk of _CHUNK customers
        at a time, and the bound is known only at the end; the mismatch it
        names is still the row-major first, across and within chunks."""
        C = cli._CHUNK
        config = parse_config(make_config(K=2 * C + 5, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 3, "integer_times": True}))
        assert validate(config, trials=1) == 0
        assert capsys.readouterr().out.endswith(", max gap 0 at k=1 i=1, bound 0)\n")
        for cells, cell in [([(C + 90, 0), (C + 20, 2)], f"k={C + 20} i=3"),
                            ([(C + 20, 2), (C + 90, 0), (100, 1)], "k=100 i=2")]:
            monkeypatch.setattr(engine, "_prefix_scan",
                                ScanFault(2 * C + 5, [(0, k, i) for k, i in cells]))
            assert validate(config, trials=1) == 1
            assert capsys.readouterr().out.startswith(f"mismatch at {cell}: ")

    def test_gap_names_the_first_cell_past_the_bound(self):
        """validate's compare raises at the row-major first gap past the
        bound, not at the largest, also behind a NaN gap, which is not
        past it, and across row blocks; within the bound its last record
        is the row-major first largest gap."""
        want = np.zeros((3, 3))
        got = np.array([[0.0, 1.0, 0.0], [0.0, 3.0, 5.0], [5.0, 0.0, 0.0]])
        for first in (0.0, np.nan):
            got[0, 0] = first
            records = _Records()
            for r in (0, 1, 2):  # customers 10, 11, 12
                rows = slice(r, r + 1)
                records.add(np.abs(got[rows] - want[rows]), [10 + r], got[rows], want[rows])
            assert records[-1][:3] == (5.0, 11, 3)
            cli._first_past(records, 5.0, "at k={} i={}", 0)
            with pytest.raises(cli._Mismatch,
                               match=r"^at k=11 i=2=3 oracle=0 gap 3 > bound 2 \(trial 4\)$"):
                cli._first_past(records, 2.0, "at k={} i={}", 4)

    @pytest.mark.parametrize("model", [{"variant": "open_comm", "b": 1},
                                       {"variant": "closed", "c": 2}])
    def test_validate_checks_the_state_equation(self, capsys, monkeypatch, model):
        """A serial run's table is the oracle's own, so validate checks the
        oracle against the paper's T_k at k = 1, lag and K, and names the
        largest gap there.  A T_k whose communication feedback is D
        unshifted, or whose closed routing F is rolled the wrong way,
        fails there."""
        config = parse_config(make_config(**model, n=6, K=300, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 1}))
        assert validate(config, trials=3) == 0
        out = capsys.readouterr().out
        assert ", state equation at k=1,2,300, " in out and out == reference_validate(config, 3)
        monkeypatch.setattr(engine, "_transitions", wrong_transitions)
        assert validate(config, trials=3) == 1
        out = capsys.readouterr().out
        assert out.startswith("state equation fails at k=300 i=2: ") and out.count("\n") == 1

    @pytest.mark.parametrize("later", ["mismatch", "raise", "inf"])
    def test_validate_reports_an_earlier_trials_state_equation_first(
            self, tmp_path, capsys, monkeypatch, later):
        """Trial 0's state-equation failure comes before trial 1's route
        mismatch, trial 1's error from the route, or trial 1's +inf service
        time: the one line trial 0 gives, exit 1, and trial 1 never runs."""
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(n=6, K=300, source={"kind": "uniform", "low": 0, "high": 5,
                                                       "seed": 1, "integer_times": True}))
        fault, runs = ScanFault(300, [(1, 4, 0)]), []

        def route(spec, hist, tau):  # open_infinite's kernel: off or raising at trial 1
            runs.append(tau)
            if later == "raise" and len(runs) == 2:
                raise ModelConfigError("departure d_1(1) overflows float64")
            return fault(spec, hist, tau)

        draws = ServiceTimeSource._draws

        def inf_at_trial_1(self, n, horizon, k0=0, trials=None):
            tau = draws(self, n, horizon, k0, trials)
            if trials is not None and self.seed <= 2 < self.seed + trials:
                tau[2 - self.seed, 0, 0] = np.inf  # tau_1(1) of the trial on seed 2
            return tau

        monkeypatch.setattr(engine, "_prefix_scan", route)
        if later == "inf":
            monkeypatch.setattr(ServiceTimeSource, "_draws", inf_at_trial_1)
        argv = ["validate", "--config", str(cfg), "--trials", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == (1 if later == "mismatch" else 2)
            out, err = capsys.readouterr()
            assert (out if later == "mismatch" else err).endswith({
                "mismatch": "(trial 1)\n", "raise": "overflows float64\n",
                "inf": "service times must be finite and >= 0\n"}[later])
            monkeypatch.setattr(engine, "_transitions", wrong_transitions)
            runs.clear()
            fault.seen = 0
            assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out.startswith("state equation fails at k=1 i=2: ") and out.endswith("(trial 0)\n")
        assert out.count("\n") == 1 and err == "" and len(runs) == 1

    def test_validate_builds_each_chunks_steps_in_one_call(self, capsys, monkeypatch):
        """A serial validate builds the top block rows, n x m, of the T_k of
        the k = 1, lag and K checks in one stacked call per chunk that holds
        any of them, over its group of whole trials that fit in one chunk (a
        group of one for a trial alone), and runs no other build; the line
        is the same whatever the chunk."""
        config = parse_config(make_config(variant="open_comm", b=1, n=6, K=300, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 1}))
        built, real = [], engine._transitions

        def counting(spec, v):  # v: (trials, steps, n) service vectors
            top = real(spec, v)
            assert top.shape == v.shape + (12,)
            built.append(v.shape[:-1])
            return top

        monkeypatch.setattr(engine, "_transitions", counting)
        assert validate(config, trials=3) == 0
        line = capsys.readouterr().out
        assert ", state equation at k=1,2,300, " in line
        # a trial takes K + 3 m = 336 of a chunk's 768 customers' cells:
        # trials 0 and 1 are one group, trial 2 is alone
        assert built == [(2, 3), (1, 3)]
        built.clear()
        # chunks of 100 customers: k = 1, 2 in the first, k = 300 in the third
        monkeypatch.setattr(cli, "_CHUNK", 100)
        assert validate(config, trials=3) == 0
        assert capsys.readouterr().out == line
        assert built == [(1, 2), (1, 1)] * 3

    def test_validate_builds_nothing_when_it_skips_the_state_equation(self, capsys, monkeypatch):
        """Past m = _STATE_CHECK_ARITY a serial validate makes no T_k at
        all, so its memory is the n x K tables' whatever n is."""
        config = parse_config(make_config(variant="open_infinite", n=1025, K=3, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 1}))
        built = []
        monkeypatch.setattr(engine, "_transitions", lambda spec, v: built.append(v.shape))
        assert validate(config, trials=3) == 0
        assert ", state equation skipped (m = 1025 > 1024), " in capsys.readouterr().out
        assert built == []

    def test_validate_samples_each_trial_chunk_by_chunk(self, capsys, monkeypatch):
        """The service times of a group of whole trials that fit in one
        chunk come from one generator call over their seeds, and a trial
        alone's from one call per chunk over its one seed, trial after
        trial, seeds past 2**64 wrapping; the lines are the same whatever
        the chunk, ok and failure alike, and a failure names its trial."""
        from tandemax import sources

        calls, real = [], sources._uniform01
        monkeypatch.setattr(sources, "_uniform01",
                            lambda seed, i, k: calls.append((seed, k.size)) or real(seed, i, k))
        s = 2**64 - 3
        source = {"kind": "uniform", "low": 0, "high": 5, "seed": s, "integer_times": True}
        config = parse_config(make_config(n=4, K=50, source=source))
        # a trial takes K + 2 m = 58 customers' cells (k = 1 and 50, m = 4)
        streamed = lambda chunk: [(range(s + t, s + t + 1), min(chunk, 50 - k0))  # noqa: E731
                                  for t in range(12) for k0 in range(0, 50, chunk)]
        want = {cli._CHUNK: [(range(s, s + 12), 50)],
                11 * 58: [(range(s, s + 11), 50), (range(s + 11, s + 12), 50)],
                5 * 58: [(range(s, s + 5), 50), (range(s + 5, s + 10), 50),
                         (range(s + 10, s + 12), 50)],
                20: streamed(20), 1: streamed(1)}
        lines = []
        for chunk, calls_of_chunk in want.items():
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            calls.clear()
            assert validate(config, trials=12) == 0
            assert calls == calls_of_chunk
            with monkeypatch.context() as m:  # trial 7's route is off at d_2(5)
                m.setattr(engine, "_prefix_scan", ScanFault(50, [(7, 5, 1)]))
                assert validate(config, trials=12) == 1
            lines.append(capsys.readouterr().out)
        assert len(set(lines)) == 1
        ok, failed = lines[0].splitlines()
        assert "(12 trial(s)" in ok and failed.startswith("mismatch at k=5 i=2: ")
        assert failed.endswith("(trial 7)")

    def test_validate_names_the_largest_state_equation_gap(self, capsys):
        """On float tau the state equation adds in another order from the
        oracle, so a validate, whose only check there is that one, names a
        gap above 0 and its cell.  On exact tau every gap is 0."""
        source = {"kind": "uniform", "low": 0, "high": 5, "seed": 1}
        config = parse_config(make_config(variant="open_comm", b=1, n=6, K=300, source=source))
        assert validate(config, trials=3) == 0
        out = capsys.readouterr().out
        assert out == reference_validate(config, 3)
        assert float(re.search(r" max gap (\S+) at ", out)[1]) > 0
        exact = replace(config, source=replace(config.source, integer_times=True))
        assert validate(exact, trials=3) == 0
        assert capsys.readouterr().out.endswith(", max gap 0 at k=1 i=1, bound 0)\n")

    @pytest.mark.parametrize("b,clause", [
        (511, "state equation at k=1,3"),
        (512, "state equation skipped (m = 1026 > 1024)"),
        (10**11, "state equation skipped (m = 200000000002 > 1024)"),
    ])
    def test_validate_skips_the_state_equation_past_its_budget(self, capsys, b, clause):
        """The state-equation check builds an m x m T_k; past m = 1024 it is
        skipped, and the ok line says so in place of the steps it checked."""
        config = parse_config(make_config(variant="open_mfg", b=b, n=2, K=3, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 1, "integer_times": True}))
        assert validate(config, trials=2) == 0
        assert f", {clause}, max gap 0 at k=1 i=1, bound 0)\n" in capsys.readouterr().out


# integer service times on [0, 10**14]: at n = 8 the departures pass 2**53
# near k = 160, where float additions round, so the routes may differ
BIG_INTEGERS = {"kind": "uniform", "low": 0, "high": 10**14, "seed": 1, "integer_times": True}


class TestIntegersPast2To53:
    @pytest.mark.parametrize("strategy", ["vector", "batched"])
    def test_validate_state_equation_within_rounding_gap(self, tmp_path, capsys, strategy):
        """Past 2**53 every strategy runs the oracle's own loop, so the one
        check is the state equation's, whose sums round in another order:
        the strategy prints serial's ok line, naming a gap above 0 within
        the bound."""
        lines = []
        for name in ("serial", strategy):
            cfg = tmp_path / "c.json"
            cfg.write_text(make_config(n=8, K=200, strategy=name, processors=3,
                                       source=BIG_INTEGERS))
            assert main(["validate", "--config", str(cfg)]) == 0
            lines.append(capsys.readouterr().out)
        assert len(set(lines)) == 1
        gap, bound = re.search(r"^validate: ok .* max gap (\S+) at .*, bound (\S+)\)",
                               lines[0]).groups()
        assert 0 < float(gap) <= float(bound)

    def test_waiting_within_rounding_gap(self, tmp_path):
        assert_waiting_below_zero_within_gap(tmp_path, dict(BIG_INTEGERS, seed=2))


def _write_measure(rows, prefix, path, exact=None):
    """A whole table as ``run`` writes it: the header, then the rows of
    customers 1..K through the CSV encoder, one integer block if exact, else
    float blocks."""
    with path.open("w") as fh:
        fh.write(_header(prefix, rows.shape[1]))
        _write_rows(fh, rows, 0, exact)


def reference_csv(rows, prefix):
    """The per-row writer: one ``.17g`` format call per cell."""
    n = rows.shape[1]
    lines = ["k," + ",".join(f"{prefix}_{i}" for i in range(1, n + 1))]
    for k, row in enumerate(rows.tolist(), start=1):
        lines.append(f"{k}," + ",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


# cells whose text the integer digits would get wrong: -0 prints "-0",
# 1e17 prints "1e+17", and the rest are not exact integers below 2**53
TRICKY = [EPS, -0.0, 5e-324, 1e300, 2.0**53, 2.0**53 + 2, -(2.0**53), 1e17,
          math.nan, math.inf, 0.1, -2.5]
EXACT = [0.0, 1.0, -7.0, 2.0**53 - 1, -(2.0**53 - 1)]


# integers at the encoder's edges: every digit width 1-16 with both
# signs, 10**j - 1 and 10**j, the uint32 limit 2**32 - 1 and 2**32, and 0
EDGES = sorted({s * v for s in (1, -1) for v in
                [0, 2**32 - 1, 2**32, 2**53 - 1]
                + [10**j - 1 for j in range(1, 16)] + [10**j for j in range(16)]})

# cells at the edges of the fixed-notation digits: 10**j and its two
# neighbours for j = -4..16, which %.17g prints fixed; the window's own
# ends and their outer neighbours; 17-digit ties (eighths from 2**49 and
# quarters from 2**50 have 18 digits ending in 5) and 2**53 +- 2, which
# are not below 2**53
POWERS = [math.nextafter(float(f"1e{j}"), to) for j in range(-4, 17) for to in (0, math.inf)]
POWERS += [float(f"1e{j}") for j in range(-4, 17)]
WINDOW_ENDS = [1e-4, math.nextafter(1e17, 0), -1e-4, -math.nextafter(1e17, 0)]
OUTSIDE = [math.nextafter(1e-4, 0), 1e17, 5e-324, -1e-300, 1e300, math.inf, math.nan]
TIES = [s * (2.0**49 + t) for s in (1, -1) for t in (0.125, 0.375, 0.625, 0.875)]
TIES += [s * (2.0**50 + t) for s in (1, -1) for t in (0.25, 0.75, 3.25, 3.75)]
POW2_53 = [2.0**53, -(2.0**53), 2.0**53 + 2, 2.0**53 - 2, -(2.0**53 + 2)]
SIGNED_ZEROS = [0.5, -0.0, 0.0, -2.5, 0.0]
FLOAT_EDGE_BLOCKS = [POWERS, WINDOW_ENDS, TIES, POW2_53, SIGNED_ZEROS,
                     SIGNED_ZEROS + [5e-324], POWERS + OUTSIDE[:1], TIES + OUTSIDE[1:2]]


# cells %.17g prints in exponent form, as F1's waiting table holds them: float
# noise around w = 0, subnormals, |x| >= 1e17 and inf, with -0.0 beside them
EXPONENT_FORM = [1e-15, -1e-15, 2.0**-52, -(2.0**-54), 5e-324, -5e-324, 2.0**-1022,
                 math.nextafter(1e-4, 0), -math.nextafter(1e-4, 0), 1e17, -1e17,
                 math.nextafter(1e17, math.inf), sys.float_info.max, math.inf, -0.0]


class TestWriter:
    @pytest.mark.parametrize("top", sorted({abs(e) for e in EDGES}))
    def test_integer_edges(self, tmp_path, top):
        # one block whose largest magnitude is top, holding every smaller
        # edge, as one column and as one row, written as an integer block
        # and as float blocks
        cells = np.array([e for e in EDGES if abs(e) <= top], dtype=np.float64)
        path = tmp_path / "m.csv"
        for rows in (cells[:, None], cells[None, :]):
            for exact in (True, None):
                _write_measure(rows, "d", path, exact)
                assert path.read_text() == reference_csv(rows, "d")

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.sampled_from([1, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 5]),
        n=st.sampled_from([1, 2, 5, 16]),
        widths=st.lists(st.integers(1, 16), min_size=1, max_size=16, unique=True),
        edges=st.lists(st.sampled_from([0, 2**32 - 1, 2**32, 2**53 - 1]), max_size=6),
        negative=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(K=2 * _CHUNK_ROWS + 5, n=16, widths=list(range(1, 17)),
             edges=[0, 2**32 - 1, 2**32, 2**53 - 1], negative=0.3, seed=0)
    @example(K=1, n=1, widths=[16], edges=[2**53 - 1], negative=1.0, seed=0)
    def test_integer_blocks_drop_every_nul(self, K, n, widths, edges, negative, seed):
        # exact-integer blocks mixing the given digit widths (16 digits stay
        # below 2**53), a share of them negative, with edge cells among them:
        # the bytes left of each cell's width are NUL until compaction
        rng = np.random.default_rng(seed)
        d = rng.choice(widths, size=(K, n))
        rows = rng.integers(10 ** (d - 1), np.minimum(10**d, 2**53))
        rows.flat[rng.choice(rows.size, min(len(edges), rows.size), replace=False)] = \
            edges[:rows.size]
        rows = np.where(rng.random((K, n)) < negative, -rows, rows).astype(np.float64)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            _write_measure(rows, "d", path, exact=True)
            data = path.read_bytes()
        assert b"\0" not in data
        assert data == reference_csv(rows, "d").encode()

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.sampled_from([1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                           2 * _CHUNK_ROWS + 5, 3 * _CHUNK_ROWS]),
        n=st.integers(1, 4),
        chunks=st.lists(st.tuples(st.sampled_from(["integer", "float", "mixed"]),
                                  st.sampled_from(TRICKY)), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        exact=st.sampled_from([None, True]),
    )
    # the two integer-valued cells the integer digits would print wrongly, which
    # float blocks print as %.17g does
    @example(K=_CHUNK_ROWS + 1, n=3, chunks=[("integer", EPS), ("mixed", -0.0)] * 2, seed=0,
             exact=None)
    @example(K=_CHUNK_ROWS + 1, n=3, chunks=[("integer", EPS), ("mixed", 1e17)] * 2, seed=0,
             exact=None)
    @example(K=2 * _CHUNK_ROWS + 5, n=4, chunks=[("integer", EPS)] * 4, seed=0, exact=True)
    def test_byte_identical_to_per_cell_writer(self, K, n, chunks, seed, exact):
        # each chunk is all exact integers, all non-integer or tricky
        # values, or one tricky value among integers.  Given exact, every
        # chunk is integer, of 1-16 digits and either sign (below 2**53,
        # no -0.0), and the table is also written as one unchecked block
        rng = np.random.default_rng(seed)
        rows = rng.integers(-10**6, 10**6, size=(K, n)).astype(np.float64)
        if exact:
            chunks = [("integer", tricky) for _, tricky in chunks]
            d = rng.integers(1, 17, size=(K, n))
            rows = rng.integers(10 ** (d - 1), np.minimum(10**d, 2**53)).astype(np.float64)
            rows[rng.random((K, n)) < 0.5] *= -1
        for (kind, tricky), k0 in zip(chunks * 3, range(0, K, _CHUNK_ROWS)):
            block = rows[k0:k0 + _CHUNK_ROWS]
            if kind == "integer":
                block[rng.random(block.shape) < 0.1] = rng.choice(EXACT)
            elif kind == "float":
                block[:] = rng.choice(TRICKY + [rng.normal()], size=block.shape)
            else:
                block.flat[rng.integers(block.size)] = tricky
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            _write_measure(rows, "d", path)
            text = path.read_text()
            if exact:
                _write_measure(rows, "d", path, exact)
                assert path.read_text() == text
        assert text == reference_csv(rows, "d")

    @settings(max_examples=80, deadline=None)
    @given(
        cells=st.lists(st.one_of(st.floats(1e-4, 1e17, exclude_max=True),
                                 st.floats(-1e17, -1e-4, exclude_min=True),
                                 st.sampled_from(POWERS + WINDOW_ENDS + TIES + POW2_53
                                                 + SIGNED_ZEROS)),
                       min_size=1, max_size=120),
        outside=st.sampled_from([None] + OUTSIDE),
        n=st.integers(1, 5),
    )
    @example(cells=POWERS, outside=None, n=3)
    @example(cells=WINDOW_ENDS, outside=None, n=1)
    @example(cells=WINDOW_ENDS, outside=math.nextafter(1e-4, 0), n=2)
    @example(cells=WINDOW_ENDS, outside=1e17, n=2)
    @example(cells=TIES, outside=None, n=4)
    @example(cells=POW2_53, outside=None, n=5)
    @example(cells=SIGNED_ZEROS, outside=None, n=2)
    @example(cells=SIGNED_ZEROS, outside=5e-324, n=2)
    @example(cells=[0.1, 2.5, 1e-5, 1e17, 7.0], outside=None, n=5)
    def test_float_blocks_byte_identical_to_per_cell_writer(self, cells, outside, n):
        # a float block whose cells are 0 or 1e-4 <= |x| < 1e17, or with one
        # cell outside that window; the k column joins each block
        cells = cells + ([] if outside is None else [outside])
        rows = np.resize(np.array(cells, dtype=np.float64), (-(-len(cells) // n), n))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            _write_measure(rows, "d", path)
            assert path.read_text() == reference_csv(rows, "d")

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.one_of(st.sampled_from(EXPONENT_FORM),
                                 st.floats(-1e-4, 1e-4, exclude_min=True, exclude_max=True),
                                 st.floats(min_value=1e17), st.floats(max_value=-1e17)),
                       min_size=2, max_size=60),
        n=st.integers(1, 8),
        K=st.sampled_from([1, 40, _CHUNK_ROWS, _CHUNK_ROWS + 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(cells=EXPONENT_FORM, n=8, K=_CHUNK_ROWS + 3, seed=0)
    def test_exponent_form_cells_spliced_into_their_block(self, cells, n, K, seed):
        # several exponent-form cells among fixed-notation floats, the most
        # of them in one block
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-5, 5, (K, n))
        spots = rng.choice(min(rows.size, _CHUNK_ROWS * n), min(len(cells), rows.size), replace=False)
        rows.flat[spots] = cells[:len(spots)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            _write_measure(rows, "d", path)
            assert path.read_text() == reference_csv(rows, "d")

    def test_exact_rows_keep_their_sign_bits(self):
        # rows given as exact are one block, unchecked: each sign, -0.0's
        # too, comes from signbit, as in %.17g
        fh = io.StringIO()
        rows = np.array([[-0.0, 3.0, -7.0], [0.0, -0.0, 2.0**53 - 1]])
        _write_rows(fh, rows, 4, exact=True)
        assert fh.getvalue() == "5,-0,3,-7\n6,0,-0,9007199254740991\n"

    def test_float_blocks_raise_no_warning(self, tmp_path):
        # a first exponent guess one off near 10**j or 1e17 must not index
        # or cast out of range; log-uniform cells with their neighbours
        # cover the rest of the window
        rng = np.random.default_rng(5)
        wide = 10.0 ** rng.uniform(-4, 17, 4000)
        wide = np.concatenate((wide, np.nextafter(wide, 0), np.nextafter(wide, np.inf)))
        wide = wide[wide < 1e17]
        path = tmp_path / "m.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cells in FLOAT_EDGE_BLOCKS + [wide.tolist()]:
                for rows in (np.array(cells)[:, None], np.array(cells)[None, :]):
                    _write_measure(rows, "d", path)
                    assert path.read_text() == reference_csv(rows, "d")


C = cli._CHUNK
STREAM_MODELS = [
    {"variant": "closed", "c": 1}, {"variant": "closed", "c": 2}, {"variant": "open_infinite"},
    {"variant": "open_mfg", "b": 0}, {"variant": "open_mfg", "b": 2},
    {"variant": "open_comm", "b": 0}, {"variant": "open_comm", "b": 3},
]


# the families of perfbench's variant-grid workload
GRID_MODELS = [
    {"variant": "closed", "c": 1}, {"variant": "closed", "c": 2}, {"variant": "open_infinite"},
    {"variant": "open_mfg", "b": 0}, {"variant": "open_mfg", "b": 2},
    {"variant": "open_comm", "b": 0}, {"variant": "open_comm", "b": 1},
]


def stream(tmp_path, **doc):
    """Run ``simulate`` on a config; return its exit code and its tables'
    paths by measure."""
    out = tmp_path / "r.csv"
    cfg = tmp_path / "c.json"
    cfg.write_text(make_config(output=str(out), **doc))
    paths = {"departures": out, "sojourn": tmp_path / "r_sojourn.csv",
             "waiting": tmp_path / "r_waiting.csv"}
    return main(["simulate", "--config", str(cfg)]), paths


def assert_streamed_bytes(paths, config):
    """Each streamed table is the .17g text of the whole-run table:
    ``simulate``'s departures and ``trajectory_sojourn``/``_waiting``."""
    spec = config.spec
    tau = config.source.sample(spec.n, spec.horizon)
    states = simulate(spec, tau).states
    tables = {"departures": lambda: states[1:], "sojourn": lambda: trajectory_sojourn(states),
              "waiting": lambda: trajectory_waiting(states, tau)}
    for m in config.measures:
        assert paths[m].read_text() == reference_csv(tables[m](), m[0])
    assert not list(paths["departures"].parent.glob("*.part"))


def write_trace(tmp_path, tau):
    dump_trace(ServiceTimes(tau), tmp_path / "trace.csv")
    return {"kind": "trace", "path": str(tmp_path / "trace.csv")}


class TestStream:
    @pytest.mark.parametrize("K", [1, C - 1, C, C + 1, 2 * C + 5])
    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("model", STREAM_MODELS, ids=lambda m: "-".join(map(str, m.values())))
    def test_streamed_bytes_across_chunk_edges(self, tmp_path, model, integer, K):
        """simulate runs _CHUNK customers at a time and writes each table's
        bytes as the whole run's: every variant, both kinds of tau, and K
        on both sides of the chunk edges."""
        measures = ["departures"] if model["variant"] == "closed" else list(cli.MEASURES)
        source = {"kind": "uniform", "low": 0, "high": 5, "seed": 3, "integer_times": integer}
        code, paths = stream(tmp_path, **model, n=3, K=K, measures=measures, source=source)
        assert code == 0
        assert_streamed_bytes(paths, parse_config(make_config(**model, n=3, K=K, measures=measures,
                                                              source=source)))

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("model,n,K", [(m, 3, K) for m in STREAM_MODELS
                                           for K in (1, C - 1, C, C + 1, 2 * C + 5)]
                             + [({"variant": "open_mfg", "b": 511}, 2, 3)],
                             ids=lambda x: "-".join(map(str, x.values())) if isinstance(x, dict)
                             else str(x))
    def test_validate_lines_across_chunk_edges(self, capsys, model, n, K, integer, trials):
        """validate steps each trial _CHUNK customers at a time, and its
        line is the whole-trial reference's: every variant, both kinds of
        tau, K on both sides of the chunk edges, and m = 1024, the largest
        m it checks."""
        config = parse_config(make_config(**model, n=n, K=K, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 3, "integer_times": integer}))
        assert validate(config, trials) == 0
        assert capsys.readouterr().out == reference_validate(config, trials)

    @pytest.mark.parametrize("fault", ["scan", "T_k", "both"])
    def test_validate_faults_in_later_chunks(self, capsys, monkeypatch, fault):
        """A scan fault in chunk 2 of trial 1, a fault of T_K, in the last
        chunk of trial 1, or both: validate's one line is the whole-trial
        reference's, the scan's when both fail."""
        K = 2 * C + 5
        config = parse_config(make_config(n=3, K=K, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 3, "integer_times": True}))
        tau_k = replace(config.source, seed=4).sample(3, K).tau[:, [0, -1]]
        assert (tau_k[:, 0] != tau_k[:, 1]).any()  # tau_1 is not tau_K: T_1 is right

        def wrong(spec, v):  # row i = 2 of trial 1's T_K raised by 1
            top = _TRANSITIONS(spec, v)
            top[(v == tau_k[:, 1]).all(-1), 1] += 1.0
            return top

        top_rows = None
        if fault != "scan":
            monkeypatch.setattr(engine, "_transitions", wrong)
            top_rows = lambda v: wrong(config.spec, v[None])[0]  # noqa: E731
        cells = [] if fault == "T_k" else [(1, C + 9, 1)]
        monkeypatch.setattr(engine, "_prefix_scan", ScanFault(K, cells))
        assert validate(config, trials=3) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"state equation fails at k={K} i=2: " if fault == "T_k"
                              else f"mismatch at k={C + 9} i=2: ")
        assert out.endswith("(trial 1)\n")
        monkeypatch.setattr(engine, "_prefix_scan", ScanFault(K, cells))
        assert out == reference_validate(config, 3, top_rows)

    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("model", [{"variant": "open_infinite"},
                                       {"variant": "open_comm", "b": 3}],
                             ids=lambda m: "-".join(map(str, m.values())))
    def test_validate_on_a_trace(self, tmp_path, capsys, monkeypatch, model, integer):
        """validate on a trace of K = 2 _CHUNK + 5 customers runs one trial,
        in chunks sliced from the table loaded whole: its line is the
        whole-trial reference's and its generated twin's, one trial on the
        seed the trace was dumped from; also with faults in the last chunk,
        the scan off at k = 2 _CHUNK + 3 and row 2 of T_K off by one, a line
        that names the scan's values there, or else T_K's, which depend on
        the tau of every chunk even where the ok line's gap and bound are 0."""
        K = 2 * C + 5
        twin = parse_config(make_config(**model, n=3, K=K, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 3, "integer_times": integer}))
        tau = twin.source.sample(3, K).tau
        steps = sorted({1, twin.spec.arity // 3, K})
        assert all((tau[:, k - 1] != tau[:, -1]).any() for k in steps[:-1])  # T_K alone is off

        def wrong(spec, v):
            top = _TRANSITIONS(spec, v)
            top[(v == tau[:, -1]).all(-1), 1] += 1.0
            return top

        source = write_trace(tmp_path, tau)
        trace = parse_config(make_config(**model, n=3, K=K, source=source))
        for cells, fault in (([], False), ([(0, 2 * C + 3, 1)], True)):
            monkeypatch.setattr(engine, "_transitions", wrong if fault else _TRANSITIONS)
            top_rows = (lambda v: wrong(trace.spec, v[None])[0]) if fault else None
            runs = [lambda: validate(trace, trials=10), lambda: validate(twin, trials=1),
                    lambda: print(reference_validate(trace, 1, top_rows), end="")]
            lines = []
            for run in runs:
                monkeypatch.setattr(engine, "_prefix_scan", ScanFault(K, cells))
                code = run()
                lines.append(capsys.readouterr().out)
                ok = lines[-1].startswith("validate: ok (1 trial(s), ")
                assert code in (None, 0 if ok else 1)
            assert lines[0] == lines[1] == lines[2]
        scanned = integer and model["variant"] == "open_infinite"
        assert lines[0].startswith(f"mismatch at k={2 * C + 3} i=2: " if scanned
                                   else f"state equation fails at k={K} i=2: ")

    @pytest.mark.parametrize("K", [200, 400])
    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("model", GRID_MODELS, ids=lambda m: "-".join(map(str, m.values())))
    def test_validate_lines_across_group_edges(self, capsys, model, integer, K):
        """validate samples and builds as many whole trials as fit in one
        chunk's cells, G = _CHUNK // (K + len(steps) m), at once: its line
        and exit code are the whole-trial reference's for T = 1, G - 1, G,
        G + 1 and 2 G + 1 trials, at n = 8 on every variant of the grid,
        both kinds of tau, K = 200 (G = 2 or 3) and K = 400 (G = 1)."""
        config = parse_config(make_config(**model, n=8, K=K, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 3, "integer_times": integer}))
        m = config.spec.arity
        steps = {1, m // 8, K}
        G = max(1, C // (K + len(steps) * m))
        assert G == ((2 if m == 24 else 3) if K == 200 else 1)
        for trials in sorted({1, G - 1, G, G + 1, 2 * G + 1} - {0}):
            code = validate(config, trials)
            out = capsys.readouterr().out
            assert out == reference_validate(config, trials)
            assert code == (0 if out.startswith("validate: ok") else 1)

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 6])
    def test_validate_faults_across_group_edges(self, capsys, monkeypatch, t):
        """A scan fault in trial t of 7, G = 3 to a group, or a T_k fault in
        every trial: the one line is the reference's and names trial t, or
        trial 0, the first to run."""
        config = parse_config(make_config(n=8, K=200, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 3, "integer_times": True}))
        monkeypatch.setattr(engine, "_prefix_scan", ScanFault(200, [(t, 150, 4)]))
        assert validate(config, trials=7) == 1
        out = capsys.readouterr().out
        assert out.startswith("mismatch at k=150 i=5: ") and out.endswith(f"(trial {t})\n")
        monkeypatch.setattr(engine, "_prefix_scan", ScanFault(200, [(t, 150, 4)]))
        assert out == reference_validate(config, 7)
        comm = parse_config(make_config(variant="open_comm", b=1, n=8, K=200, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 3 + t}))
        monkeypatch.setattr(engine, "_transitions", wrong_transitions)
        assert validate(comm, trials=7) == 1
        out = capsys.readouterr().out
        assert out.startswith("state equation fails at ") and out.endswith("(trial 0)\n")
        top_rows = lambda v: wrong_transitions(comm.spec, v[None])[0]  # noqa: E731
        assert out == reference_validate(comm, 7, top_rows)

    def test_validate_builds_at_most_one_chunks_cells(self, capsys, monkeypatch):
        """No ``_transitions`` call of validate holds more than one chunk's
        cells of service times and top rows, whatever the variant; at
        m = 1024 a trial's top rows pass that, so each trial is a group of
        its own."""
        built, real = [], engine._transitions

        def counting(spec, v):  # v: (trials, steps, n) service vectors
            built.append((spec, v.shape))
            return real(spec, v)

        monkeypatch.setattr(engine, "_transitions", counting)
        for model in GRID_MODELS:
            config = parse_config(make_config(**model, n=8, K=200, source={
                "kind": "uniform", "low": 0, "high": 5, "seed": 1}))
            assert validate(config, trials=10) == 0
        assert len(built) == 6 * 4 + 5  # groups of 3, 3, 3 and 1 trials; of 2 at m = 24
        for spec, shape in built:
            g, steps, _ = shape
            assert g * (spec.horizon + steps * spec.arity) <= C
        capsys.readouterr()
        built.clear()
        config = parse_config(make_config(variant="open_mfg", b=511, n=2, K=3, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 1}))
        assert validate(config, trials=10) == 0
        assert ", state equation at k=1,3, " in capsys.readouterr().out
        assert [shape for _, shape in built] == [(1, 2, 2)] * 10

    @pytest.mark.parametrize("late", ["half", "past 2**53"])
    def test_exactness_is_carried_chunk_by_chunk(self, tmp_path, monkeypatch, late):
        """open_infinite runs the prefix scan on a chunk only while all tau
        so far is exact: integer tau in chunk 1, then a cell of 0.5 in
        chunk 2, or 2**52 in chunks 1 and 2, whose sums each stay below
        2**53 while the running sum passes it.  From there the chunks take
        the scalar loop, and the bytes are the whole run's, which takes the
        scalar loop throughout."""
        n, K = 3, 2 * C + 5
        tau = np.random.default_rng(4).integers(0, 6, (n, K)).astype(float)
        if late == "half":
            tau[1, C + 7] = 0.5
        else:
            tau[1, [7, C + 7]] = 2.0**52
            assert tau[:, :C].sum() < 2**53 and tau[:, C:2 * C].sum() < 2**53
        source = write_trace(tmp_path, tau)
        kernels = []
        for name in ("_prefix_scan", "_lindley"):
            real = getattr(engine, name)
            monkeypatch.setattr(engine, name, lambda *a, real=real, name=name:
                                kernels.append(name) or real(*a))
        code, paths = stream(tmp_path, n=n, K=K, measures=list(cli.MEASURES), source=source)
        assert code == 0
        assert kernels == ["_prefix_scan", "_lindley", "_lindley"]
        config = parse_config(make_config(n=n, K=K, measures=list(cli.MEASURES), source=source))
        assert not config.source.sample(n, K).exact
        assert_streamed_bytes(paths, config)

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(STREAM_MODELS),
        measures=st.sets(st.sampled_from(cli.MEASURES), min_size=1),
        n=st.integers(2, 4),
        K=st.sampled_from([1, C - 1, C, C + 1, 2 * C + 5]),
        zeros=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(model={"variant": "open_comm", "b": 1}, measures={"waiting"}, n=4, K=2 * C + 5,
             zeros=0.5, seed=0)
    @example(model={"variant": "open_mfg", "b": 2}, measures={"departures"}, n=3, K=2 * C + 5,
             zeros=0.1, seed=1)
    @example(model={"variant": "open_comm", "b": 3}, measures={"departures"}, n=4, K=C + 1,
             zeros=0.5, seed=2)
    @example(model={"variant": "closed", "c": 2}, measures={"departures"}, n=4, K=2 * C + 5,
             zeros=0.1, seed=3)
    def test_exact_chunks_byte_identical(self, model, measures, n, K, zeros, seed):
        """Every run tracks exactness, and writes each chunk of exact tau as
        one unchecked integer block, whatever its variant and tables (the
        closed variant's are its departures), and the bytes are the per-cell
        writer's: integer tau with some -0.0 cells, and K on both sides of
        the chunk edges."""
        if model["variant"] == "closed":
            measures = {"departures"}
        measures = [m for m in cli.MEASURES if m in measures]
        rng = np.random.default_rng(seed)
        tau = rng.integers(0, 6, (n, K)).astype(float)
        tau[rng.random((n, K)) < zeros] = -0.0
        flags = []
        real = cli._write_rows
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_write_rows", lambda fh, rows, k0, exact:
                       flags.append(exact) or real(fh, rows, k0, exact))
            source = write_trace(Path(tmp), tau)
            code, paths = stream(Path(tmp), **model, n=n, K=K, measures=measures, source=source)
            assert code == 0
            assert flags == [True] * (len(measures) * -(-K // C))
            assert_streamed_bytes(paths, parse_config(make_config(
                **model, n=n, K=K, measures=measures, source=source)))

    @pytest.mark.parametrize("late", [False, True], ids=["exact", "past 2**53"])
    @pytest.mark.parametrize("model", [{"variant": "open_infinite"},
                                       {"variant": "open_mfg", "b": 2},
                                       {"variant": "open_comm", "b": 1}],
                             ids=lambda m: "-".join(map(str, m.values())))
    def test_exact_chunks_hold_integers_below_2_53(self, tmp_path, monkeypatch, model, late):
        """The writer trusts the carry: after each ``_step_block`` that
        leaves ``carry.exact`` true, every cell of that chunk's three
        tables passes the checked blocks' integer rule.  With 2**52 in
        chunks 1 and 2, the running sum passes 2**53 in chunk 2, whose
        departures pass it too; from there the chunks are checked."""
        n, K = 3, 2 * C + 5
        tau = np.random.default_rng(6).integers(0, 6, (n, K)).astype(float)
        if late:
            tau[1, [7, C + 7]] = 2.0**52
        source = write_trace(tmp_path, tau)
        exact, written = [], []
        real_step, real_write = cli._step_block, cli._write_rows

        def step(*args):
            carry, states = real_step(*args)
            exact.append(carry.exact)
            return carry, states

        def write(fh, rows, k0, flag):
            written.append((len(exact) - 1, k0, flag, rows.copy()))
            real_write(fh, rows, k0, flag)

        monkeypatch.setattr(cli, "_step_block", step)
        monkeypatch.setattr(cli, "_write_rows", write)
        code, paths = stream(tmp_path, **model, n=n, K=K, measures=list(cli.MEASURES),
                             source=source)
        assert code == 0
        assert exact == ([True, False, False] if late else [True] * 3)
        assert [(c, k0) for c, k0, _, _ in written] == [(c, c * C) for c in range(3) for _ in "dsw"]
        for c, _, flag, rows in written:
            assert flag is exact[c]
            a = np.abs(rows)
            integer = (a < 2.0**53) & (a == np.rint(a)) & ((a != 0) | ~np.signbit(rows))
            assert integer.all() or not flag
        if late:
            assert (written[3][3] >= 2.0**53).any()  # chunk 2's departures
        assert_streamed_bytes(paths, parse_config(make_config(
            **model, n=n, K=K, measures=list(cli.MEASURES), source=source)))

    @pytest.mark.parametrize("integer_times", [True, False])
    def test_memory_stays_bounded(self, tmp_path, capsys, integer_times):
        """The traced peak of one simulate at K = 20 _CHUNK (n = 16, all
        three tables), and of one validate trial, stays within 1.25 times
        its peak at K = _CHUNK."""
        source = {"kind": "uniform", "low": 0, "high": 5, "seed": 1, "integer_times": integer_times}
        for argv in (["simulate"], ["validate", "--trials", "1"]):
            peaks = []
            for K in (C, 20 * C):
                cfg = tmp_path / f"c{K}.json"
                cfg.write_text(make_config(n=16, K=K, measures=list(cli.MEASURES), source=source,
                                           output=str(tmp_path / "r.csv")))
                assert main([*argv, "--config", str(cfg)]) == 0  # warm
                tracemalloc.start()
                try:
                    assert main([*argv, "--config", str(cfg)]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] < 1.25 * peaks[0], (argv, peaks)
        capsys.readouterr()

    @pytest.mark.parametrize("model", [{"variant": "open_infinite"},
                                       {"variant": "open_comm", "b": 1},
                                       {"variant": "closed", "c": 2}])
    def test_overflow_in_a_later_chunk(self, tmp_path, capsys, model):
        """A departure that first overflows in chunk 2: exit 2 with the
        whole run's line, no table or .part left, and a file already at
        the output path untouched."""
        n, K = 3, 2 * C + 5
        tau = np.ones((n, K))
        tau[:, C + 9:] = 1e308
        source = write_trace(tmp_path, tau)
        config = parse_config(make_config(**model, n=n, K=K, source=source))
        with pytest.raises(ModelConfigError) as want:
            simulate(config.spec, config.source.sample(n, K))
        assert re.fullmatch(r"departure d_\d\(\d+\) overflows float64", str(want.value))
        (tmp_path / "r.csv").write_text("keep\n")
        measures = ["departures"] if model["variant"] == "closed" else list(cli.MEASURES)
        code, paths = stream(tmp_path, **model, n=n, K=K, measures=measures, source=source)
        assert code == 2
        assert capsys.readouterr() == ("", f"configuration error: {want.value}\n")
        assert paths["departures"].read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "r.csv", "trace.csv"]

    def test_negative_waiting_in_a_later_chunk(self, tmp_path, capsys, monkeypatch):
        """A waiting time below its bound in chunk 2, here one corrupted
        cell, is one stderr line and exit 1, not a traceback, and leaves
        no table: not even the departures and sojourn tables, whose chunks
        were all written."""
        real, calls = cli._waiting, []

        def corrupted(s, tau):
            w = real(s, tau)
            calls.append(len(s))
            if len(calls) == 2:  # chunk 2: customers C + 1, ...
                w[5, 1] = -1.0
            return w

        monkeypatch.setattr(cli, "_waiting", corrupted)
        source = {"kind": "uniform", "low": 0, "high": 5, "seed": 1, "integer_times": True}
        code, paths = stream(tmp_path, n=3, K=3 * C, measures=list(cli.MEASURES), source=source)
        assert code == 1
        assert capsys.readouterr() == (
            "", f"consistency error: negative waiting time w_2({C + 6}) = -1.0\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


class TestMainExitCodes:
    def test_success(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(output=str(tmp_path / "d.csv")))
        assert main(["simulate", "--config", str(cfg)]) == 0

    def test_config_error_is_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(variant="open_mfg", b=0, strategy="sparse-closed"))
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_overrides_parsed_with_the_document(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(variant="closed", n=2))
        assert main(["simulate", "--config", str(cfg), "--measures", "sojourn"]) == 2
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_zero_processors_override_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(strategy="batched", processors=2,
                                   output=str(tmp_path / "d.csv")))
        assert main(["simulate", "--config", str(cfg), "--processors", "0"]) == 2
        assert capsys.readouterr().err == "configuration error: 'processors' must be >= 1\n"
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_rejected(self, tmp_path, capsys, trials):
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config())
        assert main(["validate", "--config", str(cfg), "--trials", trials]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "configuration error: '--trials' must be >= 1\n"

    def test_unallocatable_run_is_a_config_error(self, tmp_path):
        # n x K doubles are 6.94 EiB, so the first allocation fails at once;
        # the run goes in a child process under a 1 GiB address-space limit,
        # so a regression that allocates less, but too much, fails there
        # instead of exhausting the host's memory
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"variant": "open_infinite", "n": 1000000000, "K": 1000000000,
                                   "source": {"kind": "constant", "value": 1}}))
        child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                 "from tandemax.cli import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", child, "simulate", "--config", str(cfg)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("configuration error: n x K = 1000000000 x 1000000000 ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("model", [
        # n past numpy's largest dimension, and an n x K table past its largest size
        {"n": 10**23, "K": 3, "source": {"kind": "constant", "value": 1}},
        {"n": 2, "K": 10**23, "source": {"kind": "uniform", "low": 0, "high": 1}},
    ], ids=["n", "K"])
    def test_beyond_numpy_array_limits_is_a_config_error(self, tmp_path, capsys, command, model):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"variant": "open_infinite", **model}))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"configuration error: n x K = {model['n']} x {model['K']} "
                                "cells do not fit in memory (more than numpy's largest array)\n")

    def test_unallocatable_bench_is_a_config_error(self, capsys):
        # the vector route's m x m matrix of 10**24 doubles passes numpy's largest array
        assert main(["bench", "--n-list", "1000000000000", "--k-list", "1", "--p-list", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "configuration error: m x m = 1000000000000 x 1000000000000 transition-matrix "
            "cells do not fit in memory (more than numpy's largest array)\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("model,m", [
        ({"variant": "open_mfg", "n": 2, "b": 10**30}, 2 * (10**30 + 1)),
        ({"variant": "closed", "n": 200, "c": 10**8}, 200 * 10**8),
    ], ids=["huge-b", "huge-c"])
    def test_dense_matrix_beyond_numpy_array_limits_is_a_config_error(
            self, tmp_path, capsys, command, model, m):
        out = tmp_path / "d.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(**model, K=3, strategy="vector", output=str(out)))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"configuration error: m x m = {m} x {m} transition-matrix cells do not fit "
            "in memory (more than numpy's largest array)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_overflowing_departures_are_a_config_error(self, tmp_path, capsys, command):
        # d_2(1) = 1e308 + 1e308 overflows to +inf
        out = tmp_path / "d.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(K=4, source={"kind": "constant", "value": 1e308},
                                   output=str(out)))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: departure d_2(1) overflows float64\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_errors_come_in_customer_order(self, tmp_path, capsys, monkeypatch, command):
        """Both commands stream, so a departure that overflows in chunk 1
        is reported, and a service time that is not finite in chunk 2 is
        never reached: one stderr line, exit 2."""
        draws = ServiceTimeSource._draws

        def inf_in_chunk_2(self, n, horizon, k0=0, trials=1):
            tau = draws(self, n, horizon, k0, trials)
            assert tau.shape == (1, 3, cli._CHUNK)  # one trial, alone: it streams
            if k0 == cli._CHUNK:
                tau[0, 0, 5] = np.inf
            return tau

        monkeypatch.setattr(ServiceTimeSource, "_draws", inf_in_chunk_2)
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(K=2 * cli._CHUNK, output=str(tmp_path / "d.csv"), source={
            "kind": "uniform", "low": 1e308, "high": 1e308}))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr() == (
            "", "configuration error: departure d_2(1) overflows float64\n")

    @pytest.mark.parametrize("command,strategy", [("simulate", "vector"),
                                                  ("simulate", "batched"),
                                                  ("validate", "vector")])
    @pytest.mark.parametrize("model,value,message", [
        # d_2(1) = tau_1 + tau_2, or d_1(2) = d_1(1) + tau_1
        pytest.param({"n": 3, "K": 4}, 1e308, "departure d_2(1) overflows float64", id="sum"),
        pytest.param({"n": 1, "K": 4}, 1e308, "departure d_1(2) overflows float64",
                     id="product"),
        # d_2(2) = 3 x 6e307 under communication blocking
        pytest.param({"variant": "open_comm", "b": 1, "n": 2, "K": 6}, 6e307,
                     "departure d_2(2) overflows float64", id="augmented"),
    ])
    def test_overflow_on_dense_routes_is_a_config_error(self, tmp_path, capsys, command,
                                                        strategy, model, value, message):
        """vector and batched, whose cost models are the dense algorithms,
        run serial's kernel and print serial's one line for the first
        departure that overflows."""
        out = tmp_path / "d.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(**model, strategy=strategy, output=str(out),
                                   source={"kind": "constant", "value": value}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("strategy", ["vector", "batched"])
    def test_overflow_precedence_within_a_build(self, tmp_path, capsys, strategy):
        """tau_3 = 1e308 would overflow a prefix sum of T_3, but the
        departure d_2(2) = 3 x 6e307 overflows first, so vector and batched
        with P = 3 print serial's one line for it and warn of nothing."""
        tau = np.ones((2, 6))
        tau[:, :2] = 6e307
        tau[:, 2] = 1e308
        dump_trace(ServiceTimes(tau), tmp_path / "trace.csv")
        out = tmp_path / "d.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(variant="open_comm", b=1, n=2, K=6, strategy=strategy,
                                   processors=3, output=str(out),
                                   source={"kind": "trace", "path": str(tmp_path / "trace.csv")}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: departure d_2(2) overflows float64\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_overflowing_samples_are_a_config_error(self, tmp_path, capsys, command):
        # -log1p(-u) / 1e-320 overflows to +inf for every u above about 1e-12
        out = tmp_path / "d.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(n=2, K=3, output=str(out),
                                   source={"kind": "exponential", "rate": 1e-320}))
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: service times must be finite and >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["config", "trace"])
    def test_non_utf8_file_is_a_config_error(self, tmp_path, capsys, bad):
        cfg = tmp_path / "c.json"
        trace = tmp_path / "t.csv"
        trace.write_bytes(b"k,i,tau\n1,1,\xff\n")
        if bad == "config":
            cfg.write_bytes(b'{"variant":"\xff"}')
        else:
            cfg.write_text(make_config(n=1, K=1, source={"kind": "trace", "path": str(trace)}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        path = cfg if bad == "config" else trace
        assert capsys.readouterr().err == (
            f"configuration error: {path}: not valid UTF-8 (invalid start byte)\n")

    def test_cached_parser_keeps_no_state(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(output=str(tmp_path / "d.csv")))
        assert main(["simulate", "--config", str(cfg), "--count-ops"]) == 0
        assert "scalar_otimes" in capsys.readouterr().out
        ops = tmp_path / "d_ops.txt"
        ops.unlink()
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        assert not ops.exists()

    @pytest.mark.parametrize("output", ["", ".", "/"])
    @pytest.mark.parametrize("command,flag", [("simulate", False), ("validate", False),
                                              ("simulate", True)])
    def test_output_without_file_name_rejected(self, tmp_path, capsys, command, flag, output):
        """An output with no file name, from the config or from --out,
        leaves nothing to name the tables after: one stderr line, exit 2,
        before anything runs."""
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(n=2, K=3, measures=["sojourn", "waiting"],
                                   output=str(tmp_path / "d.csv") if flag else output))
        assert main([command, "--config", str(cfg)] + (["--out", output] if flag else [])) == 2
        err = f"configuration error: 'output' must end in a file name, got {output!r}\n"
        assert capsys.readouterr() == ("", err)
        assert list(tmp_path.iterdir()) == [cfg]

    def test_io_error_is_3(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 3

    def test_validate_mismatch_is_1(self, tmp_path, monkeypatch):
        # force a mismatch by corrupting the prefix scan
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config())
        monkeypatch.setattr(engine, "_prefix_scan", ScanFault(10, [(0, 1, 0)]))
        assert main(["validate", "--config", str(cfg), "--trials", "1"]) == 1

    def test_bench(self, tmp_path, monkeypatch):
        """bench reads the cost model only: no service time is sampled
        and no strategy runs."""
        import tandemax.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("bench must not sample or simulate")

        monkeypatch.setattr(cli, "_step_block", forbidden)
        monkeypatch.setattr(ServiceTimeSource, "sample", forbidden)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--n-list", "2,3", "--k-list", "5",
                     "--p-list", "1,2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,K,P,L")
        assert len(lines) == 1 + 2 * 1 * 2

    def test_bench_sums_log2_factorial_once_per_n(self, capsys, monkeypatch):
        """log2(n!) is a sum of n terms: bench takes it once per n, not
        once per (n, K, P) row."""
        import tandemax.engine as engine

        real, calls = math.log2, []
        monkeypatch.setattr(math, "log2", lambda x: calls.append(x) or real(x))
        engine._log2_factorial.cache_clear()
        assert main(["bench", "--n-list", "29,31", "--k-list", "1,2",
                     "--p-list", "1,2,4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 2 * 3
        assert len(calls) == 29 + 31

    def test_bench_bytes(self, capsys):
        """The whole table on a grid with n = 1, P dividing K, P not
        dividing K and P > K."""
        assert main(["bench", "--n-list", "1,2,3,8,33", "--k-list", "1,7,100",
                     "--p-list", "1,3,8"]) == 0
        assert capsys.readouterr().out == BENCH_GRID


BENCH_GRID = """\
n,K,P,L,serial_ops,serial_formula,vector_build,vector_reduce,vector_reduce_ideal,batched_ops,batched_formula,sv_formula,sp_formula
1,1,1,1,2,2,1,1,1.000,3,3,4.000,0.600
1,1,3,1,2,2,1,1,1.000,3,7,4.000,1.800
1,1,8,1,2,2,1,1,1.000,3,17,4.000,4.800
1,7,1,7,14,14,7,7,7.000,21,21,4.000,0.600
1,7,3,3,14,14,7,7,7.000,17,21,4.000,1.800
1,7,8,1,14,14,7,7,7.000,15,17,4.000,4.800
1,100,1,100,200,200,100,100,100.000,300,300,4.000,0.600
1,100,3,34,200,200,100,100,100.000,234,238,4.000,1.800
1,100,8,13,200,200,100,100,100.000,213,221,4.000,4.800
2,1,1,1,7,7,2,3,3.000,7,7,5.600,0.600
2,1,3,1,7,7,2,3,3.000,7,15,5.600,1.800
2,1,8,1,7,7,2,3,3.000,7,35,5.600,4.800
2,7,1,7,49,49,14,21,21.000,49,49,5.600,0.600
2,7,3,3,49,49,14,21,21.000,37,45,5.600,1.800
2,7,8,1,49,49,14,21,21.000,31,35,5.600,4.800
2,100,1,100,700,700,200,300,300.000,700,700,5.600,0.600
2,100,3,34,700,700,200,300,300.000,502,510,5.600,1.800
2,100,8,13,700,700,200,300,300.000,439,455,5.600,4.800
3,1,1,1,15,15,3,6,5.585,12,12,6.989,0.600
3,1,3,1,15,15,3,6,5.585,12,24,6.989,1.800
3,1,8,1,15,15,3,6,5.585,12,54,6.989,4.800
3,7,1,7,105,105,21,42,39.095,84,84,6.989,0.600
3,7,3,3,105,105,21,42,39.095,60,72,6.989,1.800
3,7,8,1,105,105,21,42,39.095,48,54,6.989,4.800
3,100,1,100,1500,1500,300,600,558.496,1200,1200,6.989,0.600
3,100,3,34,1500,1500,300,600,558.496,804,816,6.989,1.800
3,100,8,13,1500,1500,300,600,558.496,678,702,6.989,4.800
8,1,1,1,100,100,8,25,23.299,52,52,12.780,0.600
8,1,3,1,100,100,8,25,23.299,52,84,12.780,1.800
8,1,8,1,100,100,8,25,23.299,52,164,12.780,4.800
8,7,1,7,700,700,56,175,163.094,364,364,12.780,0.600
8,7,3,3,700,700,56,175,163.094,220,252,12.780,1.800
8,7,8,1,700,700,56,175,163.094,148,164,12.780,4.800
8,100,1,100,10000,10000,800,2500,2329.921,5200,5200,12.780,0.600
8,100,3,34,10000,10000,800,2500,2329.921,2824,2856,12.780,1.800
8,100,8,13,10000,10000,800,2500,2329.921,2068,2132,12.780,4.800
33,1,1,1,1650,1650,33,168,155.708,627,627,34.975,0.600
33,1,3,1,1650,1650,33,168,155.708,627,759,34.975,1.800
33,1,8,1,1650,1650,33,168,155.708,627,1089,34.975,4.800
33,7,1,7,11550,11550,231,1176,1089.954,4389,4389,34.975,0.600
33,7,3,3,11550,11550,231,1176,1089.954,2145,2277,34.975,1.800
33,7,8,1,11550,11550,231,1176,1089.954,1023,1089,34.975,4.800
33,100,1,100,165000,165000,3300,16800,15570.766,62700,62700,34.975,0.600
33,100,3,34,165000,165000,3300,16800,15570.766,25674,25806,34.975,1.800
33,100,8,13,165000,165000,3300,16800,15570.766,13893,14157,34.975,4.800
"""
