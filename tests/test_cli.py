import functools
import json
import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemax import engine
from tandemax.cli import (
    _CHUNK_ROWS,
    ConfigError,
    _write_measure,
    build_parser,
    main,
    parse_config,
    run,
    validate,
)
from tandemax.core import EPS, matvec
from tandemax.engine import oracle_lindley, simulate, simulate_serial
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
    """u at one cell, from the generator on 0-d uint64 index arrays."""
    return float(_uniform01(seed, np.array(i, np.uint64), np.array(k, np.uint64)))


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


def state_equation_gap(config, trials):
    """The end of a serial validate's ok line, recomputed from the oracle,
    ``build_transition`` and ``matvec``: the largest gap between the first
    n entries of T_k (x) (d(k-1), ..., d(k-lag)), eps before k = 0, and the
    oracle's d(k) at k = 1, lag and K, the row-major first of its trial,
    with that trial's bound."""
    spec = config.spec
    n, K = spec.n, spec.horizon
    lag = spec.arity // n
    worst = (0.0, 0.0, 0, 0)
    for t in range(trials):
        tau = replace(config.source, seed=config.source.seed + t).sample(n, K)
        d = oracle_lindley(spec, tau).states
        top = (0.0, 1, 1)
        for k in sorted({1, min(lag, K), K}):
            state = np.concatenate([d[j] if j >= 0 else np.full(n, EPS)
                                    for j in range(k - 1, k - 1 - lag, -1)])
            row = matvec(build_transition(spec, tau.column(k)).readonly(), state)[:n]
            for i, gap in enumerate(np.abs(row - d[k]), 1):
                if gap > top[0]:
                    top = (float(gap), k, i)
        worst = max(worst, (top[0], tau.rounding_gap(d[1:]), *top[1:]))
    gap, bound, k, i = worst
    return f"max gap {gap:.3g} at k={k} i={i}, bound {bound:.3g})\n"


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
        import tandemax.cli as cli

        real, calls = cli.oracle_lindley, []
        monkeypatch.setattr(cli, "oracle_lindley",
                            lambda spec, tau: calls.append(tau) or real(spec, tau))
        assert validate(parse_config(make_config()), trials=10) == 0
        assert len(calls) == 1
        assert "validate: ok (1 trial(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("integer_times", [True, False])
    def test_exactness_decided_once_per_service_times(self, tmp_path, monkeypatch,
                                                      integer_times):
        """The kernel choice, the waiting check and the validate bound all
        read one ``ServiceTimes.exact``; a run that needs none of them
        never evaluates it."""
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
        cfg.write_text(make_config(variant="open_mfg", n=4, K=50, b=1, source=source,
                                   output=str(tmp_path / "d.csv")))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert calls == []

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
        assert "bound" in capsys.readouterr().out
        # the dense route sums in another order: the line names the cell
        # of the largest gap over both trials
        dense = replace(config, strategy="vector")
        assert validate(dense, trials=2) == 0
        line = capsys.readouterr().out
        gap, k, i = re.search(r"^validate: ok .* max gap (\S+) at k=(\d+) i=(\d+), bound", line).groups()
        gaps = []
        for t in range(2):
            tau = replace(config.source, seed=7 + t).sample(8, 200)
            gaps.append(np.abs(simulate(dense.spec, tau, "vector").departures()
                               - cli.oracle_lindley(config.spec, tau).departures()))
        worst = max(g.max() for g in gaps)
        assert worst > 0 and gap == f"{worst:.3g}"
        assert max(g[int(k) - 1, int(i) - 1] for g in gaps) == worst
        real = cli.oracle_lindley

        def nudged(spec, tau):
            traj = real(spec, tau)
            traj.states = traj.states.copy()
            traj.states[5, 3] += 1e-9
            return traj

        # a serial run's table is the oracle's own, so the route is the
        # dense one, here returning the oracle's table: the compare is exact
        monkeypatch.setattr(cli, "simulate", lambda spec, tau, *args: real(spec, tau))
        monkeypatch.setattr(cli, "oracle_lindley", nudged)
        assert validate(dense, trials=1) == 1
        assert "mismatch at k=5 i=4" in capsys.readouterr().out

    def test_validate_compares_in_row_blocks(self, capsys, monkeypatch):
        """The compare runs 256 rows at a time; the mismatch and the max-gap
        cell it names are still the row-major first, across and within
        blocks."""
        import tandemax.cli as cli

        config = parse_config(make_config(K=600, strategy="vector",
                                          source={"kind": "uniform", "low": 0, "high": 5,
                                                  "seed": 3}))
        real = cli.oracle_lindley
        # the dense route, returning the oracle's own table: the compare is exact
        monkeypatch.setattr(cli, "simulate", lambda spec, tau, *args: real(spec, tau))
        tau = config.source.sample(3, 600)
        bound = tau.rounding_gap(real(config.spec, tau).departures())
        step = 2.0 ** math.floor(math.log2(bound))  # exact on every departure

        def nudged(late):
            def oracle(spec, tau):
                traj = real(spec, tau)
                traj.states = traj.states.copy()
                traj.states[100, 1] += step / 2
                traj.states[[520, 590], [2, 0]] += late
                return traj
            return oracle

        for late, gap, cell in [(step, step, "k=520 i=3"), (step / 2, step / 2, "k=100 i=2")]:
            monkeypatch.setattr(cli, "oracle_lindley", nudged(late))
            assert validate(config, trials=1) == 0
            assert capsys.readouterr().out.endswith(
                f"max gap {gap:.3g} at {cell}, bound {bound:.3g})\n")
        monkeypatch.setattr(cli, "oracle_lindley", nudged(1.0))
        assert validate(config, trials=1) == 1
        assert capsys.readouterr().out.startswith("mismatch at k=520 i=3: ")

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
        assert out.endswith(", state equation at k=1,2,300, " + state_equation_gap(config, 3))
        real = engine._transitions

        def wrong(spec, v):
            a = real(spec, v)
            n = spec.n
            if spec.variant == "open_comm":  # S_k (x) T_k, not shifted by GT
                a[..., :n, 1 - n:] = real(TandemSpec("open_infinite", n, 1), v)[..., 1:]
            else:  # T_k (x) F^T in place of T_k (x) F
                diag = np.where(np.eye(n, dtype=bool), v[..., None, :], EPS)
                a[..., :n, -n:] = np.roll(diag, 1, axis=-1)
            return a

        monkeypatch.setattr(engine, "_transitions", wrong)
        assert validate(config, trials=3) == 1
        out = capsys.readouterr().out
        assert out.startswith("state equation fails at k=300 i=2: ") and out.count("\n") == 1

    def test_validate_builds_its_state_equation_steps_in_one_call(self, capsys, monkeypatch):
        """A serial validate builds the T_k of its k = 1, lag and K checks
        in one stacked call per trial, and runs no other build."""
        config = parse_config(make_config(variant="open_comm", b=1, n=6, K=300, source={
            "kind": "uniform", "low": 0, "high": 5, "seed": 1}))
        built, real = [], engine._transitions

        def counting(spec, v):
            built.append(len(v))
            return real(spec, v)

        monkeypatch.setattr(engine, "_transitions", counting)
        assert validate(config, trials=3) == 0
        assert ", state equation at k=1,2,300, " in capsys.readouterr().out
        assert built == [3, 3, 3]

    def test_validate_names_the_largest_state_equation_gap(self, capsys, monkeypatch):
        """On float tau the state equation adds in another order from the
        oracle, so a serial validate, whose only check is that one, names a
        gap above 0 and its cell.  With the route's rows equal to the
        oracle's, a dense validate names the same gap: the ok line covers
        both checks.  On exact tau every gap is 0."""
        import tandemax.cli as cli

        source = {"kind": "uniform", "low": 0, "high": 5, "seed": 1}
        config = parse_config(make_config(variant="open_comm", b=1, n=6, K=300, source=source))
        want = state_equation_gap(config, 3)
        assert validate(config, trials=3) == 0
        out = capsys.readouterr().out
        assert out.endswith(want) and float(re.search(r" max gap (\S+) at ", out)[1]) > 0
        real = cli.oracle_lindley
        monkeypatch.setattr(cli, "simulate", lambda spec, tau, *args: real(spec, tau))
        assert validate(replace(config, strategy="vector"), trials=3) == 0
        assert capsys.readouterr().out.endswith(want)
        monkeypatch.undo()
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
    def test_validate_dense_route_within_rounding_gap(self, tmp_path, capsys, strategy):
        cfg = tmp_path / "c.json"
        cfg.write_text(make_config(n=8, K=200, strategy=strategy, processors=3,
                                   source=BIG_INTEGERS))
        assert main(["validate", "--config", str(cfg)]) == 0
        line = capsys.readouterr().out
        gap, bound = re.search(r"^validate: ok .* max gap (\S+) at .*, bound (\S+)\)", line).groups()
        assert 0 < float(gap) <= float(bound)

    def test_waiting_within_rounding_gap(self, tmp_path):
        assert_waiting_below_zero_within_gap(tmp_path, dict(BIG_INTEGERS, seed=2))


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


class TestWriter:
    @pytest.mark.parametrize("top", sorted({abs(e) for e in EDGES}))
    def test_integer_edges(self, tmp_path, top):
        # one block whose largest magnitude is top, holding every smaller
        # edge, as one column and as one row
        cells = np.array([e for e in EDGES if abs(e) <= top], dtype=np.float64)
        path = tmp_path / "m.csv"
        for rows in (cells[:, None], cells[None, :]):
            _write_measure(rows, "d", path)
            assert path.read_text() == reference_csv(rows, "d")

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.sampled_from([1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                           2 * _CHUNK_ROWS + 5, 3 * _CHUNK_ROWS]),
        n=st.integers(1, 4),
        chunks=st.lists(st.tuples(st.sampled_from(["integer", "float", "mixed"]),
                                  st.sampled_from(TRICKY)), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    # the two integer-valued cells the int64 digits would print wrongly
    @example(K=_CHUNK_ROWS + 1, n=3, chunks=[("integer", EPS), ("mixed", -0.0)] * 2, seed=0)
    @example(K=_CHUNK_ROWS + 1, n=3, chunks=[("integer", EPS), ("mixed", 1e17)] * 2, seed=0)
    def test_byte_identical_to_per_cell_writer(self, K, n, chunks, seed):
        # each chunk is all exact integers, all non-integer or tricky
        # values, or one tricky value among integers
        rng = np.random.default_rng(seed)
        rows = rng.integers(-10**6, 10**6, size=(K, n)).astype(np.float64)
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
            assert path.read_text() == reference_csv(rows, "d")

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

    def test_unallocatable_run_is_a_config_error(self, tmp_path, capsys):
        # n x K doubles are 6.94 EiB, so the first allocation fails at once
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"variant": "open_infinite", "n": 1000000000, "K": 1000000000,
                                   "source": {"kind": "constant", "value": 1}}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: n x K = 1000000000 x 1000000000 ")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("command,strategy", [("simulate", "vector"),
                                                  ("simulate", "batched"),
                                                  ("validate", "vector")])
    @pytest.mark.parametrize("model,value,message", [
        # tau_1 + tau_2 in T_1, or d_1(1) + tau_1 in the dense product
        pytest.param({"n": 3, "K": 4}, 1e308,
                     "a prefix sum of the service times overflows float64", id="sum"),
        pytest.param({"n": 1, "K": 4}, 1e308, "departure d_1(2) overflows float64",
                     id="product"),
        # d_2(2) = 3 x 6e307; the next product adds the eps of T_3 to it
        pytest.param({"variant": "open_comm", "b": 1, "n": 2, "K": 6}, 6e307,
                     "departure d_2(2) overflows float64", id="augmented"),
    ])
    def test_overflow_on_dense_routes_is_a_config_error(self, tmp_path, capsys, command,
                                                        strategy, model, value, message):
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
        """batched with P = 3 builds T_1..T_3 in one call, and T_3 holds a
        prefix sum that overflows (1e308 + 1e308).  The departure d_2(2) =
        3 x 6e307 overflows first, so both dense routes print that one
        line, as when each T_k was built at its own step."""
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
        # force a mismatch by corrupting the oracle
        import tandemax.cli as cli

        cfg = tmp_path / "c.json"
        cfg.write_text(make_config())
        real = cli.oracle_lindley

        def corrupted(spec, tau):
            traj = real(spec, tau)
            states = traj.states.copy()
            states[1, 0] += 1
            traj.states = states
            return traj

        monkeypatch.setattr(cli, "oracle_lindley", corrupted)
        assert main(["validate", "--config", str(cfg), "--trials", "1"]) == 1

    def test_bench(self, tmp_path, monkeypatch):
        """bench reads the cost model only: no service time is sampled
        and no strategy runs."""
        import tandemax.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("bench must not sample or simulate")

        monkeypatch.setattr(cli, "simulate", forbidden)
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
