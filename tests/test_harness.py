"""Harness: config handling, sweep outputs, determinism, regressions, CLI."""

import csv
import json
import math

import pytest

from faultcast import bounds, protocols
from faultcast.adversary import make_adversary
from faultcast.cli import main as cli_main
from faultcast.engine import NetworkState
from faultcast.errors import ConfigError, InvalidParameterError, SimError
from faultcast.harness import (CSV_HEADER, ExperimentConfig, run, run_protocol,
                               verify_regressions)
from faultcast.search import worst_case_search
from faultcast.topology import COMPLETE, HYPERCUBE, build_complete, build_hypercube
from faultcast.validate import INFO, errors_only, validate_trace


def _small_config(**kw):
    base = dict(topology="complete", size=[8], alpha=[0.5], protocol="almost-kn",
                adversary=["random"], seeds=2)
    base.update(kw)
    return ExperimentConfig(**base)


def test_defaults():
    config = ExperimentConfig()
    assert config.eps == 2.0
    assert config.protocol == "almost-kn"
    assert config.adversary == ["random", "victim_guard", "ack_suppressor"]
    hc = ExperimentConfig(topology="hypercube")
    assert hc.eps == 0.5
    assert hc.protocol == "hypercube"


def test_config_rejects_a_non_finite_eps():
    """On K_n eps must lie in (1, inf); inf and NaN are reported before
    anything runs, and the public runner rejects them too."""
    for eps in (math.inf, math.nan):
        assert _small_config(eps=eps).check() == [
            f"complete-graph eps must be in (1, inf), got {eps}"]
        with pytest.raises(InvalidParameterError, match="eps"):
            run_protocol("almost-kn", build_complete(8), 0.5, eps,
                         make_adversary("random:0"))


@pytest.mark.parametrize("topology, eps", [
    *(("complete", eps) for eps in (0.5, 1.0, math.inf, math.nan)),
    *(("hypercube", eps) for eps in (0.0, 1.0, math.nan)),
])
def test_every_entry_point_applies_one_eps_rule(topology, eps, capsys):
    """An eps outside the topology's analysed domain, (1, inf) on K_n and
    (0, 1) on Q_d, gets the same message from every entry point before
    anything runs: the config check and the public runner, for bare
    simple-rounds as for the topology's own schedule, the search, the
    validator, n_min or d_min, and the CLI, which exits 2 with ``error:``."""
    complete = topology == "complete"
    message = (f"complete-graph eps must be in (1, inf), got {eps}" if complete
               else f"hypercube eps must be in (0, 1), got {eps}")
    size, topo = (8, build_complete(8)) if complete else (3, build_hypercube(3))
    schedules = ("simple-rounds", "almost-kn" if complete else "hypercube")
    for protocol in schedules:
        config = _small_config(topology=topology, size=[size], protocol=protocol, eps=eps)
        assert config.check() == [message], protocol
    _, _, trace = run_protocol(schedules[1], topo, 0.5, bounds.default_eps(topology),
                               make_adversary("random:0"))
    calls = [*(lambda p=p: run_protocol(p, topo, 0.5, eps, make_adversary("random:0"))
               for p in schedules),
             lambda: validate_trace(trace, 0.5, eps),
             lambda: (bounds.n_min if complete else bounds.d_min)(0.5, eps)]
    argvs = [["run", "--topology", topology, "--size", str(size), "--protocol", "simple-rounds",
              "--eps", str(eps), "--adversary", "random", "--seeds", "1"],
             ["bounds", "--alpha", "0.5", "--n" if complete else "--d", str(size),
              "--eps", str(eps)]]
    if complete:
        calls.append(lambda: worst_case_search(4, "almost-kn", 0.5, eps=eps))
        argvs.append(["search", "--n", "4", "--alpha", "0.5", "--eps", str(eps)])
    for call in calls:
        with pytest.raises(InvalidParameterError) as raised:
            call()
        assert str(raised.value) == message
    for argv in argvs:
        assert cli_main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and "Traceback" not in captured.out


def test_config_errors_enumerated():
    config = _small_config(topology="hypercube", protocol="sod-complete",
                           alpha=[0.6, 2.0], eps=3.0)
    problems = config.check()
    assert len(problems) >= 3  # protocol/topology, alpha domain, eps domain
    with pytest.raises(ConfigError):
        run(config)
    # Sizes the schedule's bounds reject are reported before anything runs.
    # So are a horizon outside bare simple-rounds and a horizon below 1.
    for kw in (dict(topology="hypercube", protocol="hypercube", size=[1], eps=0.5),
               dict(protocol="nosod-complete", size=[2]),
               dict(protocol="almost-kn", horizon=1),
               dict(protocol="simple-rounds", horizon=0),
               dict(protocol="simple-rounds", horizon=-3)):
        config = _small_config(**kw)
        assert len(config.check()) == 1
        with pytest.raises(ConfigError):
            run(config)
    assert _small_config(protocol="simple-rounds", horizon=1).check() == []
    # Every adversary spec is checked against every size, also before
    # anything runs: unknown ids, arguments that are not integers, negative
    # seeds, and victims outside 0..n-1 for each size.
    for kw, count in ((dict(adversary=["random", "victim_guard:8"]), 1),
                      (dict(adversary=["bogus"]), 1),
                      (dict(adversary=["random:x", "ack_suppressor:1.5"]), 2),
                      (dict(adversary=["random:-5"]), 1),
                      (dict(adversary=["victim_guard:12"], size=[8, 16]), 1),
                      (dict(adversary=["victim_guard:9", "victim_guard:-1"], size=[4, 8]), 4),
                      (dict(topology="hypercube", protocol="hypercube", eps=0.5, size=[3],
                            adversary=["victim_guard:8"]), 1)):
        config = _small_config(**kw)
        assert len(config.check()) == count, kw
        with pytest.raises(ConfigError):
            run(config)
    assert _small_config(adversary=["victim_guard:12"], size=[16, 13]).check() == []
    # Fields of the wrong type, as a config file may give them, are reported
    # by name; so are files that hold no JSON object.
    for kw, names in ((dict(size="8"), ["size"]), (dict(alpha="0.5"), ["alpha"]),
                      (dict(size=[8, True], seeds=2.0, eps="2"), ["size", "eps", "seeds"]),
                      (dict(protocol=5, adversary=[None], horizon="3"),
                       ["protocol", "adversary", "horizon"])):
        problems = _small_config(**kw).check()
        assert [p.split()[0] for p in problems] == names, kw
        with pytest.raises(ConfigError):
            run(_small_config(**kw))


@pytest.mark.parametrize("text, match", [
    (None, "cannot read"), ("{bad", "not JSON"), ("5", "holds int"), ("[1, 2]", "holds list"),
    ('{"size": "8"}', "size has the wrong type"), ('{"alpha": "0.5"}', "alpha has the wrong"),
])
def test_config_file_errors_are_config_errors(tmp_path, text, match, capsys):
    """A config file that is missing, not JSON, not an object, or gives a field
    of the wrong type is a ConfigError, so the CLI exits 2 with ``error:``."""
    path = tmp_path / "c.json"
    if text is not None:
        path.write_text(text)
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err and "Traceback" not in err


def test_make_driver_round_counts():
    topo = build_complete(8)

    def rounds_of(spec, rounds):
        state = NetworkState(topo)
        return protocols.make_driver(spec, topo, 0.5, 2.0, state, rounds=rounds).rounds

    assert rounds_of("simple-rounds", None) == bounds.rounds_kn(8, 0.5)
    assert rounds_of("simple-rounds", 3) == 3
    for rounds in (0, -3):
        with pytest.raises(InvalidParameterError, match="at least 1 round"):
            rounds_of("simple-rounds", rounds)


@pytest.mark.parametrize("protocol, kind", [(name, kind) for name, entry in
                                            protocols.PROTOCOLS.items()
                                            for kind in entry.topologies])
def test_protocol_table_agrees_with_drivers_and_runs(protocol, kind):
    """On K_2..K_6 or Q_1..Q_5 at alpha 0.3, 0.6 and 0.9: an entry's
    closed-form schedule length is its driver's length, and the two raise on
    the same sizes and alphas; the config check reports a problem exactly
    where the public runner raises."""
    entry, eps = protocols.PROTOCOLS[protocol], bounds.default_eps(kind)
    for size in range(2, 7) if kind == COMPLETE else range(1, 6):
        topo = protocols.build_topology(protocol, kind, size)
        for alpha in (0.3, 0.6, 0.9):
            where = (size, alpha)
            try:
                steps = entry.steps(topo.n, topo.d, alpha, eps, None)
            except SimError:
                steps = None
            try:
                driver = protocols.make_driver(protocol, topo, alpha, eps, NetworkState(topo))
                assert driver.total_steps == steps, where
            except SimError:
                assert steps is None, where
            problems = ExperimentConfig(topology=kind, size=[size], alpha=[alpha],
                                        protocol=protocol, adversary=["random:0"],
                                        seeds=1).check()
            try:
                run_protocol(protocol, topo, alpha, eps, make_adversary("random:0"))
                assert problems == [], where
            except SimError:
                assert problems, where


@pytest.mark.parametrize("kind, size, eps, check", [(COMPLETE, 24, 2.0, "thm2_acks"),
                                                    (HYPERCUBE, 13, 0.5, "lemma4_acks")])
def test_bare_simple_rounds_claims_no_theorem(kind, size, eps, check):
    """Bare simple-rounds starts without the greedy init that Theorems 2 and 3
    assume, so its round checks are informational even at n_min or d_min:
    K_24 and Q_13 at alpha 0.5."""
    report = run(ExperimentConfig(topology=kind, size=[size], alpha=[0.5], eps=eps,
                                  protocol="simple-rounds", horizon=5, seeds=2))
    assert report.ok and [r["violations"] for r in report.rows] == [0] * 6
    topo = protocols.build_topology("simple-rounds", kind, size)
    assert bounds.asserted(topo, 0.5, eps)
    _, _, trace = run_protocol("simple-rounds", topo, 0.5, eps,
                               make_adversary("ack_suppressor:0"))
    found = validate_trace(trace)
    assert errors_only(found) == []
    assert check in {v.check for v in found if v.level == INFO}


def test_config_rejects_nosod_above_root():
    config = _small_config(protocol="nosod-complete", alpha=[0.6])
    assert any("unsupported" in p for p in config.check())


def test_config_from_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "complete", "size": 8, "alpha": 0.5,
                                "protocol": "almost-kn", "adversary": "random",
                                "seeds": 1}))
    rows = _cli_rows(tmp_path, "--config", str(path))
    assert [(r["size"], r["alpha"], r["seed"]) for r in rows] == [("8", "0.5", "0")]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sizes": [8]}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_run_rows_and_outputs(tmp_path):
    config = _small_config(out=str(tmp_path / "out"))
    report = run(config)
    assert len(report.rows) == 2
    assert report.ok
    assert all(r["final_k"] <= 8 for r in report.rows)  # X*eps at alpha=0.5
    csv_path = tmp_path / "out" / "summary.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    dat = (tmp_path / "out" / "summary.dat").read_text().splitlines()
    assert dat[0].startswith("# param")
    assert len(dat) == 3
    traces = list((tmp_path / "out").glob("*.jsonl"))
    assert len(traces) == 2
    last = json.loads(traces[0].read_text().splitlines()[-1])
    assert last["protocol"] == "almost-kn"


def test_csv_byte_identical(tmp_path):
    blobs = []
    for name in ("a", "b"):
        config = _small_config(out=str(tmp_path / name), size=[6, 8],
                               adversary=["random", "ack_suppressor"])
        run(config)
        blobs.append((tmp_path / name / "summary.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_theorem2_spec_example():
    # K_64, alpha 0.5, almost-kn, random, 10 seeds: all final_k <= 8.
    config = _small_config(size=[64], seeds=10)
    report = run(config)
    assert len(report.rows) == 10
    assert all(r["final_k"] <= 8 for r in report.rows)
    assert report.aggregates["final_k"]["max"] <= 8


def test_verify_regressions_ok():
    results = verify_regressions()
    assert len(results) == 3
    assert all(r["ok"] for r in results)


def test_verify_regressions_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="regenerate"):
        verify_regressions(tmp_path / "nope.json")


def test_verify_regressions_mismatch(tmp_path):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps([{"name": "K2", "n": 2, "protocol": "simple-rounds",
                                 "alpha": 0.5, "worst_steps": 99}]))
    results = verify_regressions(path)
    assert results[0]["ok"] is False


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_strict(tmp_path, capsys):
    rc = cli_main(["run", "--topology", "complete", "--size", "8", "--alpha", "0.5",
                   "--protocol", "almost-kn", "--adversary", "random",
                   "--seeds", "1", "--out", str(tmp_path / "o"), "--strict"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_k=" in out


@pytest.mark.parametrize("adversary", ["random:x", "ack_suppressor:1.5", "victim_guard:8",
                                       "victim_guard:-1"])
def test_cli_rejects_a_bad_adversary_argument(adversary, capsys):
    rc = cli_main(["run", "--topology", "complete", "--size", "8", "--alpha", "0.5",
                   "--adversary", adversary, "--seeds", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("adversary", ["victim_guard:8", "bogus"])
def test_cli_bad_adversary_writes_no_output(adversary, tmp_path, capsys):
    """A spec that names no policy stops the sweep before ``--out`` is made,
    even after a good spec."""
    out = tmp_path / "outx"
    rc = cli_main(["run", "--topology", "complete", "--size", "8", "--alpha", "0.5",
                   "--adversary", "random", adversary, "--seeds", "1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--size", "8", "8", "--adversary", "random"],
    ["--size", "8", "--adversary", "random", "random:0"],
    ["--size", "8", "--adversary", "victim_guard", "victim_guard:7"],
])
def test_cli_repeated_run_writes_no_output(argv, tmp_path, capsys):
    """Two runs of one (size, alpha, adversary id, seed) would write one JSONL
    file: the sweep is a config error before ``--out`` is made."""
    out = tmp_path / "outx"
    rc = cli_main(["run", *argv, "--alpha", "0.5", "--seeds", "1", "--out", str(out)])
    assert rc == 2
    assert "run repeated: size 8, alpha 0.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("protocol", ["simple-rounds:abc", "simple-rounds:0", "simple-rounds:",
                                      "almost-kn:7", "nosod-complete:3"])
def test_cli_bad_protocol_argument_writes_no_output(protocol, tmp_path, capsys):
    """A protocol id takes no argument: ``horizon`` sets the round count.  An
    id with one is unknown, a config error before ``--out`` is made; the
    search and ``make_driver`` reject it too."""
    out = tmp_path / "outx"
    rc = cli_main(["run", "--protocol", protocol, "--size", "8", "--seeds", "1",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: unknown protocol id")
    assert not out.exists()
    assert cli_main(["search", "--n", "3", "--alpha", "0.5", "--protocol", protocol]) == 2
    assert capsys.readouterr().err.startswith("error: unknown protocol id")
    topo = build_complete(8)
    with pytest.raises(InvalidParameterError):
        protocols.make_driver(protocol, topo, 0.5, 2.0, NetworkState(topo))


def test_cli_run_config_file(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"topology": "complete", "size": 8, "alpha": 0.5,
                               "protocol": "almost-kn", "adversary": "random",
                               "seeds": 1}))
    assert cli_main(["run", "--config", str(cfg)]) == 0


def test_cli_bounds_json(capsys):
    assert cli_main(["bounds", "--alpha", "0.5", "--eps", "2", "--n", "64"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["r_kn"] == 146 and data["x"] == 4.0


def test_cli_bounds_eps_follows_the_topology(capsys):
    """Without --eps, sim bounds takes the default eps of the topology it is
    asked about: with --d the hypercube's, so d_min is reported."""
    assert cli_main(["bounds", "--alpha", "0.5", "--d", "13"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["eps"] == 0.5 and data["d_min"] == 13
    assert cli_main(["bounds", "--alpha", "0.5", "--n", "64"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["eps"] == 2.0 and data["n_min"] == 17


def test_cli_bounds_takes_n_or_d(capsys):
    """--n and --d never go together: argparse refuses the pair with exit 2
    before any eps is checked."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["bounds", "--alpha", "0.5", "--n", "64", "--d", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with" in err and "complete-graph eps" not in err


def test_cli_verify_regressions(capsys):
    assert cli_main(["verify-regressions"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_search(capsys):
    assert cli_main(["search", "--n", "2", "--alpha", "0.5",
                     "--protocol", "simple-rounds"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["worst_steps"] == 2


@pytest.mark.parametrize("protocol", ["sod-all-but-one", "sod-complete"])
def test_cli_search_refuses_sod_schedules(protocol, capsys):
    """The sense-of-direction schedules get their chordal K_n, and their
    drivers refuse the search with a typed error: exit 2, no traceback."""
    assert cli_main(["search", "--n", "4", "--alpha", "0.5", "--protocol", protocol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "does not support search" in captured.err
    assert "Traceback" not in captured.out + captured.err


_SEARCH_NOSOD = ["search", "--n", "4", "--alpha", "0.5", "--protocol", "nosod-complete"]


@pytest.mark.parametrize("argv, regression_text", [
    pytest.param([*_SEARCH_NOSOD, "--eps", "inf"], None, id="search-eps-inf"),
    pytest.param([*_SEARCH_NOSOD, "--eps", "nan"], None, id="search-eps-nan"),
    pytest.param(["search", "--n", "4", "--alpha", "0.5", "--horizon", "-3"], None,
                 id="search-horizon-negative"),
    pytest.param(["bounds", "--alpha", "0.5", "--eps", "nan", "--n", "64"], None,
                 id="bounds-eps-nan"),
    pytest.param(["verify-regressions"], "{bad", id="regressions-not-json"),
    pytest.param(["verify-regressions"], "[1, 2]", id="regressions-not-objects"),
    pytest.param(["verify-regressions"],
                 '[{"name": "x", "protocol": "almost-kn", "alpha": 0.5, "worst_steps": 4}]',
                 id="regressions-entry-lacks-n"),
    *(pytest.param(["verify-regressions"],
                   json.dumps([{"name": "x", "n": 4, "protocol": "almost-kn", "alpha": 0.5,
                                "worst_steps": 4, **field}]), id=f"regressions-{name}-string")
      for name, field in (("n", {"n": "4"}), ("alpha", {"alpha": "0.5"}), ("eps", {"eps": "2"}))),
])
def test_cli_bad_input_exits_2(argv, regression_text, tmp_path, capsys):
    """Bad input to search, bounds and verify-regressions is a typed error:
    exit 2 with ``error:``, never a traceback, and never exit 0 or the exit 1
    that a MISMATCH gives."""
    if regression_text is not None:
        path = tmp_path / "reg.json"
        path.write_text(regression_text)
        argv = [*argv, "--file", str(path)]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["bounds", "--alpha", "0.5", "--d", "2000"],
                 "d = 2000 is beyond the float range", id="bounds-q2000"),
    pytest.param(["run", "--topology", "hypercube", "--size", "1100", "--protocol",
                  "simple-rounds", "--adversary", "random", "--seeds", "1"],
                 "n = 2^1100 is beyond the float range", id="run-q1100-simple-rounds"),
    pytest.param(["bounds", "--alpha", "1e-12", "--d", "40"], "no reasonable d_min",
                 id="bounds-d-min-scan"),
    pytest.param(["search", "--n", "4", "--alpha", "0.8"], "up to 1792 steps",
                 id="search-deeper-than-recursion"),
    *(pytest.param(["run", "--topology", "complete", "--size", "8", "--alpha", "1e-309",
                    "--protocol", protocol, "--adversary", "random", "--seeds", "1"],
                   "X = 1/(alpha(1-alpha)) beyond the float range", id=f"run-{protocol}-x-inf")
      for protocol in ("nosod-complete", "sod-complete", "almost-kn")),
])
def test_cli_sizes_past_float_or_recursion_range_exit_2(argv, message, capsys):
    """A size whose closed forms overflow a float, a d_min scan that passes
    2^1024, a search whose plays outrun the recursion limit and an alpha
    whose X overflows are typed errors: exit 2 with ``error:`` and no
    traceback."""
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("name", ["size", "alpha", "adversary"])
def test_cli_empty_config_list_writes_no_output(name, tmp_path, capsys):
    """A config file's empty size, alpha or adversary list is a config error
    before ``--out`` is made, not a summary without runs."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"size": [8], "seeds": 1, name: []}))
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{name} lists nothing" in capsys.readouterr().err
    assert not out.exists()


def _cli_rows(tmp_path, *argv):
    out = tmp_path / "o"
    assert cli_main(["run", *argv, "--out", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        return list(csv.DictReader(fh))


def test_cli_hypercube_takes_hypercube_defaults(tmp_path):
    rows = _cli_rows(tmp_path, "--topology", "hypercube", "--size", "3", "--seeds", "1",
                     "--adversary", "random")
    assert rows and all(r["eps"] == "0.5" and r["protocol"] == "hypercube" for r in rows)


def test_cli_flags_override_config_topology(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"topology": "complete", "size": 8, "seeds": 1}))
    rows = _cli_rows(tmp_path, "--config", str(cfg), "--topology", "hypercube", "--size", "3")
    assert rows and all(r["eps"] == "0.5" and r["protocol"] == "hypercube"
                        and r["topology"] == "hypercube" and r["size"] == "3" for r in rows)


def test_cli_explicit_eps_wins(tmp_path):
    rows = _cli_rows(tmp_path, "--topology", "hypercube", "--size", "3", "--seeds", "1",
                     "--adversary", "random", "--eps", "0.25")
    assert rows and all(r["eps"] == "0.25" and r["protocol"] == "hypercube" for r in rows)


def test_cli_config_error_exit_code(capsys):
    rc = cli_main(["run", "--topology", "hypercube", "--size", "3",
                   "--protocol", "sod-complete"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("topology,protocol,size,eps", [
    ("complete", "almost-kn", 16, 2.0),
    ("hypercube", "hypercube", 5, 0.5),
    ("complete", "sod-complete", 16, 2.0),
    ("complete", "nosod-complete", 16, 2.0),
], ids=["kn16", "q5", "sod16", "nosod16"])
def test_public_runner_matches_harness_jsonl(tmp_path, topology, protocol, size, eps):
    # harness.run runs each config through run_protocol; both must write the same
    # steps and the same summary line, below_min included.
    out = tmp_path / "harness"
    run(ExperimentConfig(topology=topology, size=[size], alpha=[0.5], eps=eps,
                         protocol=protocol, adversary=["random:0"], seeds=1, out=str(out)))
    (harness_jsonl,) = out.glob("*.jsonl")
    topo = protocols.build_topology(protocol, topology, size)
    _, _, trace = run_protocol(protocol, topo, 0.5, eps, make_adversary("random:0"))
    trace.to_jsonl(tmp_path / "runner.jsonl")
    assert (tmp_path / "runner.jsonl").read_bytes() == harness_jsonl.read_bytes()
