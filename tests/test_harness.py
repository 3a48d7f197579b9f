"""Harness: config handling, sweep outputs, determinism, regressions, CLI."""

import csv
import json

import pytest

from faultcast import protocols
from faultcast.adversary import make_adversary
from faultcast.cli import main as cli_main
from faultcast.errors import ConfigError
from faultcast.harness import (CSV_HEADER, ExperimentConfig, run,
                               verify_regressions)


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


def test_config_errors_enumerated():
    config = _small_config(topology="hypercube", protocol="sod-complete",
                           alpha=[0.6, 2.0], eps=3.0)
    problems = config.check()
    assert len(problems) >= 3  # protocol/topology, alpha domain, eps domain
    with pytest.raises(ConfigError):
        run(config)


def test_config_rejects_nosod_above_root():
    config = _small_config(protocol="nosod-complete", alpha=[0.6])
    assert any("unsupported" in p for p in config.check())


def test_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "complete", "size": 8, "alpha": 0.5,
                                "protocol": "almost-kn", "adversary": "random",
                                "seeds": 1}))
    config = ExperimentConfig.from_json(path)
    assert config.size == [8] and config.alpha == [0.5] and config.seeds == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sizes": [8]}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)


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


def test_cli_verify_regressions(capsys):
    assert cli_main(["verify-regressions"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_search(capsys):
    assert cli_main(["search", "--n", "2", "--alpha", "0.5",
                     "--protocol", "simple-rounds"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["worst_steps"] == 2


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


@pytest.mark.parametrize("topology,protocol,size,eps,runner", [
    ("complete", "almost-kn", 16, 2.0, protocols.almost_complete_kn),
    ("hypercube", "hypercube", 5, 0.5, protocols.broadcast_hypercube),
    ("complete", "sod-complete", 16, 2.0, protocols.sod_complete),
    ("complete", "nosod-complete", 16, 2.0, protocols.nosod_complete),
], ids=["kn16", "q5", "sod16", "nosod16"])
def test_public_runner_matches_harness_jsonl(tmp_path, topology, protocol, size, eps, runner):
    # harness.run repeats the public run sequence; both must write the same
    # steps and the same summary line, below_min included.
    out = tmp_path / "harness"
    run(ExperimentConfig(topology=topology, size=[size], alpha=[0.5], eps=eps,
                         protocol=protocol, adversary=["random:0"], seeds=1, out=str(out)))
    (harness_jsonl,) = out.glob("*.jsonl")
    runner(size, 0.5, eps, make_adversary("random:0")).to_jsonl(tmp_path / "runner.jsonl")
    assert (tmp_path / "runner.jsonl").read_bytes() == harness_jsonl.read_bytes()
