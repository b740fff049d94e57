"""Smoke tests: the CLI and every example run end to end."""

import hashlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["reproduce", "--scale", "4000"])
        assert args.command == "reproduce" and args.scale == 4000

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_feed_command(self, tmp_path, capsys):
        out = tmp_path / "feed.jsonl"
        rc = main(["feed", "--scale", "5000", "--no-cctld",
                   "--output", str(out)])
        assert rc == 0
        assert out.exists()
        assert sum(1 for _ in out.open()) > 50

    def test_probe_command(self, capsys):
        rc = main(["probe", "--scale", "5000", "--no-cctld", "--seed", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "SOA serial probing" in captured.out

    def test_sweep_command(self, capsys):
        rc = main(["sweep", "--scale", "5000", "--seed", "3"])
        assert rc == 0
        assert "Rapid Zone Updates" in capsys.readouterr().out

    def test_reproduce_command(self, capsys):
        rc = main(["reproduce", "--scale", "4000", "--no-cctld",
                   "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "overall:" in out

    def test_serve_command(self, capsys):
        rc = main(["serve", "--scale", "5000", "--no-cctld", "--seed", "3",
                   "--clients", "10"])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["published"] > 50
        assert snap["delivered"] > 0
        assert "delivery_lag" in snap and "dropped_queue_full" in snap

    @pytest.mark.parametrize("extra, digest", [
        ([], "909a72a6bf94ad4f1d236d0e0e27278c"
             "ba3aaea9bbc2c5248d27395f1e00d180"),
        # 25,756 queue-full drops and 20 evictions: the slow-consumer
        # path end to end.
        (["--queue-depth", "4", "--fault-plan",
          "seed=3;serve.stall:rate=0.9"],
         "f4593147873b0ea0988a7f86af7abecd"
         "15f456fc54b12957fd99a3d5eabbf526"),
    ])
    def test_serve_stdout_is_pinned(self, extra, digest, capsys):
        """``repro serve`` prints the same snapshot, byte for byte, as
        the per-client fan-out it was optimised from."""
        rc = main(["serve", "--scale", "2000", "--seed", "7"] + extra)
        assert rc == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_scenarios_command_lists_the_registry(self, capsys):
        from repro.workload.scenarios import iter_scenarios
        rc = main(["scenarios"])
        assert rc == 0
        out = capsys.readouterr().out
        for cls in iter_scenarios():
            assert cls.name in out
            assert cls.description in out
            for knob in cls.knobs:
                assert knob.name in out

    def test_scenario_flag_builds_the_scenario_world(self, tmp_path,
                                                     capsys):
        plain = tmp_path / "plain.jsonl"
        burst = tmp_path / "burst.jsonl"
        assert main(["feed", "--scale", "5000", "--no-cctld",
                     "--output", str(plain)]) == 0
        assert main(["feed", "--scale", "5000", "--no-cctld",
                     "--scenario", "registrar-burst:burst_mult=12",
                     "--output", str(burst)]) == 0
        assert (sum(1 for _ in burst.open())
                > sum(1 for _ in plain.open()))

    def test_unknown_scenario_exits_2_with_available_list(self, capsys):
        rc = main(["probe", "--scale", "5000", "--no-cctld",
                   "--scenario", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "registrar-burst" in err

    @pytest.mark.parametrize("spec", [
        "registrar-burst:bogus=1",       # unknown knob
        "registrar-burst:burst_day",     # malformed pair
        "registrar-burst:burst_day=x",   # non-numeric value
    ])
    def test_bad_scenario_spec_exits_2(self, spec, capsys):
        rc = main(["probe", "--scale", "5000", "--no-cctld",
                   "--scenario", spec])
        assert rc == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scan", "--fault-plan", "scan.latency:rate=1,delay=inf"],
        ["scan", "--fault-plan", "scan.latency:rate=1,delay=nan"],
        ["scan", "--fault-plan", "scan.latency:rate=1,delay=1e300"],
        ["scan", "--fault-plan",
         '{"faults":[{"kind":"scan.servfail","start":1e400}]}'],
        ["scan", "--fault-plan",
         '{"faults":[{"kind":"scan.servfail","fires":1e400}]}'],
        ["reproduce", "--scenario", "registrar-burst:burst_mult=nan"],
        ["reproduce", "--scenario", "registrar-burst:burst_mult=inf"],
    ])
    def test_non_finite_spec_exits_2_with_one_line(self, argv, capsys):
        rc = main(argv + ["--scale", "5000", "--no-cctld"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_serve_replay_command(self, tmp_path, capsys):
        archive = tmp_path / "feed.jsonl"
        rc = main(["feed", "--scale", "5000", "--no-cctld",
                   "--output", str(archive)])
        assert rc == 0
        rc = main(["serve", "--replay", str(archive), "--clients", "5",
                   "--queue-depth", "5000",
                   "--filters", "tld=com", "glob=*a*"])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["published"] > 50 and snap["delivered"] > 0


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "rapid_zone_updates.py",
    "public_feed.py",
    "feed_server.py",
])
def test_example_runs(script, tmp_path, monkeypatch, capsys):
    """Examples must execute cleanly via the public API."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_campaign_forensics_example(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["campaign_forensics.py"])
    runpy.run_path(str(EXAMPLES / "campaign_forensics.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "campaign" in out
