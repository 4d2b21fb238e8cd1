"""Tests for the demo CLI (`python -m repro`)."""

import json

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_demo_runs_and_delivers(self, capsys):
        assert main(["demo", "--packets", "2"]) == 0
        out = capsys.readouterr().out
        assert "deployed Colibri on 9 ASes" in out
        assert out.count("delivered") == 2

    def test_demo_bandwidth_option(self, capsys):
        assert main(["demo", "--packets", "1", "--bandwidth", "5"]) == 0
        assert "5.000 Mbps" in capsys.readouterr().out

    def test_attack_replay_defended(self, capsys):
        assert main(["attack", "replay", "--intensity", "10"]) == 0
        out = capsys.readouterr().out
        assert "suppressed 50" in out  # 5 captured x 10 copies
        assert "victim framed: False" in out

    def test_attack_spoofing_defended(self, capsys):
        assert main(["attack", "spoofing", "--intensity", "25"]) == 0
        assert "rejected 25" in capsys.readouterr().out

    def test_topology_two_isd(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "9 ASes" in out
        assert "core" in out

    def test_topology_internet(self, capsys):
        assert main(["topology", "--shape", "internet", "--isds", "2"]) == 0
        assert "2 ISDs" in capsys.readouterr().out

    def test_telemetry_emits_json(self, capsys):
        assert main(["telemetry", "--packets", "3"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["total"]["gateway_sent"] == 3
        assert snapshot["total"]["router_drops"] == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["no-such-command"])

    def test_telemetry_prometheus_format(self, capsys):
        assert main(["telemetry", "--packets", "2", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE colibri_gateway_sent gauge" in out
        assert "colibri_gateway_sent 2" in out

    def test_trace_tree_shows_workflows_and_hops(self, capsys):
        assert main(["trace", "--packets", "1"]) == 0
        out = capsys.readouterr().out
        assert "eer.setup" in out
        assert "packet.send" in out
        assert "verdict=deliver_host" in out

    def test_trace_jsonl_is_seed_deterministic(self, capsys):
        assert main(["trace", "--packets", "2", "--format", "jsonl"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "--packets", "2", "--format", "jsonl"]) == 0
        assert capsys.readouterr().out == first
        assert main(["trace", "--packets", "2", "--format", "jsonl", "--seed", "9"]) == 0
        assert capsys.readouterr().out != first
        for line in first.splitlines():
            span = json.loads(line)
            assert span["end"] is not None  # every span closed

    def test_trace_metrics_appends_exposition(self, capsys):
        assert main(["trace", "--packets", "1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE colibri_admission_latency_seconds histogram" in out
        assert 'colibri_retry_attempts_bucket{le="+Inf"}' in out
        assert "# TYPE colibri_token_bucket_occupancy gauge" in out

    def test_health_clean_run_exits_zero(self, capsys):
        assert main(["health"]) == 0
        assert "none — error budgets intact" in capsys.readouterr().out

    def test_health_json_parses_with_nothing_firing(self, capsys):
        assert main(["health", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["firing"] == []

    def test_trace_events_interleaves_and_is_seed_deterministic(self, capsys):
        assert main(["trace", "--events", "--packets", "1"]) == 0
        first = capsys.readouterr().out
        assert "[span ]" in first
        assert "[event]" in first
        assert main(["trace", "--events", "--packets", "1"]) == 0
        assert capsys.readouterr().out == first
