"""Smoke tests keeping the runnable examples green.

Each example script asserts its own outcomes internally; these tests
run them in-process (fast ones every time, the long streaming demo is
skipped unless RUN_SLOW_EXAMPLES=1).
"""

import importlib.util
import os
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name):
    path = os.path.join(EXAMPLES, name)
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "delivered: True" in out

    def test_critical_service(self, capsys):
        run_example("critical_service.py")
        out = capsys.readouterr().out
        assert "first packet delivered: True" in out

    def test_ddos_defense(self, capsys):
        run_example("ddos_defense.py")
        out = capsys.readouterr().out
        assert "all four attacks defeated" in out

    @pytest.mark.skipif(
        not os.environ.get("RUN_SLOW_EXAMPLES"),
        reason="90-second stream; set RUN_SLOW_EXAMPLES=1 to include",
    )
    def test_video_stream(self, capsys):
        run_example("video_stream.py")
        assert "delivery 100.00%" in capsys.readouterr().out

    def test_video_call(self, capsys):
        run_example("video_call.py")
        assert "never noticed the attack" in capsys.readouterr().out
