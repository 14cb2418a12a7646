"""Smoke tests: the shipped examples run to completion."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_record_replay_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", "record_replay.py")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "instruction error vs period (replayed)" in done.stdout
    assert "Figure 11a" in done.stdout
