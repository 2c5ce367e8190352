"""The benchmark child with its tracer on: the names it wraps in the
package are still bound where it wraps them, and a traced run counts the
work of its layer."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("scenario, counted", [
    ("scenarios/phase_er.ini", "receiver.histogram_calls"),
    ("perfbench/timebin_saturated.ini", "receiver.histogram_calls"),
    ("scenarios/bb84_eve.ini", "protocol.n_frames"),
])
def test_traced_child_runs(scenario, counted, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "--src", str(REPO / "src"),
         "--scenario", str(REPO / scenario), "--seed", "1", "--frames", "2000",
         "--out", str(tmp_path / "out"), "--trace", "1"],
        env=env, capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0, proc.stderr
    assert result["counts"].get(counted, 0) > 0, result["counts"]
