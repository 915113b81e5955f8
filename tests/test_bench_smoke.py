"""The benchmark's own smoke test, run as part of the suite, so that an API
change the benchmark depends on (a renamed report field, a moved function)
fails here rather than only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    res = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "smoke: ok" in res.stdout
