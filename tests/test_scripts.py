from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_showcase_runs():
    result = _run_script("showcase.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_verify_all_help():
    result = _run_script("verify_all.py", "--help")
    assert result.returncode == 0, result.stderr
    assert "--seed" in result.stdout


def test_bench_pairs_help():
    result = _run_script("bench_pairs.py", "--help")
    assert result.returncode == 0, result.stderr
    for option in ("--workload", "--seed", "--pairs", "--seconds", "--out"):
        assert option in result.stdout
