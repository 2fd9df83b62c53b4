"""Smoke tests: the example scripts run and report success."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_two_route_gallery_agrees():
    done = run_script("two_route_gallery.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    rows = lines[1 : lines.index("")]
    assert len(rows) == 15  # 11 at the origin, 4 sheared rows away from it
    assert all(row.split()[-1] == "yes" for row in rows)


def test_conic_lagrangian_demo_runs():
    done = run_script("conic_lagrangian_demo.py")
    assert done.returncode == 0, done.stderr
    assert "UNEXPECTED" not in done.stdout


def test_payload_digest_is_repeatable():
    args = ("--workload", "cycle-route", "--seed", "3", "--jobs", "12")
    first, second = run_script("payload_digest.py", *args), run_script("payload_digest.py", *args)
    assert first.returncode == 0, first.stderr
    assert len(first.stdout.strip()) == 64
    assert second.stdout == first.stdout
    other = run_script("payload_digest.py", *args[:-1], "11")
    assert other.returncode == 0, other.stderr
    assert other.stdout != first.stdout
