"""Smoke tests: the example scripts run and report success."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
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
