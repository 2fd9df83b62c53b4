"""Smoke tests: the example scripts run and report success."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# Digests of the first jobs of each benchmark stream (seed 1), so that a
# change to any answer fails here and not only in the benchmark.  A change to
# the benchmark that alters its job streams must re-record them.
PINNED_DIGESTS = [
    ("batch-cache", "130", "ac5ecaffcedcd31d30115514a2f88957e20eba013863c3572d6e6f14d4199293"),
    ("milnor-normal", "104", "19daefd05b46557e30e9ae2cc86a206096331cd7b764ea218d2f0819a0d31957"),
    ("cycle-route", "64", "77360f7cb6734341995c476da75fb9edac46468984b6685e73009a726181f7b4"),
]


@pytest.mark.parametrize(
    "workload,jobs,expected", PINNED_DIGESTS, ids=[w for w, _, _ in PINNED_DIGESTS]
)
def test_payload_digest_is_pinned(workload, jobs, expected):
    done = run_script("payload_digest.py", "--workload", workload, "--seed", "1", "--jobs", jobs)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected
