"""Tests of the scripts: the examples run and report success, and the
benchmark helpers give repeatable digests and summaries."""

import importlib.util
import json
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


# Digests of the first jobs of each benchmark stream at seed 1, and of one
# full pass (jobs None) at seeds 1, 5 and 9, so that a change to any answer
# fails here and not only in the benchmark.  A change to the benchmark that
# alters its job streams must re-record them.
PINNED_DIGESTS = [
    ("batch-cache", 1, 130, "ac5ecaffcedcd31d30115514a2f88957e20eba013863c3572d6e6f14d4199293"),
    ("milnor-normal", 1, 104, "19daefd05b46557e30e9ae2cc86a206096331cd7b764ea218d2f0819a0d31957"),
    ("cycle-route", 1, 64, "77360f7cb6734341995c476da75fb9edac46468984b6685e73009a726181f7b4"),
    ("milnor-normal", 1, None, "9b88fd74e58df82116aca01d5dd2a96055cf9347f6cea361c9a0e923b8dcd504"),
    ("milnor-normal", 5, None, "b153e8feda8c19bc0805ef3d913667be5fadef7d67da9f86ba9d8a1c6c594105"),
    ("milnor-normal", 9, None, "77f1e02d3f05029509393d2d06eb2fdddaba776b7f08827a1790df9674404719"),
    ("cycle-route", 1, None, "3530f148bc5e175305285dd21c03fcef2e8b01e13088b39a37d7c5692ccd22ec"),
    ("cycle-route", 5, None, "754a025875cab71773bf2b4ec9d4dfa163043da7d6e57471dc1de40decd2dab8"),
    ("cycle-route", 9, None, "edcbb9e666db1c4fd08d3c6d52e59445fc7a34f60598b6f506b0711741a3309b"),
    ("batch-cache", 1, None, "2119fa6f5849d68cbd99cf25daca7abd6c258c145f9cb8d4ea24fa6bbca744f4"),
    ("batch-cache", 5, None, "951259f721f22ef53f0296f1b204fc5f611b08ed02aff001ac29b05b681d6021"),
    ("batch-cache", 9, None, "b6fe734ba1b71d77a192332769dd6270cacd6e9a0011762047d90aface9f4e4b"),
]


@pytest.mark.parametrize(
    "workload,seed,jobs,expected",
    PINNED_DIGESTS,
    ids=[w if jobs else f"{w}-pass-seed{seed}" for w, seed, jobs, _ in PINNED_DIGESTS],
)
def test_payload_digest_is_pinned(workload, seed, jobs, expected):
    args = ["--workload", workload, "--seed", str(seed)]
    done = run_script("payload_digest.py", *args, *(["--jobs", str(jobs)] if jobs else []))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(solved, p50, correct=True):
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        "solved_per_s": {"value": solved, "unit": "1/s"},
        "latency_p50_s": {"value": p50, "unit": "s"},
        "trace.overhead": {"value": 1.0, "unit": "ratio"},
    }})


def test_paired_bench_summarizes_canned_results():
    bench = load_script("paired_bench.py")
    assert bench.parse_result("workload milnor-normal ...\n" + result_line(5.0, 0.1) + "\n\n")[
        "metrics"]["solved_per_s"]["value"] == 5.0
    better = bench.directions({
        "end_to_end": [{"name": "solved_per_s", "better": "higher"},
                       {"name": "latency_p50_s", "better": "lower"}],
    })
    pairs = [
        {"parent": json.loads(result_line(p, 0.2)), "change": json.loads(result_line(c, lat))}
        for p, c, lat in [(100, 150, 0.1), (110, 140, 0.1), (120, 115, 0.3), (90, 160, 0.1)]
    ]
    summary = bench.summarize(pairs, better)
    solved = summary["solved_per_s"]
    assert solved["wins"] == 3 and solved["pairs"] == 4
    assert solved["parent"]["median"] == 105 and solved["change"]["median"] == 145
    assert solved["parent"]["q1"] == 97.5 and solved["parent"]["q3"] == 112.5
    assert solved["ratio_of_medians"] == 145 / 105
    assert summary["latency_p50_s"]["wins"] == 3  # lower is better
    assert summary["trace.overhead"]["wins"] is None  # no declared direction


def test_paired_bench_alternates_the_first_run(tmp_path):
    # each fake checkout's run.py appends its name to a shared log
    log = tmp_path / "order.log"
    for name, solved in (("before", 100.0), ("after", 130.0)):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "solved_per_s", "better": "higher"}]}))
        (tmp_path / name / "perfbench" / "run.py").write_text(
            "import sys\n"
            f"open({str(log)!r}, 'a').write({name!r} + ' ' + sys.argv[sys.argv.index('--seed') + 1] + '\\n')\n"
            f"print({result_line(solved, 0.1)!r})\n"
        )
    out = tmp_path / "bench.json"
    done = run_script(
        "paired_bench.py", "--parent", str(tmp_path / "before"), "--change", str(tmp_path / "after"),
        "--workload", "milnor-normal", "--pairs", "3", "--seconds", "1", "--seed", "7",
        "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    assert log.read_text().split("\n")[:-1] == [
        "before 7", "after 7", "after 8", "before 8", "before 9", "after 9"
    ]
    report = json.loads(out.read_text())["workloads"]["milnor-normal"]
    assert report["all_correct"] is True
    assert report["summary"]["solved_per_s"]["wins"] == 3
    assert [run["seed"] for run in report["runs"]] == [7, 8, 9]
