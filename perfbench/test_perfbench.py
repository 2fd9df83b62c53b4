"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "perfbench", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nuchi import cli  # noqa: E402
from nuchi.errors import Refusal  # noqa: E402
from nuchi.groebner import Ideal  # noqa: E402
from nuchi.poly import Polynomial, Ring  # noqa: E402
from tests.oracles import macaulay_colength_local  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.LIMITS))
def test_same_seed_same_digest(workload):
    first = workloads.digest(workloads.make_stream(workload, 5, 40))
    again = workloads.digest(workloads.make_stream(workload, 5, 40))
    other = workloads.digest(workloads.make_stream(workload, 6, 40))
    assert first == again
    assert first != other


def _decoded(jobs):
    return [(family, json.loads(spec), json.loads(expect)) for family, spec, expect in jobs]


def _local_jacobian(text, names, point):
    """The Jacobian ideal of f moved so that ``point`` is the origin."""
    ring = Ring(tuple(names))
    f = ring.parse(text)
    coords = [c.strip() for c in point.split(",")]
    return Ideal(ring, [f.derivative(i).shift(coords) for i in range(ring.arity)])


def _generic_jobs(count):
    """Two-variable jobs in generic coordinates, sheared, as the probe builds them."""
    rng = workloads.Draws("generic")
    return [workloads._milnor_job(rng, workloads._brieskorn_pham(rng, 2, 2, 3), "behrend", True, True)
            for _ in range(count)]


@pytest.mark.parametrize("generic", [False, True])
def test_milnor_references_match_macaulay_oracle(generic):
    jobs = _generic_jobs(8) if generic else _decoded(workloads.make_stream("milnor-normal", 3, 400))
    checked = 0
    for family, spec, expect in jobs:
        names = spec["ring"]["vars"]
        mu = expect["fields"]["mu"]
        if len(names) != 2 or mu > 8:
            continue
        text = spec.get("f") or spec["critical_locus"]
        assert macaulay_colength_local(_local_jacobian(text, names, spec["point"])) == mu, (family, spec)
        checked += 1
        if checked == 8:
            break
    assert checked == 8


def test_cycle_references_match_macaulay_oracle():
    checked = 0
    for family, spec, expect in _decoded(workloads.make_stream("cycle-route", 3, 200)):
        names = spec["ring"]["vars"]
        if len(names) > 2 or len(expect["cycle"]) > 4:
            continue
        for term in expect["cycle"]:
            if term["coefficient"] > 4:
                continue
            point = ",".join(term["data"]["coordinates"])
            jac = _local_jacobian(spec["critical_locus"], names, point)
            assert macaulay_colength_local(jac) == term["coefficient"], (family, spec, term)
            checked += 1
        if checked >= 10:
            break
    assert checked >= 10


def test_batch_stream_answers_and_repeats_check_out(tmp_path):
    jobs = workloads.make_stream("batch-cache", 2, 300)
    records = run.run_jobs(cli, Refusal, jobs, 5.0, tmp_path)
    assert all(r[1] == "ok" for r in records)
    assert run.check_records(jobs, [records]) == []
    assert any(r[4] == "hit" for r in records)


def test_passes_repeat_the_list_with_a_fresh_cache(tmp_path):
    jobs = workloads.make_stream("batch-cache", 4, 40)
    dirs = iter(tmp_path / str(i) for i in range(100))
    passes, rss_mb = run.run_passes(cli, Refusal, jobs, 5.0, 0.0, lambda: next(dirs))
    assert len(passes) == 1 and len(passes[0]) == len(jobs)
    assert rss_mb > 0
    passes, _ = run.run_passes(cli, Refusal, jobs, 5.0, 1.0, lambda: next(dirs))
    assert len(passes) >= 2
    assert [r[4] for r in passes[1]] == [r[4] for r in passes[0]][:len(passes[1])]
    assert run.check_records(jobs, passes) == []
    assert len(run.job_latencies(passes, 5.0)) == len(jobs)


def test_check_records_flags_bytes_that_differ_between_passes():
    jobs = workloads.make_stream("milnor-normal", 1, 1)
    payload = json.dumps(json.loads(jobs[0][2])["fields"], sort_keys=True)
    ok = (0, "ok", 0.001, payload, "off")
    assert run.check_records(jobs, [[ok], [ok]]) == []
    respelled = (0, "ok", 0.001, payload.replace(":", ": "), "off")
    assert run.check_records(jobs, [[ok], [respelled]])


def test_a_job_past_its_limit_is_stopped():
    jobs = workloads.make_stream("cycle-route", 1, 3)
    records = run.run_jobs(cli, Refusal, jobs, 1e-6, None)
    assert [r[1] for r in records] == ["limit"] * 3


def test_streams_leave_the_known_defects_to_the_probe():
    for family, spec, expect in _decoded(workloads.make_stream("milnor-normal", 2, 600)):
        assert spec["point"] == ",".join("0" * len(spec["ring"]["vars"]))
        if family == "a_k":
            assert expect["fields"]["mu"] <= 64
    for family, spec, expect in _decoded(workloads.make_stream("cycle-route", 2, 600)):
        if family.endswith("-mixed"):
            assert len(expect["cycle"]) <= workloads.MIX_MAX_POINTS
            assert all(term["coefficient"] == 1 for term in expect["cycle"])
    assert workloads.probe("milnor-normal") == workloads.probe("milnor-normal")
    families = {fam for fam, _, _ in workloads.probe("milnor-normal")}
    assert families == {"a_k", "bp-large", "bp3-two-terms", "tpqr-sheared"}


def test_check_rejects_a_wrong_value():
    family, spec, expect = _decoded(workloads.make_stream("milnor-normal", 1, 1))[0]
    payload = dict(expect["fields"])
    assert workloads.check(payload, expect) is None
    payload["mu"] += 1
    assert workloads.check(payload, expect) is not None


def test_traced_run_restores_every_wrapper(tmp_path):
    originals = {name: getattr(cli, name) for name in ("run_job", "normalize_spec", "execute_spec")}
    methods = dict(vars(Polynomial))
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert layers.leftover_wrappers()
        jobs = workloads.make_stream("batch-cache", 1, 30)
        records = run.run_jobs(cli, Refusal, jobs, 5.0, tmp_path, tracer=tracer)
    finally:
        tracer.restore()
    assert layers.leftover_wrappers() == []
    assert tracer.calls["cli.run_job"] == len(records)
    assert tracer.counters["polynomials_built"] > 0
    assert all(s is not None for s in tracer.spans)
    for name, fn in originals.items():
        assert getattr(cli, name) is fn
    assert dict(vars(Polynomial)) == methods


def test_fails_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-cache", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
