"""nuchi benchmark: seeded closed-loop job passes through ``nuchi.cli.run_job``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload milnor-normal --seed 1 --seconds 25 --trace 0

One process, one client: the next job is sent only after the previous
verdict.  The seed fixes a list of jobs (``workloads.JOBS_PER_PASS`` of the
workload's stream), and the run sends the list pass after pass until the time
is up; the first pass always runs to its end.  The program keeps nothing
between jobs (the result cache is off, except on batch-cache, which gets an
empty cache directory for each pass), so every pass does the same work.  A
job's latency is its fastest over the passes, which leaves out the seconds
when the shared machine runs slow.  Each job gets the workload's time limit,
enforced by an interval timer in the same process.  Every answer is checked
against a closed-form reference computed without nuchi (``workloads.py``); a
wrong value, a repeated job whose payload bytes differ from the first run of
that job, or a job whose payload bytes differ between passes, makes the run
exit 1.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` its passes take turns with and without nuchi's public
functions wrapped (``layers.py``), and it reports per-module calls and self
time and counters from the traced passes, cache figures from the untraced
ones, and the tracing overhead.  It then sends the workload's probe of known defects
(``workloads.probe``), traced, and reports how many still fail and where
their time limit found them; the probe's jobs are not part of the job list
and are not counted in ``attempted`` and ``failed``.  The last stdout line is
one JSON object; a run record and, when traced, the spans go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed this many times before the job loop and again after it, so
# the median spans the run rather than one moment of a shared machine.
SETUP_REPEATS = 11
OUT_DIR = Path(".bench_out")


class JobLimit(BaseException):
    """Raised by the interval timer in a job that reached its time limit.

    A BaseException, so no handler inside nuchi can swallow it.
    """

    def __init__(self, where: str):
        super().__init__(where)
        self.where = where


# ------------------------------------------------------------------- setup

def _drop_nuchi() -> None:
    for name in [n for n in sys.modules if n == "nuchi" or n.startswith("nuchi.")]:
        del sys.modules[name]


def measure_setup(repeats: int) -> list:
    """Times to import nuchi and its CLI from a clean module table."""
    times = []
    for _ in range(repeats):
        _drop_nuchi()
        start = time.perf_counter()
        importlib.import_module("nuchi.cli")
        times.append(time.perf_counter() - start)
    return times


# -------------------------------------------------------------------- loop

def run_jobs(cli, refusal, jobs, limit, cache_dir, deadline=None, tracer=None):
    """Send the jobs one at a time, in order, until the list ends or the
    ``time.perf_counter`` clock passes ``deadline``.

    Returns the records; a record is (index, outcome, latency, payload JSON
    text or None, cache status or failure detail).
    """
    def on_alarm(signum, frame):
        raise JobLimit(tracer.innermost_span() if tracer is not None else "untraced")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    records = []
    try:
        for idx, (_, spec_text, _) in enumerate(jobs):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            spec = json.loads(spec_text)
            if tracer is not None:
                tracer.begin_job(idx)
            t0 = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, limit)
                    envelope = cli.run_job(spec, use_cache=cache_dir is not None, cache_dir=cache_dir)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                latency = time.perf_counter() - t0
                records.append((idx, "ok", latency, _payload_text(envelope["payload"]), envelope["cache"]))
            except JobLimit as exc:
                records.append((idx, "limit", time.perf_counter() - t0, None, exc.where))
            except refusal as exc:
                records.append((idx, "refused", time.perf_counter() - t0, None, exc.code))
            except Exception as exc:  # an unexpected error is a failed job, not a crash
                records.append((idx, "error", time.perf_counter() - t0, None, repr(exc)[:200]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return records


def run_passes(cli, refusal, jobs, limit, seconds, new_cache, tracer=None):
    """Pass after pass over ``jobs`` until ``seconds`` have passed.

    The first pass always runs to its end, so every job has a sample.  Each
    pass gets the cache directory ``new_cache()`` returns (None: cache off).
    Returns the passes, each a list of records, and the process's peak RSS
    in MB at the end of the first pass.  Later passes repeat its work, and
    their peak would also count the records kept, which grow with the number
    of passes a run makes.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        deadline = start + seconds if passes else None
        records = run_jobs(cli, refusal, jobs, limit, new_cache(), deadline, tracer)
        if records:
            passes.append(records)
        if len(passes) == 1 and deadline is None:
            first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, first_pass_rss_mb


def run_alternating(cli, refusal, jobs, limit, seconds, new_cache, tracer):
    """Traced and untraced passes in turn until ``seconds`` have passed.

    The first pass of each kind always runs to its end.  Taking turns gives
    both kinds the same share of the shared machine's fast and slow spells,
    so their fastest latencies can be compared.  Returns (traced passes,
    untraced passes).
    """
    traced, untraced = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        deadline = start + seconds if untraced else None
        tracer.install()
        try:
            records = run_jobs(cli, refusal, jobs, limit, new_cache(), deadline, tracer)
        finally:
            tracer.restore()
        if records:
            traced.append(records)
        records = run_jobs(cli, refusal, jobs, limit, new_cache(), deadline)
        if records:
            untraced.append(records)
    return traced, untraced


def _payload_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_records(jobs, passes) -> list:
    """Wrong answers: reference mismatches, repeats whose bytes differ from
    the job they repeat, and jobs whose bytes differ between passes."""
    wrong = []
    for records in passes:
        first = {}  # index -> payload of the job's answer in this pass
        for idx, outcome, _, payload, _ in records:
            if outcome != "ok":
                continue
            first[idx] = payload
            family, _, expect_text = jobs[idx]
            expect = json.loads(expect_text)
            problem = workloads.check(json.loads(payload), expect)
            original = expect.get("repeat_of")
            if problem is None and original in first and payload != first[original]:
                problem = f"payload bytes differ from job {original}"
            if problem is not None:
                wrong.append({"job": idx, "family": family, "problem": problem})
    answers = {}
    for records in passes:
        for idx, outcome, _, payload, _ in records:
            if outcome == "ok" and answers.setdefault(idx, payload) != payload:
                wrong.append({"job": idx, "family": jobs[idx][0],
                              "problem": "payload bytes differ between passes"})
    return wrong


# ----------------------------------------------------------------- metrics

def job_latencies(passes, limit) -> list:
    """Each job's fastest latency over the passes that reached it; a failed
    run counts as missing the time limit.

    On a shared host the same job list runs up to half again as long for
    seconds to minutes at a time; the fastest pass of each job is the closest
    to the program's own time.
    """
    samples = {}
    for records in passes:
        for idx, outcome, latency, _, _ in records:
            samples.setdefault(idx, []).append(latency if outcome == "ok" else limit)
    return [min(v) for _, v in sorted(samples.items())]


def end_to_end(passes, limit, setup_samples, rss_mb) -> dict:
    records = [r for p in passes for r in p]
    solved_share = sum(1 for r in records if r[1] == "ok") / len(records)
    per_job = job_latencies(passes, limit)
    return {
        "latency_p50_s": (statistics.median(per_job), "s"),
        "latency_p90_s": (statistics.quantiles(per_job, n=10)[8] if len(per_job) > 1 else per_job[0], "s"),
        # the throughput of one pass over the list at each job's fastest latency
        "solved_per_s": (solved_share * len(per_job) / sum(per_job), "1/s"),
        "solved_share": (solved_share, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


PER_JOB_CALLS = [f"{m}.{q}" for m, q, _ in layers.TRACED if q != "groebner_basis"] + [
    "groebner.groebner_basis.degrevlex",
    "groebner.groebner_basis.elim",
]
LIMIT_SITES = [
    "groebner.standard_basis",
    "groebner.groebner_basis.degrevlex",
    "groebner.groebner_basis.elim",
    "groebner.staircase_count",
    "groebner.normal_form",
    "cycles.rational_points_of_zero_dim",
    "singular.milnor_number",
    "cli.normalize_spec",
]


def per_layer(tracer, traced_passes, untraced_passes, probed, limit) -> dict:
    traced = [r for p in traced_passes for r in p]
    untraced = [r for p in untraced_passes for r in p]
    jobs = max(len(traced), 1)
    out = {}
    for name in PER_JOB_CALLS:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / jobs, "calls/job")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / jobs, "s/job")
    c = tracer.counters
    bases = c.get("bases", 0)
    out["groebner.bases_per_job"] = (bases / jobs, "bases/job")
    out["groebner.basis_elements"] = (c.get("basis_elements", 0) / bases if bases else 0.0, "elements/basis")
    out["groebner.coeff_bits_max"] = (c.get("coeff_bits_max", 0), "bits")
    out["poly.polynomials_built"] = (c.get("polynomials_built", 0) / jobs, "polys/job")
    hits = [r[2] for r in untraced if r[1] == "ok" and r[4] == "hit"]
    misses = [r[2] for r in untraced if r[1] == "ok" and r[4] == "miss"]
    out["cli.cache.hit_ratio"] = (len(hits) / max(len(hits) + len(misses), 1), "share")
    out["cli.cache.hit_p50_s"] = (statistics.median(hits) if hits else 0.0, "s")
    out["cli.cache.miss_p50_s"] = (statistics.median(misses) if misses else 0.0, "s")
    out["cli.cache.bytes_written"] = (c.get("cache_bytes_written", 0) / jobs, "bytes/job")
    # both kinds cover the whole job list: their first passes run to the end
    out["trace.overhead"] = (sum(job_latencies(traced_passes, limit))
                             / sum(job_latencies(untraced_passes, limit)), "ratio")
    out["failed_share"] = (sum(1 for r in traced if r[1] != "ok") / jobs, "share")
    out["known_defects.failed"] = (sum(1 for r in probed if r[1] != "ok"), "count")
    out["known_defects.refused"] = (sum(1 for r in probed if r[1] == "refused"), "count")
    stuck = Counter(r[4] for r in traced + probed if r[1] == "limit")
    for site in LIMIT_SITES:
        out[f"failed.limit.at.{site}"] = (stuck.pop(site, 0), "count")
    out["failed.limit.at.other"] = (sum(stuck.values()), "count")
    return out


def failure_counts(records) -> dict:
    return {kind: sum(1 for r in records if r[1] == kind) for kind in ("refused", "limit", "error")}


# -------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.LIMITS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src").resolve()
    if not (src / "nuchi" / "cli.py").is_file():
        print("error: run from the root of a nuchi checkout (src/nuchi not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    load_start = os.getloadavg()
    limit = workloads.LIMITS[args.workload]

    t0 = time.perf_counter()
    jobs = workloads.make_stream(args.workload, args.seed, workloads.JOBS_PER_PASS[args.workload])
    generate_s = time.perf_counter() - t0
    job_digest = workloads.digest(jobs)

    setup_samples = measure_setup(SETUP_REPEATS)
    cli = importlib.import_module("nuchi.cli")
    refusal = importlib.import_module("nuchi.errors").Refusal

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    use_cache = args.workload == "batch-cache"

    caches = []

    def fresh_cache():
        if not use_cache:
            return None
        path = OUT_DIR / f"cache-{tag}-{os.getpid()}-{len(caches)}"
        shutil.rmtree(path, ignore_errors=True)
        caches.append(path)
        return path.resolve()

    probe_jobs, probed, untraced = workloads.probe(args.workload), [], []
    try:
        if not args.trace:
            passes, rss_mb = run_passes(cli, refusal, jobs, limit, args.seconds, fresh_cache)
            setup_samples += measure_setup(SETUP_REPEATS)
            metrics = end_to_end(passes, limit, setup_samples, rss_mb)
            wrong = check_records(jobs, passes)
        else:
            tracer = layers.Tracer()
            passes, untraced = run_alternating(cli, refusal, jobs, limit, args.seconds, fresh_cache, tracer)
            # the probe gets a tracer of its own, so that the per-job figures
            # are the job list's alone
            probe_tracer = layers.Tracer()
            probe_tracer.install()
            try:
                probed = run_jobs(cli, refusal, probe_jobs, workloads.PROBE_LIMIT, None, tracer=probe_tracer)
            finally:
                probe_tracer.restore()
            metrics = per_layer(tracer, passes, untraced, probed, limit)
            wrong = check_records(jobs, passes + untraced) + check_records(probe_jobs, [probed])
            tracer.write_spans(OUT_DIR / f"spans-{tag}.jsonl")
            probe_tracer.write_spans(OUT_DIR / f"spans-{tag}-probe.jsonl")
    finally:
        for path in caches:
            shutil.rmtree(path, ignore_errors=True)

    records = [r for p in passes + untraced for r in p]
    attempted = len(records)
    failures = failure_counts(records)
    failed = sum(failures.values())
    families = Counter(jobs[r[0]][0] for r in records)
    failed_families = Counter(jobs[r[0]][0] for r in records if r[1] != "ok")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "limit_s": limit,
        "job_digest": job_digest,
        "jobs_per_pass": len(jobs),
        "passes": len(passes) + len(untraced),
        "generate_s": generate_s,
        "setup_samples_s": setup_samples,
        "attempted": attempted,
        "failures": failures,
        "slowest_solved_s": sorted((r[2] for r in records if r[1] == "ok"), reverse=True)[:5],
        "families_attempted": dict(sorted(families.items())),
        "families_failed": dict(sorted(failed_families.items())),
        "failure_details": [
            {"job": r[0], "family": jobs[r[0]][0], "outcome": r[1], "detail": r[4]}
            for r in records if r[1] != "ok"
        ],
        "probe": [
            {"job": r[0], "family": probe_jobs[r[0]][0], "outcome": r[1], "seconds": r[2],
             "detail": r[4]}
            for r in probed
        ],
        "wrong": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} limit {limit} s "
          f"digest {job_digest} ({len(jobs)} jobs a pass, {len(passes) + len(untraced)} passes)")
    print(f"jobs attempted {attempted} (latency samples: {len(jobs)} jobs, each its fastest pass), failed {failed}: "
          f"failed_share {failed / attempted:.4f} "
          + " ".join(f"{k} {v}" for k, v in failures.items()))
    if probed:
        print(f"probe of known defects: {len(probed)} jobs, "
              + " ".join(f"{k} {v}" for k, v in failure_counts(probed).items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for w in wrong[:10]:
        print(f"WRONG job {w['job']} ({w['family']}): {w['problem']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
