#!/usr/bin/env python3
"""One SHA-256 over the answers to a benchmark job list.

    python3 scripts/payload_digest.py --workload cycle-route --seed 7 [--jobs N]

The jobs are the first N of the seeded stream of a perfbench workload
(``perfbench/workloads.py``; N defaults to one pass of the workload).  Each
job runs through ``nuchi.cli.run_job`` with the cache off, and the digest
covers, per job in order, its canonical spec JSON (the cache key's text), its
payload and its provenance, or the refusal or error it raised.  It reads the
``src`` and ``perfbench`` directories of the checkout that holds this script,
so a copy of the script in another checkout digests that checkout: two
versions of the program answer alike when their digests match.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from nuchi import cli  # noqa: E402
from nuchi.errors import NuchiError  # noqa: E402


def job_record(raw: dict) -> list:
    try:
        spec_text = cli.canonical_spec_json(cli.normalize_spec(raw))
        envelope = cli.run_job(raw, use_cache=False)
    except NuchiError as exc:
        return [type(exc).__name__, str(exc)]
    return [spec_text, envelope["payload"], envelope["provenance"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.LIMITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, help="jobs to run (default: one pass)")
    args = parser.parse_args()
    count = args.jobs if args.jobs is not None else workloads.JOBS_PER_PASS[args.workload]
    digest = hashlib.sha256()
    for _, spec_text, _ in workloads.make_stream(args.workload, args.seed, count):
        record = job_record(json.loads(spec_text))
        digest.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
