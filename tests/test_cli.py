import json
import os

import pytest

import nuchi.cli as cli
from nuchi.cli import cache_key, main, normalize_spec, run_job


def payload_bytes(envelope):
    return json.dumps(envelope["payload"], sort_keys=True, separators=(",", ":"))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ payloads

def test_behrend_payload(tmp_path, capsys):
    code, out, _ = run_cli(
        ["behrend", "--ring", "x,y", "--critical-locus", "x^3+y^3",
         "--point", "0,0", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    envelope = json.loads(out)
    assert envelope["payload"] == {"nu": 4, "route": "milnor", "mu": 4}
    assert any("Milnor" in note for note in envelope["provenance"])


def test_almost_closed_payload(tmp_path, capsys):
    code, out, _ = run_cli(
        ["almost-closed", "--ring", "x,y", "--form", "y", "x - x*y",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload == {
        "almost_closed": True,
        "certificates": [{"pair": [1, 2], "witness": "y"}],
    }


def test_milnor_refusal_exit_code(tmp_path, capsys):
    code, out, _ = run_cli(
        ["milnor", "--ring", "x", "--f", "x^3", "--point", "5",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    envelope = json.loads(out)
    assert envelope["refusal"]["code"] == "NOT_CRITICAL"


def test_input_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        ["milnor", "--ring", "x", "--f", "x + z", "--point", "0",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "z" in err


def test_nu_and_behrend_agree(tmp_path, capsys):
    _, out_nu, _ = run_cli(
        ["nu", "--ring", "x", "--critical-locus", "x^3", "--point", "0",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    _, out_b, _ = run_cli(
        ["behrend", "--ring", "x", "--critical-locus", "x^3", "--point", "0",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert json.loads(out_nu)["payload"]["nu"] == json.loads(out_b)["payload"]["nu"] == 2


def test_arc_check_payload(tmp_path, capsys):
    arc = tmp_path / "arc.txt"
    arc.write_text("order: 6\nx = u\ny = v*t\n")
    code, out, _ = run_cli(
        ["arc-check", "--ring", "x,y", "--form", "y", "0", "--arc", str(arc),
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["vanishing_order"] == 1
    assert payload["obstruction"] == [{"form": "du^dv", "coefficient": "1"}]
    assert payload["obstruction_is_zero"] is False


def test_weighted_euler_files(tmp_path, capsys):
    strata = tmp_path / "strata.json"
    strata.write_text(json.dumps([
        {"label": "pt", "chi": 1, "dim": 0, "how": "declared"}
    ]))
    func = tmp_path / "func.json"
    func.write_text(json.dumps({"pt": 2}))
    code, out, _ = run_cli(
        ["weighted-euler", "--strata", str(strata), "--function", str(func),
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["payload"]["weighted_euler"] == 2


def test_hilb_demo_payload(tmp_path, capsys):
    code, out, _ = run_cli(
        ["hilb-demo", "--n-max", "4", "--cache-dir", str(tmp_path)], capsys
    )
    payload = json.loads(out)["payload"]
    assert [row["count"] for row in payload["table"]] == [1, 1, 3, 6, 13]
    assert payload["match"] is True
    assert "external input" in payload["weight_note"]


# ------------------------------------------------------------------- caching

def job_behrend():
    return {
        "command": "behrend",
        "ring": {"vars": ["x", "y"], "char": 0},
        "critical_locus": "x^3+y^3",
        "point": "0,0",
    }


def test_cache_hit_is_byte_identical(tmp_path):
    first = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    second = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    assert first["cache"] == "miss" and second["cache"] == "hit"
    assert payload_bytes(first) == payload_bytes(second)
    off = run_job(job_behrend(), use_cache=False, cache_dir=tmp_path)
    assert off["cache"] == "off"
    assert payload_bytes(off) == payload_bytes(first)


def test_cache_hit_reports_its_lookup_time(tmp_path, monkeypatch):
    run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    clock = iter([100.0, 100.0025])
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
    hit = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    assert hit["cache"] == "hit"
    assert hit["timing_ms"] == 2.5


def test_cache_normalization_shares_entries(tmp_path):
    # different spellings of the same polynomial hash identically
    a = dict(job_behrend())
    b = dict(job_behrend())
    b["critical_locus"] = "y^3 + x^3"
    assert cache_key(normalize_spec(a)) == cache_key(normalize_spec(b))
    run_job(a, use_cache=True, cache_dir=tmp_path)
    second = run_job(b, use_cache=True, cache_dir=tmp_path)
    assert second["cache"] == "hit"


def test_cache_engine_version_bump_misses(tmp_path, monkeypatch):
    first = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    assert first["cache"] == "miss"
    monkeypatch.setattr(cli, "__version__", "0.0.0-test")
    bumped = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    assert bumped["cache"] == "miss"


def test_cache_corrupt_entry_recomputed(tmp_path, capsys):
    first = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    key = cache_key(normalize_spec(job_behrend()))
    entry = tmp_path / f"{key}.json"
    assert entry.exists()
    entry.write_text("{ this is not json")
    code, out, err = run_cli(
        ["behrend", "--ring", "x,y", "--critical-locus", "x^3+y^3",
         "--point", "0,0", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "corrupt cache entry" in err
    assert json.loads(out)["payload"] == first["payload"]
    # the entry was rewritten and is served again
    assert json.loads(entry.read_text())["payload"] == first["payload"]


def test_cache_store_uses_a_temp_file_per_writer(tmp_path, monkeypatch):
    sources = []
    replace = os.replace

    def recording_replace(src, dst):
        sources.append(src)
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", recording_replace)
    entry = tmp_path / "key.json"
    cli._cache_store(entry, {"payload": 1})
    cli._cache_store(entry, {"payload": 2})
    assert len(set(sources)) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["key.json"]
    assert json.loads(entry.read_text()) == {"payload": 2}


def test_cache_store_failure_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        cli._cache_store(tmp_path / "key.json", {"payload": object()})
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- batch mode

def test_batch_mode_preserves_order(tmp_path, capsys):
    jobs = [
        {"command": "milnor", "ring": {"vars": ["x", "y"], "char": 0},
         "f": "x^2 + y^2", "point": "0,0"},
        {"command": "hilb-demo", "n_max": 2},
        {"command": "behrend", "ring": {"vars": ["x"], "char": 0},
         "critical_locus": "x^3", "point": "0"},
    ]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    code, out, _ = run_cli(
        ["--jobs", str(jobs_file), "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 0
    envelopes = json.loads(out)
    assert [e["command"] for e in envelopes] == ["milnor", "hilb-demo", "behrend"]
    assert envelopes[0]["payload"]["mu"] == 1
    assert envelopes[2]["payload"]["nu"] == 2


def test_batch_mode_continues_after_failed_jobs(tmp_path, capsys):
    ring = {"vars": ["x"], "char": 0}
    ok = {"command": "milnor", "ring": ring, "f": "x^3", "point": "0"}
    refused = {"command": "milnor", "ring": ring, "f": "x^3", "point": "5"}
    malformed = {"command": "milnor", "ring": ring, "f": "x + z", "point": "0"}
    jobs_file = tmp_path / "jobs.json"

    untyped = [[1], dict(ok, ring=5), dict(ok, f=5)]
    jobs_file.write_text(json.dumps([ok, refused, malformed, ok] + untyped))
    code, out, _ = run_cli(["--jobs", str(jobs_file), "--no-cache"], capsys)
    envelopes = json.loads(out)
    assert code == 1
    assert [e["command"] for e in envelopes] == ["milnor"] * 4 + [None, "milnor", "milnor"]
    assert envelopes[0]["payload"] == envelopes[3]["payload"] == {"mu": 2}
    assert envelopes[1]["refusal"]["code"] == "NOT_CRITICAL"
    assert "'z'" in envelopes[2]["error"]["message"]
    assert all("error" in e for e in envelopes[4:])

    jobs_file.write_text(json.dumps([refused, ok]))
    code, out, _ = run_cli(["--jobs", str(jobs_file), "--no-cache"], capsys)
    assert code == 2
    assert [sorted(e) for e in json.loads(out)][1] == [
        "cache", "command", "engine_version", "payload", "provenance", "timing_ms"
    ]


def test_milnor_non_isolated_refusal(tmp_path, capsys):
    code, out, _ = run_cli(
        ["milnor", "--ring", "x,y", "--f", "x^2", "--point", "0,0",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["refusal"]["code"] == "NON_ISOLATED"


def test_milnor_past_degree_64(tmp_path, capsys):
    code, out, _ = run_cli(
        ["milnor", "--ring", "x,y", "--f", "x^70+y^2", "--point", "0,0",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["payload"]["mu"] == 69


def test_pretty_output_is_valid_json(tmp_path, capsys):
    code, out, err = run_cli(
        ["hilb-demo", "--n-max", "3", "--pretty", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["payload"]["match"] is True
    assert "count" in err  # the human table goes to stderr


def test_batch_determinism_across_runs(tmp_path, capsys):
    jobs = [
        {"command": "behrend", "ring": {"vars": ["x", "y"], "char": 0},
         "critical_locus": "x^3+y^3", "point": "0,0"},
        {"command": "normal-cone", "ring": {"vars": ["x", "y"], "char": 0},
         "ideal": ["x*y", "x^2"]},
    ]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(["--jobs", str(jobs_file), "--cache-dir", str(tmp_path)], capsys)
        envelopes = json.loads(out)
        outputs.append([payload_bytes(e) for e in envelopes])
    assert outputs[0] == outputs[1]
