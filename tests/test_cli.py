import ast
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import nuchi.arcs as arcs
import nuchi.cli as cli
import nuchi.errors as errors
import nuchi.euler as euler
import nuchi.poly as poly
from nuchi.cli import canonical_spec_json, cache_key, main, normalize_spec, run_job
from nuchi.errors import InputError


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
    code, out, _ = run_cli(
        ["milnor", "--ring", "x,y", "--f", "x^2 - x + y^3", "--point", "1/2,-2/3",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["refusal"]["code"] == "NOT_CRITICAL"


def test_refusal_messages_print_points_as_rationals(capsys):
    for args, message in [
        (["milnor", "--f", "x^2+y^2"], "df does not vanish at (1/2, 1)"),
        (["behrend", "--critical-locus", "x^2+y^2"],
         "(1/2, 1) is not on the critical locus of x^2 + y^2"),
        (["behrend", "--ideal", "x"], "generator x does not vanish at (1/2, 1)"),
    ]:
        code, out, _ = run_cli(args + ["--ring", "x,y", "--point", "1/2,1", "--no-cache"], capsys)
        assert code == 2
        assert json.loads(out)["refusal"]["message"] == message


def test_input_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        ["milnor", "--ring", "x", "--f", "x + z", "--point", "0",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "z" in err


def test_every_error_class_is_raised():
    # a class no raise names is dead: nothing can give its exit code or refusal code
    raised = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    bases = {"NuchiError", "InputError", "Refusal"}
    assert classes > bases
    assert sorted(classes - bases - raised) == []


@pytest.mark.parametrize("args", [
    ["milnor", "--ring", "x", "--point", "0"],
    ["cycle", "--ring", "x", "--class", "bogus", "--ideal", "x"],
    ["milnor", "--ring", "x", "--char", "abc", "--f", "x", "--point", "0"],
    ["hilb-demo", "--n-max", "2.5"],
    ["bogus"],
], ids=["missing-f", "unknown-class", "char-not-integer", "n-max-not-integer",
        "unknown-subcommand"])
def test_malformed_arguments_exit_1(args, capsys):
    # exit 2 is reserved for a verified refusal, so argparse's own code is not used
    with pytest.raises(SystemExit) as exited:
        main(args + ["--no-cache"])
    assert exited.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--help"], ["milnor", "--help"]])
def test_help_exits_0(args, capsys):
    with pytest.raises(SystemExit) as exited:
        main(args)
    assert exited.value.code == 0
    assert "usage:" in capsys.readouterr().out


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


def test_cache_off_builds_no_key(tmp_path, monkeypatch):
    def untouchable(*args):
        raise AssertionError("the cache is off")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "cache_key", untouchable)
        patch.setattr(cli, "default_cache_dir", untouchable)
        off = run_job(job_behrend(), use_cache=False)
    assert off["cache"] == "off"
    first = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    second = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    assert first["cache"] == "miss" and second["cache"] == "hit"
    assert payload_bytes(first) == payload_bytes(second) == payload_bytes(off)


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


def test_cache_source_change_misses(tmp_path, monkeypatch):
    first = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    assert first["cache"] == "miss"
    assert run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)["cache"] == "hit"
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    changed = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    assert changed["cache"] == "miss"
    assert payload_bytes(changed) == payload_bytes(first)


def test_source_digest_is_read_on_the_first_cache_key():
    probe = (
        "import nuchi.cli as c; n = c._source_digest.cache_info().currsize; "
        "c.cache_key({'command': 'hilb-demo', 'n_max': 1}); "
        "print(n, c._source_digest.cache_info().currsize, len(c._source_digest()))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.stdout.split() == ["0", "1", "64"], done.stderr


# One job per command, each in a non-canonical spelling, and the canonical
# JSON its cache key is built from.  A change to these strings moves every
# cache key of that command.
RING = {"vars": ["x", "y"], "char": 0}
PINNED_SPECS = [
    ({"command": "milnor", "ring": {"vars": ["x", "y"]}, "f": "y^3 + 1*x^2 + 0*x",
      "point": "0, -2/4"},
     '{"command":"milnor","f":"y^3 + x^2","point":["0","-1/2"],'
     '"ring":{"char":0,"vars":["x","y"]}}'),
    ({"command": "behrend", "ring": RING, "ideal": ["-x^2 + y", "2*x"], "point": ["1/2", 0]},
     '{"command":"behrend","ideal":["-x^2 + y","2*x"],"point":["1/2","0"],'
     '"ring":{"char":0,"vars":["x","y"]}}'),
    ({"command": "almost-closed", "ring": RING, "form": ["(y)", "-y*x + x"]},
     '{"command":"almost-closed","form":["y","-x*y + x"],"ring":{"char":0,"vars":["x","y"]}}'),
    ({"command": "arc-check", "ring": RING, "form": ["y", "0*x"],
      "arc": "order: 4\ny = t*v  # fibre\nx = u\n", "m": "2"},
     '{"arc":{"components":["(u)*t^0","(v)*t^1"],"order":4,"params":["u","v"]},'
     '"command":"arc-check","form":["y","0"],"m":2,"ring":{"char":0,"vars":["x","y"]}}'),
    ({"command": "normal-cone", "ring": {"vars": ["x", "y"], "char": 7},
      "ideal": ["y*x", "8*x^2"]},
     '{"command":"normal-cone","ideal":["x*y","x^2"],"ring":{"char":7,"vars":["x","y"]}}'),
    ({"command": "cycle", "ring": RING, "class": "monomial", "ideal": ["y*x^2", "x*x*x"]},
     '{"class":"monomial","command":"cycle","ideal":["x^2*y","x^3"],'
     '"ring":{"char":0,"vars":["x","y"]}}'),
    ({"command": "nu", "ring": RING, "critical_locus": "(x+y)^2 - 2*x*y", "point": [0, "0/3"]},
     '{"command":"nu","critical_locus":"x^2 + y^2","point":["0","0"],'
     '"ring":{"char":0,"vars":["x","y"]}}'),
    ({"command": "weighted-euler",
      "strata": [{"label": "pt", "chi": "1", "how": "Heuristic fit"},
                 {"label": 7, "chi": -1, "dim": "1"}],
      "function": {"pt": "2", "7": 3}},
     '{"command":"weighted-euler","function":{"7":3,"pt":2},"strata":['
     '{"chi":1,"dim":0,"heuristic":true,"how":"Heuristic fit","label":"pt"},'
     '{"chi":-1,"dim":1,"heuristic":false,"how":"declared","label":"7"}]}'),
    ({"command": "chi-oracle", "ring": RING, "ideal": ["y*x - 1"], "primes": "2, 3,5"},
     '{"command":"chi-oracle","ideal":["x*y - 1"],"primes":[2,3,5],'
     '"ring":{"char":0,"vars":["x","y"]}}'),
    ({"command": "hilb-demo", "n_max": "4"}, '{"command":"hilb-demo","n_max":4}'),
]


@pytest.mark.parametrize("raw, expected", PINNED_SPECS, ids=[r["command"] for r, _ in PINNED_SPECS])
def test_cache_key_input_is_pinned(raw, expected):
    assert canonical_spec_json(normalize_spec(raw)) == expected


def test_canonical_json_refuses_unknown_objects():
    with pytest.raises(TypeError):
        canonical_spec_json({"command": "milnor", "f": object()})


@pytest.mark.parametrize("raw, parses", [
    ({"command": "milnor", "ring": RING, "f": "x^2 + y^3", "point": "0,0"}, 1),
    ({"command": "nu", "ring": RING, "critical_locus": "x^2 + y^3", "point": "0,0"}, 1),
    ({"command": "arc-check", "ring": RING, "form": ["y", "0"], "arc": "x = u\ny = v*t"}, 4),
], ids=["milnor", "nu", "arc-check"])
def test_each_job_parses_its_polynomials_once(raw, parses, monkeypatch):
    calls = []
    parse = poly.parse_polynomial

    def counting_parse(text, ring):
        calls.append(text)
        return parse(text, ring)

    for module in (poly, arcs, cli):  # every module that calls it by name
        monkeypatch.setattr(module, "parse_polynomial", counting_parse)
    run_job(raw, use_cache=False)
    assert len(calls) == parses


def test_nu_on_a_critical_locus_builds_only_f(monkeypatch):
    # the partials are taken in the packing and the points are read off the
    # basis entries; identity coordinates have no basis element in more than
    # one variable, so the parsed f is the job's one Polynomial
    built = []
    init = poly.Polynomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(poly.Polynomial, "__init__", counting_init)
    raw = {"command": "nu", "ring": RING, "critical_locus": "x^3 - 3*x + y^2", "point": "1,0"}
    payload = run_job(raw, use_cache=False)["payload"]
    assert payload["nu"] == 1
    assert [term["data"]["coordinates"] for term in payload["cycle"]] == [["-1", "0"], ["1", "0"]]
    assert len(built) == 1


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


def test_cache_entry_that_is_not_utf8_is_recomputed(tmp_path, capsys):
    first = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    entry = tmp_path / f"{cache_key(normalize_spec(job_behrend()))}.json"
    entry.write_bytes(b"\xff\xfe{")
    envelope = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    assert "corrupt cache entry" in capsys.readouterr().err
    assert envelope["payload"] == first["payload"]
    assert json.loads(entry.read_text(encoding="utf-8"))["payload"] == first["payload"]


def test_cache_entry_removed_before_the_read_is_a_miss(tmp_path, monkeypatch, capsys):
    # a concurrent clean-up can remove the entry between any check and the
    # read; that is a miss, not a corrupt entry
    first = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    entry = tmp_path / f"{cache_key(normalize_spec(job_behrend()))}.json"
    assert entry.exists()

    def open_after_removal(path, *args, **kwargs):
        if path == entry:
            entry.unlink(missing_ok=True)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", open_after_removal, raising=False)
    envelope = run_job(job_behrend(), use_cache=True, cache_dir=tmp_path)
    assert capsys.readouterr().err == ""
    assert envelope["cache"] == "miss"
    assert envelope["payload"] == first["payload"]


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


def test_batch_mode_survives_deep_nesting(tmp_path, capsys):
    ok = {"command": "milnor", "ring": RING, "f": "x^2 + y^3", "point": "0,0"}
    depth = 2000
    jobs = [
        dict(ok, f="(" * depth + "x^2 + y^2" + ")" * depth),
        dict(ok, f="(" * depth + "x^2 + y^2"),
        dict(ok, f="x^\u00b2 + y^2"),
        ok,
    ]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    code, out, _ = run_cli(["--jobs", str(jobs_file), "--no-cache"], capsys)
    envelopes = json.loads(out)
    assert code == 1
    assert envelopes[0]["payload"] == {"mu": 1}
    assert "expected ')'" in envelopes[1]["error"]["message"]
    assert "unexpected character" in envelopes[2]["error"]["message"]
    assert envelopes[3]["payload"] == {"mu": 2}


def test_numeric_power_bound_is_the_same_with_cache_on_and_off(tmp_path, capsys):
    # the parser refuses 2^20000; it used to be answered with the cache off
    # and to fail printing the cache key with the cache on
    args = ["milnor", "--ring", "x,y", "--f", "2^20000*x^2 + y^2", "--point", "0,0"]
    off = run_cli(args + ["--no-cache"], capsys)
    on = run_cli(args + ["--cache-dir", str(tmp_path)], capsys)
    assert off == on
    assert off[0] == 1
    assert "power has more than 4300 digits at byte 2" in off[2]


def test_batch_mode_survives_numeric_power_bound(tmp_path, capsys):
    ok = {"command": "milnor", "ring": RING, "f": "x^2 + y^3", "point": "0,0"}
    jobs = [dict(ok, f="2^2147483647*x^2 + y^2"), dict(ok, f="2^20000*x^2 + y^2"), ok]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    for cache in (["--no-cache"], ["--cache-dir", str(tmp_path / "cache")]):
        code, out, _ = run_cli(["--jobs", str(jobs_file)] + cache, capsys)
        envelopes = json.loads(out)
        assert code == 1
        for envelope in envelopes[:2]:
            assert "power has more than 4300 digits" in envelope["error"]["message"]
        assert envelopes[2]["payload"] == {"mu": 2}


def test_batch_mode_malformed_fields_get_error_envelopes(tmp_path, capsys):
    ok = {"command": "milnor", "ring": RING, "f": "x^2 + y^2", "point": "0,0"}
    form = ["y", "0"]
    malformed = [
        {"command": "normal-cone", "ring": RING, "ideal": "xy"},
        {"command": "chi-oracle", "ring": RING, "ideal": ["x*y - 1"], "primes": 5},
        {"command": "almost-closed", "ring": RING, "form": 5},
        dict(ok, point=5),
        dict(ok, point=[True, 0]),
        dict(ok, point=[None, 0]),
        dict(ok, point=["0,0"]),
        {"command": "hilb-demo", "n_max": [1]},
        {"command": "hilb-demo", "n_max": 2.5},
        {"command": "hilb-demo", "n_max": float("inf")},
        {"command": "hilb-demo", "n_max": True},
        {"command": "arc-check", "ring": RING, "form": form, "arc": "x = u\ny = v*t", "m": [1]},
        {"command": "arc-check", "ring": RING, "form": form, "arc": 5},
        {"command": "weighted-euler", "strata": [{"label": "a", "chi": 1}], "function": 5},
        {"command": "weighted-euler", "strata": [{"label": "a"}], "function": {"a": 1}},
        {"command": "weighted-euler", "strata": {"a": 1}, "function": {"a": 1}},
        {"command": "weighted-euler", "strata": [{"label": "a", "chi": 1}], "function": {"a": "b"}},
        dict(ok, ring={"vars": [5]}),
    ]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps([ok] + malformed))
    code, out, _ = run_cli(["--jobs", str(jobs_file), "--no-cache"], capsys)
    envelopes = json.loads(out)
    assert code == 1
    assert [e["command"] for e in envelopes] == [j["command"] for j in [ok] + malformed]
    assert envelopes[0]["payload"] == {"mu": 1}
    assert all(sorted(e) == ["command", "engine_version", "error"] for e in envelopes[1:])
    messages = [e["error"]["message"] for e in envelopes[1:]]
    assert "got bool True" in messages[4] and "got NoneType None" in messages[5]


def test_batch_mode_non_prime_q_is_an_input_error(tmp_path, capsys):
    # q = 0 would count points over Q in range(0) and refuse with a bogus fit
    job = {"command": "chi-oracle", "ring": RING, "ideal": ["x*y"], "primes": "2,3"}
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps([job, dict(job, primes="0,2,3")]))
    code, out, _ = run_cli(["--jobs", str(jobs_file), "--no-cache"], capsys)
    first, second = json.loads(out)
    assert code == 1
    assert first["payload"]["chi"] == 1
    assert sorted(second) == ["command", "engine_version", "error"]
    assert "q = 0 is not a prime" in second["error"]["message"]


def test_exponent_notation_point_does_not_stall_a_batch(tmp_path, capsys):
    # "1e1000000" would build a million-digit integer; floats in an array
    # point are written out in full, so they still parse exactly
    ok = {"command": "milnor", "ring": {"vars": ["x"], "char": 0}, "f": "x^3", "point": "0"}
    floats = {"command": "milnor", "ring": {"vars": ["x", "y"], "char": 0},
              "f": "(x - 1/100000)^3 + (y - 10000000000000000)^2", "point": [1e-05, 1e16]}
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps([dict(ok, point="1e1000000"), ok, floats]))
    code, out, _ = run_cli(["--jobs", str(jobs_file), "--no-cache"], capsys)
    envelopes = json.loads(out)
    assert code == 1
    assert sorted(envelopes[0]) == ["command", "engine_version", "error"]
    assert "exponent notation" in envelopes[0]["error"]["message"]
    assert envelopes[1]["payload"] == {"mu": 2}
    assert envelopes[2]["payload"] == {"mu": 2}


def test_prime_field_point_splitting_is_an_input_error(tmp_path, capsys):
    # exit 2 is a verified "no"; over F_p the splitter has no verdict
    nu = ["--ring", "x", "--char", "7", "--critical-locus", "x^3-3*x", "--point", "1",
          "--no-cache"]
    code, out, err = run_cli(["nu"] + nu, capsys)
    assert code == 1 and out == "" and "characteristic 0" in err
    code, out, _ = run_cli(["behrend"] + nu, capsys)
    assert code == 0 and json.loads(out)["payload"]["nu"] == 1
    F5 = {"vars": ["x", "y"], "char": 5}
    jobs = [
        {"command": "nu", "ring": {"vars": ["x"], "char": 7},
         "critical_locus": "x^3-3*x", "point": "1"},
        {"command": "cycle", "ring": F5, "class": "regular-sequence", "ideal": ["x^2-1", "y"]},
    ]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    code, out, _ = run_cli(["--jobs", str(jobs_file), "--no-cache"], capsys)
    assert code == 1
    for envelope in json.loads(out):
        assert "characteristic 0" in envelope["error"]["message"]


def test_smoothness_over_a_prime_field_is_decided_in_that_field(capsys):
    # x + 2*y and 3*x + y cut out the line x + 2*y = 0 in F_5^2: their
    # Jacobian has rank 1 over F_5 (its determinant is -5), rank 2 over Q
    F5 = ["--ring", "x,y", "--char", "5", "--point", "0,0", "--no-cache"]
    smooth = {"dim": 1, "nu": -1, "route": "smooth"}
    code, out, _ = run_cli(["behrend", "--ideal", "x+2*y", "3*x+y"] + F5, capsys)
    assert code == 0 and json.loads(out)["payload"] == smooth
    code, out, _ = run_cli(["nu", "--class", "smooth", "--ideal", "x+2*y", "3*x+y"] + F5, capsys)
    assert code == 0 and json.loads(out)["payload"]["nu"] == smooth["nu"]
    # (x + 2*y)^2 is critical along the same line, with Hessian rank 1 over F_5
    code, out, _ = run_cli(["behrend", "--critical-locus", "x^2+4*x*y+4*y^2"] + F5, capsys)
    assert code == 0 and json.loads(out)["payload"] == smooth


def test_cycle_route_points_over_a_prime_field_are_residues(capsys):
    # 5 is 0 in F_5, and 1/5 is not an element of F_5
    def nu(point):
        return run_cli(["nu", "--ring", "x,y", "--char", "5", "--class", "monomial",
                        "--ideal", "x*y", "--point", point, "--no-cache"], capsys)

    code, at_origin, _ = nu("0,0")
    assert code == 0 and json.loads(at_origin)["payload"]["nu"] == -2
    code, out, _ = nu("5,0")
    assert code == 0 and json.loads(out)["payload"] == json.loads(at_origin)["payload"]
    code, out, err = nu("1/5,0")
    assert code == 1 and out == "" and "divisible by p = 5" in err


def test_empty_cycle_still_checks_the_point(capsys):
    # the unit ideal's cycle is empty, so no descriptor's ring checks the point
    def nu(point):
        return run_cli(["nu", "--ring", "x,y", "--char", "5", "--class", "regular-sequence",
                        "--ideal", "1", "x", "--point", point, "--no-cache"], capsys)

    code, out, _ = nu("0,0")
    assert code == 0 and json.loads(out)["payload"] == {"cycle": [], "nu": 0, "route": "cycle"}
    code, out, err = nu("1/5,0")
    assert code == 1 and out == "" and "divisible by p = 5" in err
    code, _, err = run_cli(["milnor", "--ring", "x,y", "--char", "5", "--f", "x",
                            "--point", "1/5,0", "--no-cache"], capsys)
    assert code == 1 and "divisible by p = 5" in err


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


def test_batch_mode_counts_exponents_up_to_the_limit(tmp_path, capsys):
    # the Hilbert counter keeps no list as long as a degree
    top = 2**31 - 1
    jobs = [
        {"command": "milnor", "ring": RING, "f": f"x^{top}+y^2", "point": "0,0"},
        {"command": "behrend", "ring": RING, "critical_locus": f"x^{top}+y^2", "point": "0,0"},
        {"command": "normal-cone", "ring": RING, "ideal": [f"x^{top}", "y^2"]},
        {"command": "cycle", "ring": RING, "class": "monomial", "ideal": [f"x^{top}", "y^2"]},
        {"command": "milnor", "ring": RING, "f": "x^10000000+y^2", "point": "0,0"},
        {"command": "milnor", "ring": RING, "f": "x^2+y^3", "point": "0,0"},
    ]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    code, out, _ = run_cli(["--jobs", str(jobs_file), "--no-cache"], capsys)
    payloads = [envelope["payload"] for envelope in json.loads(out)]
    assert code == 0
    assert payloads[0] == {"mu": top - 1}
    assert payloads[1] == {"mu": top - 1, "nu": top - 1, "route": "milnor"}
    assert payloads[2]["components"] == [{"multiplicity": 2 * top, "zero_variables": ["x", "y"]}]
    assert [c["coefficient"] for c in payloads[3]["cycle"]] == [2 * top]
    assert payloads[4] == {"mu": 9999999}
    assert payloads[5] == {"mu": 2}


def test_cycle_route_reads_eliminants_sparsely():
    # the eliminant x^(2^31 - 2) is read term by term: the job runs in a child
    # whose address space is capped at 1.5 GB, so a list as long as the
    # degree (16 GB) fails there with MemoryError instead of swapping
    top = 2**31 - 1
    limit = 3 * 2**29

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    job = (
        "import sys; from nuchi.cli import main; "
        f"sys.exit(main(['nu', '--ring', 'x,y', '--critical-locus', 'x^{top}+y^2', "
        "'--point', '0,0', '--no-cache']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", job], capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)["payload"]
    assert payload["nu"] == top - 1 and payload["route"] == "cycle"
    assert [c["coefficient"] for c in payload["cycle"]] == [top - 1]


BIG_ROOTS = [["100000000003", "0"], ["100000000019", "0"]]


@pytest.mark.parametrize("args,code,expected", [
    (["cycle", "--class", "regular-sequence", "--ideal", "x^2-10000000000000061", "y"],
     2, {"refusal": "IRRATIONAL_POINT"}),
    (["cycle", "--class", "regular-sequence", "--ideal", "(x-100000000003)*(x-100000000019)", "y"],
     0, {"cycle": BIG_ROOTS}),
    (["nu", "--critical-locus",
      "1/3*x^3 - 100000000011*x^2 + 10000000002200000000057*x + y^2",
      "--point", "100000000003,0"],
     0, {"cycle": BIG_ROOTS, "nu": 1}),
], ids=["irrational", "two-roots", "nu"])
def test_cycle_route_splits_large_coefficients_quickly(args, code, expected):
    # eliminants whose end coefficients have 12 to 23 digits and no small
    # factors: no divisor of them may be listed, so each job answers in
    # milliseconds; it runs in a child so that the time limit can stop it
    command = args[:1] + ["--ring", "x,y"] + args[1:] + ["--no-cache"]
    job = f"import sys; from nuchi.cli import main; sys.exit(main({command!r}))"
    done = subprocess.run(
        [sys.executable, "-c", job], capture_output=True, text=True, timeout=5,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert done.returncode == code, done.stderr
    envelope = json.loads(done.stdout)
    if "refusal" in expected:
        assert envelope["refusal"]["code"] == expected["refusal"]
        return
    payload = envelope["payload"]
    assert [t["data"]["coordinates"] for t in payload["cycle"]] == expected["cycle"]
    assert [t["coefficient"] for t in payload["cycle"]] == [1, 1]
    assert payload.get("nu") == expected.get("nu")


@pytest.mark.parametrize("m", [None, 1])
def test_arc_check_composes_each_component_once(monkeypatch, m):
    # the vanishing order and the obstruction are read off one composition
    calls = []
    compose = arcs.compose_along_arc

    def counting(f, arc):
        calls.append(f)
        return compose(f, arc)

    monkeypatch.setattr(arcs, "compose_along_arc", counting)
    spec = {"command": "arc-check", "ring": {"vars": ["x", "y", "z"], "char": 0},
            "form": ["y*z", "x*z", "x*y"], "arc": "x = u*t\ny = v*t\nz = w"}
    if m is not None:
        spec["m"] = m
    payload = run_job(spec, use_cache=False)["payload"]
    assert payload["vanishing_order"] == 1 and payload["m"] == 1
    assert len(calls) == 3


def test_hilb_demo_negative_size_is_an_input_error(tmp_path, capsys):
    code, _, err = run_cli(["hilb-demo", "--n-max", "-1", "--no-cache"], capsys)
    assert code == 1
    assert "n_max must be at least 0" in err
    jobs = [{"command": "hilb-demo", "n_max": -1}, {"command": "hilb-demo", "n_max": 2}]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    code, out, _ = run_cli(["--jobs", str(jobs_file), "--no-cache"], capsys)
    envelopes = json.loads(out)
    assert code == 1
    assert "n_max must be at least 0" in envelopes[0]["error"]["message"]
    assert [row["count"] for row in envelopes[1]["payload"]["table"]] == [1, 1, 3]


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


def test_weighted_euler_parses_its_inputs_once(monkeypatch):
    calls = []
    from_json = euler.Stratification.from_json
    init = euler.ConstructibleFunction.__init__

    def counting_from_json(data):
        calls.append("strata")
        return from_json(data)

    def counting_init(self, values):
        calls.append("function")
        init(self, values)

    monkeypatch.setattr(euler.Stratification, "from_json", staticmethod(counting_from_json))
    monkeypatch.setattr(euler.ConstructibleFunction, "__init__", counting_init)
    raw = {"command": "weighted-euler", "strata": [{"label": "pt", "chi": 1}],
           "function": {"pt": 2}}
    assert run_job(raw, use_cache=False)["payload"]["weighted_euler"] == 2
    assert sorted(calls) == ["function", "strata"]


def test_chi_oracle_on_a_prime_field_is_an_input_error(capsys):
    # reducing GF(7) residues mod q counts another polynomial: x^2 - 1 is
    # stored as x^2 + 6, which over F_3 is x^2
    job = {"command": "chi-oracle", "ring": {"vars": ["x"], "char": 7},
           "ideal": ["x^2-1"], "primes": "2,3,5"}
    with pytest.raises(InputError, match="characteristic 0"):
        run_job(job, use_cache=False)
    args = ["chi-oracle", "--ring", "x", "--char", "7", "--ideal", "x^2-1", "--primes", "2,3,5"]
    code, out, err = run_cli(args + ["--no-cache"], capsys)
    assert code == 1 and out == "" and "characteristic 0" in err


def test_chi_oracle_coefficient_without_a_reduction_is_an_input_error(capsys):
    # -1/2 has no residue mod 2, so x - 1/2 cannot be counted over F_2
    args = ["chi-oracle", "--ring", "x", "--ideal", "x - 1/2", "--primes", "2,3", "--no-cache"]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == "" and "divisible by p = 2" in err


# Each command's job as command-line flags, as (flag, values) pairs, and as
# JSON; the flags a command cannot run without are marked required.
ARC_TEXT = "order: 4\nx = u\ny = v*t"
STRATA = [{"label": "pt", "chi": 1, "how": "heuristic fit"}, {"label": "line", "chi": -1, "dim": 1}]
FUNCTION = {"pt": 2, "line": 3}
CLI_JOBS = [
    ("milnor", [("--ring", ["x,y"]), ("--f", ["x^2 + y^3"]), ("--point", ["0,0"])],
     {"ring": RING, "f": "x^2 + y^3", "point": "0,0"}, {"--ring", "--f", "--point"}),
    ("behrend", [("--ring", ["x,y"]), ("--critical-locus", ["x^3+y^3"]), ("--point", ["0,0"])],
     {"ring": RING, "critical_locus": "x^3+y^3", "point": "0,0"}, {"--ring", "--point"}),
    ("behrend", [("--ring", ["x,y"]), ("--ideal", ["x", "y^2"]), ("--point", ["0,0"])],
     {"ring": RING, "ideal": ["x", "y^2"], "point": "0,0"}, {"--ring", "--point"}),
    ("almost-closed", [("--ring", ["x,y"]), ("--form", ["y", "x - x*y"])],
     {"ring": RING, "form": ["y", "x - x*y"]}, {"--ring", "--form"}),
    ("arc-check", [("--ring", ["x,y"]), ("--form", ["y", "0"]), ("--arc-text", [ARC_TEXT]),
                   ("--m", ["1"])],
     {"ring": RING, "form": ["y", "0"], "arc": ARC_TEXT, "m": 1}, {"--ring", "--form"}),
    ("normal-cone", [("--ring", ["x,y"]), ("--char", ["7"]), ("--ideal", ["x*y", "x^2"])],
     {"ring": {"vars": ["x", "y"], "char": 7}, "ideal": ["x*y", "x^2"]}, {"--ring", "--ideal"}),
    ("cycle", [("--ring", ["x,y"]), ("--class", ["monomial"]), ("--ideal", ["x*y", "x^2"])],
     {"ring": RING, "class": "monomial", "ideal": ["x*y", "x^2"]},
     {"--ring", "--class", "--ideal"}),
    ("nu", [("--ring", ["x,y"]), ("--point", ["0,0"]), ("--critical-locus", ["x^2+y^2"])],
     {"ring": RING, "point": "0,0", "critical_locus": "x^2+y^2"}, {"--ring", "--point"}),
    ("nu", [("--ring", ["x,y"]), ("--point", ["0,0"]), ("--class", ["regular-sequence"]),
            ("--ideal", ["x", "y"])],
     {"ring": RING, "point": "0,0", "class": "regular-sequence", "ideal": ["x", "y"]},
     {"--ring", "--point"}),
    ("weighted-euler", [("--strata", ["strata.json"]), ("--function", ["function.json"])],
     {"strata": STRATA, "function": FUNCTION}, {"--strata", "--function"}),
    ("chi-oracle", [("--ring", ["x,y"]), ("--ideal", ["x*y - 1"]), ("--primes", ["2,3,5"])],
     {"ring": RING, "ideal": ["x*y - 1"], "primes": "2,3,5"},
     {"--ring", "--ideal", "--primes"}),
    ("hilb-demo", [("--n-max", ["3"])], {"n_max": 3}, {"--n-max"}),
]
CLI_JOB_IDS = [f"{c}-{i}" for i, (c, *_) in enumerate(CLI_JOBS)]


def test_cli_jobs_cover_every_command():
    assert sorted({c for c, *_ in CLI_JOBS}) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("command, flags, job, required", CLI_JOBS, ids=CLI_JOB_IDS)
def test_command_line_and_json_give_the_same_spec(command, flags, job, required, tmp_path,
                                                  monkeypatch):
    (tmp_path / "strata.json").write_text(json.dumps(STRATA))
    (tmp_path / "function.json").write_text(json.dumps(FUNCTION))
    monkeypatch.chdir(tmp_path)
    argv = [command] + [word for flag, values in flags for word in (flag, *values)]
    from_flags = cli._raw_spec_from_args(cli.build_parser().parse_args(argv))
    from_json = dict(job, command=command)
    assert canonical_spec_json(normalize_spec(from_flags)) == \
        canonical_spec_json(normalize_spec(from_json))


@pytest.mark.parametrize("command, flags, job, required", CLI_JOBS, ids=CLI_JOB_IDS)
def test_required_flags_stay_required(command, flags, job, required, capsys):
    # dropping a required flag is an argparse error (exit 1); any other flag
    # may be left out
    parser = cli.build_parser()
    for k, (dropped, _) in enumerate(flags):
        rest = flags[:k] + flags[k + 1:]
        argv = [command] + [word for flag, values in rest for word in (flag, *values)]
        if dropped in required:
            with pytest.raises(SystemExit) as exited:
                parser.parse_args(argv)
            assert exited.value.code == 1
            assert f"the following arguments are required: {dropped}" in capsys.readouterr().err
        else:
            assert parser.parse_args(argv).command == command


@pytest.mark.parametrize("command", ["bogus", ["milnor"], {"milnor": 1}, 5])
def test_unknown_commands_are_input_errors(command):
    with pytest.raises(InputError, match="unknown command"):
        normalize_spec({"command": command, "ring": RING})


@pytest.mark.parametrize("job, field", [
    ({"command": "behrend", "critical_locus": None, "point": "0,0"}, "critical_locus"),
    ({"command": "nu", "critical_locus": None, "point": "0,0"}, "critical_locus"),
    ({"command": "nu", "class": None, "ideal": ["x"], "point": "0,0"}, "class"),
])
def test_a_null_alternative_is_a_missing_field(job, field):
    # the field names the alternative, so its null value is reported like any
    # other missing required field
    with pytest.raises(InputError, match=f"command {job['command']} requires '{field}'"):
        normalize_spec(dict(job, ring=RING))
