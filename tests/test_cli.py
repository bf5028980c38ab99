import argparse
import contextlib
import hashlib
import inspect
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import time_limit
from practicum import InvalidInput, arith, cli, quadratics, representations
from practicum.arith import crt_solve
from practicum.cli import build_parser, main
from practicum.sieve import PracticalBitmap, sieve_practicals


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_test_command(capsys):
    data = run_json(capsys, "test", "88")
    assert data == {"n": 88, "practical": True, "chain": [[2, 3, 15], [11, 1, 180]]}
    data = run_json(capsys, "test", "10")
    assert data == {
        "n": 10,
        "practical": False,
        "witness": {"index": 2, "prime": 5, "bound": 4},
    }


def test_test_verify(capsys):
    data = run_json(capsys, "test", "88", "--verify")
    assert data["verified"] is True


def test_oracle_command(capsys):
    assert run_json(capsys, "oracle", "6") == {"n": 6, "practical": True}
    assert run_json(capsys, "oracle", "10") == {"n": 10, "practical": False}


def test_decompose_command(capsys):
    data = run_json(capsys, "decompose", "41", "--verify")
    for key, value in {"n": 41, "x": 3, "practical_part": 32, "m": 2, "s": 2}.items():
        assert data[key] == value
    assert data["certificate"]["base"] == 16
    assert data["verified"] is True


def test_ap_commands(capsys):
    data = run_json(capsys, "ap", "classify", "12", "2")
    assert data == {"a": 12, "b": 2, "case": "exactly_one", "d": 2, "unique_value": 2}
    data = run_json(capsys, "ap", "classify", "3", "5")
    assert data["case"] == "infinitely_many" and data["witness_prime"] == 2
    data = run_json(capsys, "ap", "stream", "3", "5", "--count", "3")
    assert data["values"] == [8, 20, 32]
    data = run_json(capsys, "ap", "witness", "3", "5", "--min", "100")
    assert data["value"] == 128 and data["n"] == 41
    assert data["verdict"]["type"] == "certificate" and data["verdict"]["value"] == 128


def test_poly_witness_command(capsys):
    data = run_json(capsys, "poly", "witness", "2,1,1")
    assert data["n"] == 3 and data["value"] == 14
    assert data["verdict"]["practical"] is False


def test_poly_witness_takes_a_negative_constant_after_a_double_dash(capsys):
    data = run_json(capsys, "poly", "witness", "--", "-5,1")  # as the README says
    assert data["coefficients"] == [-5, 1]


def test_quad_commands(capsys):
    data = run_json(capsys, "quad", "mq", "1", "0", "3", "2")
    assert data["m"] == 2
    assert data["witness"]["kind"] == "finite"
    data = run_json(capsys, "quad", "mq", "1", "1", "2", "2")
    assert data["m"] == "infinite"
    data = run_json(capsys, "quad", "classify", "1", "0", "3")
    assert data["case"] == "infinitely_many" and data["witness_n"] == 84
    data = run_json(capsys, "quad", "stream", "1", "1", "2", "--count", "3")
    assert data["values"] == [4, 8, 32]
    data = run_json(capsys, "quad", "witness", "1", "0", "3", "--min", "100")
    assert data["value"] > 100 and data["verdict"]["type"] == "certificate"
    assert data["verdict"]["value"] == data["value"]


@pytest.mark.parametrize("argv", [
    ["quad", "witness", "1", "0", "3", "--min", str(10**60)],  # value past the factoring budget
    ["quad", "witness", "1", "2", "1", "--min", str(10**12)],  # (n + 1)^2
])
def test_quad_witness_is_certified_without_factoring(capsys, argv):
    data = run_json(capsys, *argv)
    cert = data["verdict"]
    a, b, c = map(int, argv[2:5])
    n = data["n"]
    assert data["value"] == (a * n + b) * n + c >= int(argv[-1])
    assert cert["type"] == "certificate" and cert["bound_kind"] == "sigma"
    assert (cert["base"], cert["multiplier"]) == (data["modulus"], data["multiplier"])
    assert cert["value"] == cert["base"] * cert["multiplier"] == data["value"]
    assert cert["multiplier"] <= cert["bound"] == cert["base_evidence"]["chain"][-1][2] + 1


def test_family_command(capsys):
    data = run_json(capsys, "family", "5", "--count", "2", "--verify")
    assert data["members"] == [797, 1637]
    assert data["residue"] == 797 and data["modulus"] == 840
    assert data["verified"] is True


def test_goldbach_and_triples(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path))
    data = run_json(capsys, "goldbach", "100", "--verify")
    assert data["pair"] == [4, 96] and data["verified"] is True
    data = run_json(capsys, "triples", "--limit", "20")
    assert data["triples"] == [4, 6, 18]


def test_goldbach_verify_checks_parts_past_the_oracle_bound(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path))
    data = run_json(capsys, "--oracle-bound", "10", "goldbach", "1000", "--verify")
    assert data == {"n": 1000, "pair": [8, 992], "verified": True}
    # 22 = 2 * 11 and 978 = 2 * 3 * 163 are past the bound and not practical
    monkeypatch.setattr(representations, "goldbach_pair", lambda n, bitmap: (22, 978))
    code, out, err = run_cli(capsys, "--oracle-bound", "10", "goldbach", "1000", "--verify")
    assert (code, out) == (1, "") and "FALSIFICATION:" in err


def test_goldbach_rejects_odd_n_before_touching_cache(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    for n in ("3", "0", "-4"):
        code, out, err = run_cli(capsys, "goldbach", n)
        assert code == 2 and out == "" and "even" in err
    assert not cache.exists() or not any(cache.iterdir())


@pytest.mark.parametrize("argv", [
    ("triples", "--limit", "0"), ("count", "5", "--report", "0,5"), ("count", "0"),
    ("sieve", "--limit", "0"),
], ids=["triples", "report", "count", "sieve"])
def test_bad_bitmap_bounds_are_rejected_before_touching_cache(capsys, tmp_path, monkeypatch, argv):
    cache = tmp_path / "cache"
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and ">= 1" in err
    assert not cache.exists()


def test_quad_mq_rejects_composite_p(capsys):
    code, out, err = run_cli(capsys, "quad", "mq", "1", "0", "3", "4")
    assert code == 2 and out == "" and "prime" in err


def test_palindromic_command(capsys):
    data = run_json(capsys, "palindromic", "--count", "3")
    assert data["values"] == [88, 8888, 88888888]
    assert data["entries"][2]["evidence"]["multiplier"] == 10001
    data = run_json(capsys, "palindromic", "--count", "13")
    assert [e["digits"] for e in data["entries"]] == [len(str(v)) for v in data["values"]]


def test_sieve_cache_and_out(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    out_file = tmp_path / "prac.bits"
    data = run_json(capsys, "sieve", "--limit", "500", "--out", str(out_file))
    assert out_file.exists()
    bm = PracticalBitmap.load(out_file)
    assert bm.limit == 500
    assert data["count"] == bm.count(500)
    # second run reuses the cache (larger cached limits also satisfy smaller asks)
    data2 = run_json(capsys, "count", "400")
    assert data2["count"] == bm.count(400)
    cached = list(cache.glob("practical-*.bits"))
    assert len(cached) == 1


def test_count_report(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path))
    data = run_json(capsys, "count", "100", "--report", "10,100")
    assert data["count"] == data["rows"][1]["count"]
    assert data["rows"][0]["x"] == 10


def test_cache_write_is_atomic(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))

    def failing_save(self, path):
        with open(path, "wb") as fh:
            fh.write(b"PRAC")  # part of a header, then the disk fills up
        raise OSError("no space left on device")

    with monkeypatch.context() as m:
        m.setattr(PracticalBitmap, "save", failing_save)
        code, out, err = run_cli(capsys, "sieve", "--limit", "100")
    assert code == 2 and out == "" and "no space" in err
    assert list(cache.iterdir()) == []

    data = run_json(capsys, "sieve", "--limit", "500")
    assert [p.name for p in cache.iterdir()] == ["practical-500.bits"]
    assert data["path"] == str(cache / "practical-500.bits")

    # with the cache warm only --out is written, and a failed save leaves nothing there
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    with monkeypatch.context() as m:
        m.setattr(PracticalBitmap, "save", failing_save)
        code, out, err = run_cli(capsys, "sieve", "--limit", "500", "--out", str(out_dir / "p.bits"))
    assert code == 2 and out == "" and "no space" in err
    assert list(out_dir.iterdir()) == []


def test_two_sieves_at_once_leave_one_loadable_entry(tmp_path):
    # both processes miss the empty cache, fill the same entry and write it
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    argv = [sys.executable, "-m", "practicum.cli", "--cache-dir", str(cache),
            "sieve", "--limit", "200000"]
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    assert [p.name for p in cache.iterdir()] == ["practical-200000.bits"]  # no .tmp left
    bitmap = PracticalBitmap.load(cache / "practical-200000.bits")
    assert bitmap.limit == 200000 and bitmap.bits == sieve_practicals(200000).bits
    assert outputs[0][0] == outputs[1][0]


def test_corrupt_cache_entry_is_logged_and_rebuilt(capsys, caplog, tmp_path, monkeypatch):
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path / "clean"))
    clean = run_cli(capsys, "triples", "--limit", "498")
    cache = tmp_path / "cache"
    cache.mkdir()
    corrupt = cache / "practical-1000.bits"
    corrupt.write_bytes(b"NOPE" + bytes(200))
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    with caplog.at_level(logging.WARNING, logger="practicum"):
        assert run_cli(capsys, "triples", "--limit", "498") == clean  # stdout, stderr and exit code
    [record] = caplog.records
    assert record.name == "practicum" and record.levelno == logging.WARNING
    assert str(corrupt) in record.getMessage()
    assert (cache / "practical-500.bits").exists()


def test_count_skips_a_corrupt_cache_entry_without_writing(capsys, caplog, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    corrupt = cache / "practical-1000.bits"
    corrupt.write_bytes(b"NOPE" + bytes(200))
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    with caplog.at_level(logging.WARNING, logger="practicum"):
        data = run_json(capsys, "count", "500", "--report", "20,500")
    assert data == {"x": 500, "count": 110, "rows": [
        {"x": 20, "count": 9, "ratio": 9 * math.log(20) / 20},
        {"x": 500, "count": 110, "ratio": 110 * math.log(500) / 500}]}
    [record] = caplog.records
    assert str(corrupt) in record.getMessage()
    assert list(cache.iterdir()) == [corrupt]


def test_a_cache_entry_whose_header_limit_differs_from_its_name_is_skipped(
        capsys, caplog, tmp_path, monkeypatch):
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path / "clean"))
    clean = run_cli(capsys, "sieve", "--limit", "8000")
    cache = tmp_path / "cache"
    cache.mkdir()
    misnamed = cache / "practical-9000.bits"
    sieve_practicals(5000).save(misnamed)  # a bitmap to 5000 under a name that claims 9000
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    with caplog.at_level(logging.WARNING, logger="practicum"):
        assert run_json(capsys, "count", "8000")["count"] == json.loads(clean[1])["count"]
        code, out, err = run_cli(capsys, "sieve", "--limit", "8000")
    assert (code, json.loads(out)["count"]) == (0, json.loads(clean[1])["count"]), err
    assert len(caplog.records) == 2
    for record in caplog.records:
        assert str(misnamed) in record.getMessage()
        assert "header limit 5000 differs from its name" in record.getMessage()
    assert PracticalBitmap.load(cache / "practical-8000.bits").limit == 8000


def test_count_never_builds_or_writes_a_bitmap(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    data = run_json(capsys, "count", "10000", "--report", "10000,100,10,100")
    assert [data["count"]] + [row["count"] for row in data["rows"]] == [1456, 1456, 30, 5, 30]
    assert list(cache.iterdir()) == []  # a cache miss leaves the cache directory empty
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path / "absent"))
    assert run_json(capsys, "count", "100")["count"] == 30
    assert not (tmp_path / "absent").exists()
    # a cached bitmap answers only when it covers x and every checkpoint
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    run_json(capsys, "sieve", "--limit", "1000")
    with monkeypatch.context() as m:
        m.setattr(PracticalBitmap, "count", lambda self, x: -1)
        assert run_json(capsys, "count", "1000", "--report", "10")["count"] == -1
        assert run_json(capsys, "count", "500", "--report", "1001")["count"] == 110
    assert [p.name for p in cache.iterdir()] == ["practical-1000.bits"]


def test_count_beyond_the_bitmap_memory_budget(capsys, tmp_path, monkeypatch):
    # a bitmap to 2.2 * 10^9 exceeds the 2 GiB memory budget; the tree count does not
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path))
    assert run_json(capsys, "count", "2200000000")["count"] == 137323446
    assert list(tmp_path.iterdir()) == []
    # a fill to 2^31 holds its flags, the packed bits twice and the walk: 2.71 GB
    code, out, err = run_cli(capsys, "sieve", "--limit", str(2**31))
    assert (code, out) == (2, "")
    message = f"needs 2712272950 bytes, over sieve.DEFAULT_MEMORY_BUDGET = {2**31}"
    assert err.rstrip().endswith(message)


def test_count_caps_x_and_every_checkpoint(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path))
    for argv in (["count", str(10**12 + 1)], ["count", "10", "--report", f"20,{10**12 + 1}"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and f"<= {10**12} (_COUNT_CAP), got {10**12 + 1}" in err
    # at the cap a count runs; past it, not (a small cap keeps the walk short)
    monkeypatch.setattr(cli, "_COUNT_CAP", 1000)
    assert run_json(capsys, "count", "100", "--report", "1000")["rows"][0]["count"] == 198
    assert run_cli(capsys, "count", "1001")[0] == 2
    assert list(tmp_path.iterdir()) == []


def test_integers_beyond_the_str_digit_limit(capsys):
    # 10^4335 has 4336 digits; the palindromic chain's 13th value has 8192
    s2, s5 = 2**4336 - 1, (5**4336 - 1) // 4
    data = run_json(capsys, "test", "1" + "0" * 4335)
    assert data["chain"] == [[2, 4335, s2], [5, 4335, s2 * s5]]
    data = run_json(capsys, "palindromic", "--count", "13")
    assert data["entries"][-1]["digits"] == 8192


def test_output_formats_and_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path))
    code1, out1, _ = run_cli(capsys, "test", "88")
    code2, out2, _ = run_cli(capsys, "test", "88")
    assert code1 == code2 == 0 and out1 == out2

    code, out, _ = run_cli(capsys, "--format", "plain", "goldbach", "100")
    assert code == 0
    assert "pair = [4,96]" in out

    code, out, _ = run_cli(capsys, "--format", "csv", "ap", "classify", "12", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,case,d,unique_value"
    assert lines[1] == "12,2,exactly_one,2,2"


def test_config_file(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "plain", "cache-dir": str(tmp_path)}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "oracle", "6")
    assert code == 0
    assert "practical = True" in out
    # explicit flags override the config file
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--format", "json", "oracle", "6")
    assert json.loads(out)["practical"] is True

    # cache directory: flag > config file > PRACTICUM_CACHE_DIR
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path / "env"))
    cfg.write_text(json.dumps({"cache-dir": str(tmp_path / "file")}))
    run_json(capsys, "--config", str(cfg), "sieve", "--limit", "10")
    run_json(capsys, "--config", str(cfg), "--cache-dir", str(tmp_path / "flag"), "sieve", "--limit", "10")
    assert (tmp_path / "file" / "practical-10.bits").exists()
    assert (tmp_path / "flag" / "practical-10.bits").exists()
    assert not (tmp_path / "env").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no-such-key": 1}))
    code, _, err = run_cli(capsys, "--config", str(bad), "oracle", "6")
    assert code == 2 and "no-such-key" in err


def test_bad_config_values_exit_2(capsys, tmp_path):
    cases = {
        '{"scan-bound": "abc"}': "scan-bound",
        '{"oracle-bound": null}': "oracle-bound",
        '{"format": "json",': "config file",
        '[["format", "plain"]]': "JSON object",
        '{"scan-bound": 0}': "scan-bound must be positive",
        '{"factor-work": 100.9}': "factor-work",
        '{"factor-work": true}': "factor-work",
        '{"cache-dir": null}': "cache-dir",  # not the directory "None"
        '{"cache-dir": 5}': "cache-dir",
    }
    cfg = tmp_path / "cfg.json"
    for text, message in cases.items():
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "--config", str(cfg), "oracle", "6")
        assert (code, out) == (2, ""), text
        assert message in err and "Traceback" not in err, text
    # a config value takes its flag's type
    cfg.write_text('{"oracle-bound": "100"}')
    code, _, err = run_cli(capsys, "--config", str(cfg), "oracle", "101")
    assert code == 2 and "101" in err


def test_argument_checks_raise_invalid_input(tmp_path):
    # each check of the config file, the flag values and the output format
    for text in ('{"format": "json",', '[1]', '{"no-such-key": 1}', '{"scan-bound": "abc"}',
                 '{"scan-bound": 0}', '{"format": "xml"}'):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        args = build_parser().parse_args(["--config", str(cfg), "test", "6"])
        with pytest.raises(InvalidInput):
            cli._resolve_globals(args)
    with pytest.raises(InvalidInput, match="unknown output format: xml"):
        cli.emit({}, "xml")


def test_config_format_is_rejected_before_the_command_runs(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cache = tmp_path / "cache"
    cfg.write_text(json.dumps({"format": "xml", "cache-dir": str(cache)}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "sieve", "--limit", "1000")
    assert (code, out) == (2, "") and "unknown output format: xml" in err
    assert not cache.exists() or list(cache.iterdir()) == []


def test_exit_codes(capsys, monkeypatch):
    # usage errors: argparse exits 2, also for the removed global flags
    for argv in (["nonsense"], ["--trial-bound", "1", "test", "6"],
                 ["--sieve-limit", "10", "sieve"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    # one list parser: an empty part is an error in every comma-separated list
    for argv in (["poly", "witness", "1,,2"], ["poly", "witness", "x"],
                 ["count", "100", "--report", "10,"], ["count", "100", "--report", ""]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "not a comma-separated list of integers" in capsys.readouterr().err, argv

    # budget errors: exit 2
    big = str((2**61 - 1) * (2**89 - 1))
    with monkeypatch.context() as m:
        m.setattr(arith, "_TRIAL_BOUND", 100)
        code, _, err = run_cli(capsys, "--factor-work", "1000", "test", big)
    assert code == 2
    assert "work limit" in err
    assert "raise --factor-work (factor_budget's work_limit)" in err

    # scan and search limits: exit 2, naming the flag that raises them
    for argv in (("--scan-bound", "10", "ap", "stream", "3", "5", "--count", "100"),
                 ("--scan-bound", "30", "quad", "stream", "1", "1", "2", "--count", "500")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "raise --scan-bound (n_limit)" in err, argv
    code, _, err = run_cli(capsys, "--scan-bound", "4", "poly", "witness", "0,6")
    assert code == 2 and "raise --scan-bound (n_limit)" in err
    code, _, err = run_cli(capsys, "--scan-bound", "100001", "poly", "witness", "2,1,1")
    assert code == 2 and "_POLY_BOUND_CAP" in err

    # domain errors: exit 2
    code, _, err = run_cli(capsys, "decompose", "12")
    assert code == 2
    code, _, err = run_cli(capsys, "family", "1", "--count", "1")
    assert code == 2

    # oracle bound: exit 2
    code, _, err = run_cli(capsys, "--oracle-bound", "100", "oracle", "101")
    assert code == 2 and "raise --oracle-bound (bound)" in err


def test_unknown_global_flag_is_named(capsys):
    # argparse alone would report the flag's value as an invalid subcommand
    for argv, flag in ((["--trial-bound", "1", "test", "6"], "--trial-bound"),
                       (["--trial-bound=1", "test", "6"], "--trial-bound"),
                       (["--bound", "4", "poly", "witness", "0,6"], "--bound"),
                       (["-x", "1", "test", "6"], "-x")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv
        assert f"unrecognized global flag: {flag}" in err and "invalid choice" not in err, argv
    # a `--` ends the global flags; what follows it must be the command
    assert run_cli(capsys, "--", "test", "6") == run_cli(capsys, "test", "6")
    assert run_cli(capsys, "--form", "csv", "--", "test", "6")[0] == 0
    for argv in (["--", "--bogus"], ["--", "--format", "csv", "test", "6"], ["--"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "invalid choice" not in capsys.readouterr().err, argv
    # known flags, with a value after = or abbreviated, still parse
    code, out, _ = run_cli(capsys, "--form", "csv", "--scan-bound=4", "test", "6")
    assert (code, out) == (0, "n,practical,chain\n6,True,[[2,1,3],[3,1,12]]\n")
    # -h and a prefix of several flags are argparse's to answer
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0 and "usage: practicum" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["--c", "x", "test", "6"])
    assert exc.value.code == 2
    assert "ambiguous option: --c could match --cache-dir, --config" in capsys.readouterr().err


def test_one_scan_bound_default():
    from practicum import practical, progressions, quadratics

    default = practical.DEFAULT_SCAN_BOUND
    assert cli._GLOBAL_FLAGS["scan-bound"] == default
    for scan in (progressions.ap_practical_stream, quadratics.quad_practical_stream,
                 progressions.nonpractical_witness):
        assert inspect.signature(scan).parameters["n_limit"].default == default, scan.__name__


def _option_names(parser):
    """The --options of every subparser below parser, without their dashes."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from (s[2:] for a in sub._actions for s in a.option_strings
                            if s.startswith("--"))
                yield from _option_names(sub)


def test_every_raise_hint_names_a_live_option():
    # a budget error names the knob that raises the budget
    hints = {name for path in Path(cli.__file__).parent.glob("*.py")
             for name in re.findall(r"raise --([a-z-]+)", path.read_text(encoding="utf-8"))}
    assert {"scan-bound", "factor-work", "oracle-bound"} <= hints
    live = set(cli._GLOBAL_FLAGS) | set(_option_names(build_parser()))
    assert hints <= live, hints - live


# 1000003 * 1000033: no factor within 10 units of factoring work
_SEMIPRIME = "1000036000099"
# 2^20 * 1000003 * 1000033 and 2^24 * 1000003 * 1000033: sigma(2^20) + 1 > 10^6,
# so Stewart's walk over gcd(a, b) must reach the semiprime's primes
_WIDE_GCD = str(2**20 * int(_SEMIPRIME))
_WIDER_GCD = str(2**24 * int(_SEMIPRIME))


@pytest.mark.parametrize("argv", [
    ["ap", "classify", _WIDER_GCD, _WIDER_GCD],
    ["ap", "stream", _SEMIPRIME, _SEMIPRIME, "--count", "1"],
    ["ap", "witness", _WIDE_GCD, _WIDE_GCD, "--min", "5"],
    ["poly", "witness", f"0,{_SEMIPRIME}"],
], ids=" ".join)
def test_factor_work_reaches_every_command_that_factors(capsys, argv):
    code, out, err = run_cli(capsys, "--factor-work", "10", *argv)
    assert (code, out) == (2, "")
    assert "raise --factor-work" in err


@pytest.mark.parametrize("limit, n", [
    ("1", "30"),  # the trial stage runs out with 15 left
    ("10", "2000072000198"),  # the trial stage runs out with 1000036000099 left
    ("6543", "2000072000198"),  # Pollard-Brent runs out on 1000036000099
])
def test_factor_work_error_names_the_number_asked_about(capsys, limit, n):
    code, out, err = run_cli(capsys, "--factor-work", limit, "test", n)
    assert (code, out) == (2, "")
    assert f"while factoring {n}: raise --factor-work" in err


# One input per command that the factor budget bounds, each needing more
# than one unit of factoring work.
_NEEDS_FACTORING = {
    "test": ["test", _SEMIPRIME],
    "ap classify": ["ap", "classify", _WIDER_GCD, _WIDER_GCD],
    "ap stream": ["ap", "stream", _SEMIPRIME, _SEMIPRIME, "--count", "1"],
    "ap witness": ["ap", "witness", _WIDE_GCD, _WIDE_GCD, "--min", "5"],
    "poly witness": ["poly", "witness", f"0,{_SEMIPRIME}"],
    # q(1) = 2^20 * 1000003 * 1000033, and sigma(2^20) + 1 > 10^6
    "quad stream": ["quad", "stream", "1", "0", str(2**20 * int(_SEMIPRIME) - 1), "--count", "1"],
    # the first member is 24 mod 32: sigma(8) + 1 = 16 passes the primes 2 and 3
    "family --verify": ["family", "0", "--count", "1", "--verify"],
    # the m_q walks pay a unit per prime, and p_r is 5 for n^2 + 1, 7 for n^2 + 3
    "quad classify": ["quad", "classify", "1", "0", "1"],
    "quad witness": ["quad", "witness", "1", "0", "3", "--min", "100"],
}


def test_readme_lists_every_command_the_factor_budget_bounds(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    bullet = readme.split("- `--factor-work`:", 1)[1]
    assert sorted(re.findall(r"`([^`]+)`", bullet.split(".", 1)[0])) == sorted(_NEEDS_FACTORING)
    for name, argv in _NEEDS_FACTORING.items():
        code, out, err = run_cli(capsys, "--factor-work", "1", *argv)
        assert (code, out) == (2, ""), name
        assert "raise --factor-work" in err, name


# Every subcommand, each integer argument a slot for an edge value.
_EDGE_INTEGERS = (0, 1, -1, 2, 3, -7, 10**40)
_TEMPLATES = (
    "test {} --verify", "oracle {}", "sieve --limit {}", "count {} --report {},{}",
    "ap classify {} {}", "ap stream {} {} --count {}", "ap witness {} {} --min {}",
    "--scan-bound {} poly witness {},{},{}", "quad mq {} {} {} {}", "quad classify {} {} {}",
    "quad stream {} {} {} --count {}", "quad witness {} {} {} --min {}",
    "decompose {} --verify", "family {} --count {} --verify", "goldbach {} --verify",
    "triples --limit {}", "palindromic --count {}",
)


def _subcommands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, (*prefix, name))
            return
    yield " ".join(prefix)


def test_fuzz_templates_cover_every_subcommand():
    named = {" ".join(w for w in t.split() if w.isalpha()) for t in _TEMPLATES}
    assert named == set(_subcommands(build_parser()))


def _converter_name(converter):
    """A builtin type's name, or the return annotation of a converter function,
    so that the name of a private converter is not frozen."""
    if converter is None or isinstance(converter, type):
        return converter and converter.__name__
    return converter.__annotations__["return"]


def _parser_tree(parser, words=()):
    """Every subcommand below parser, in help order: its words, help, group
    dest, usage prog and handler, and each of its actions."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for name, sub in action.choices.items():
                func = sub._defaults.get("func")
                yield {"words": [*words, name], "help": helps[name], "group_dest": action.dest,
                       "prog": sub.prog, "handler": func and func.__name__,
                       "actions": [[a.dest, a.option_strings, _converter_name(a.type),
                                    a.required, repr(a.default), a.help, type(a).__name__,
                                    a.choices if a.choices is None else list(a.choices)]
                                   for a in sub._actions
                                   if not isinstance(a, argparse._SubParsersAction)]}
                yield from _parser_tree(sub, (*words, name))


def test_subcommand_tree_is_frozen():
    # Computed at 4f955b9, before the command table replaced the hand-written
    # parser blocks.  A structural digest, not format_help(): argparse's help
    # layout differs between Python versions.
    tree = list(_parser_tree(build_parser()))
    assert len(tree) == 20  # 17 commands and the ap, poly and quad groups
    digest = hashlib.sha256(json.dumps(tree, sort_keys=True).encode()).hexdigest()
    assert digest == "80ee09b1cace775a6268ff98e5780a43ec0ef844b51eedd4c9faa87f626add5f"


@pytest.mark.parametrize("template", _TEMPLATES)
@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.sampled_from(_EDGE_INTEGERS), min_size=4, max_size=4))
def test_edge_integers_exit_0_or_2_under_a_small_factor_work(template, values, tmp_path_factory):
    cache = tmp_path_factory.getbasetemp() / "fuzz-cache"
    argv = ["--factor-work", "1000", "--cache-dir", str(cache),
            *template.format(*values).split()]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with time_limit(5):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 2), argv


def test_uncaught_exception_exits_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(cli, "_cmd_test", broken)
    code, out, err = run_cli(capsys, "test", "88")
    assert (code, out) == (3, "")
    assert "internal error: RuntimeError: handler bug" in err


def test_bitmap_command_without_numpy_exits_3(tmp_path):
    child = ("import sys\n"
             "sys.modules['numpy'] = None\n"
             "from practicum.cli import main\n"
             "sys.exit(main(['sieve', '--limit', '100']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent),
               PRACTICUM_CACHE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "internal error: ModuleNotFoundError" in proc.stderr


@pytest.mark.parametrize("argv, module, name, fake", [
    # x = 2 is even: n - x^2 leaves the 2-adic class the split guarantees
    (["decompose", "41"], representations, "sqrt_mod_power_of_two", lambda m, k: 2),
    # a class that reaches the level bound m_q cannot exceed, without the gap
    (["quad", "mq", "1", "0", "1", "2"], quadratics, "_class_split",
     lambda a, b, c, p, k: [(1, 2**k, k)]),
    # a CRT solution one off no longer makes q(n) divisible by the modulus
    (["quad", "witness", "1", "0", "3", "--min", "100"], quadratics, "crt_solve",
     lambda combo: (lambda r, m: (r + 1, m))(*crt_solve(combo))),
], ids=["decompose", "lifting", "crt"])
def test_broken_invariants_are_falsifications(capsys, monkeypatch, argv, module, name, fake):
    monkeypatch.setattr(module, name, fake)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("FALSIFICATION: ")
