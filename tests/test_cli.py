import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from practicum import cli, quadratics, representations
from practicum.arith import crt_solve
from practicum.cli import main
from practicum.sieve import PracticalBitmap


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


def test_goldbach_rejects_odd_n_before_touching_cache(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    for n in ("3", "0", "-4"):
        code, out, err = run_cli(capsys, "goldbach", n)
        assert code == 2 and out == "" and "even" in err
    assert not cache.exists() or not any(cache.iterdir())


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
        code, out, err = run_cli(capsys, "count", "100")
    assert code == 2 and out == "" and "no space" in err
    assert list(cache.iterdir()) == []

    data = run_json(capsys, "sieve", "--limit", "500")
    assert [p.name for p in cache.iterdir()] == ["practical-500.bits"]
    assert data["path"] == str(cache / "practical-500.bits")


def test_corrupt_cache_entry_is_logged_and_rebuilt(capsys, caplog, tmp_path, monkeypatch):
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path / "clean"))
    clean = run_cli(capsys, "count", "500")
    cache = tmp_path / "cache"
    cache.mkdir()
    corrupt = cache / "practical-1000.bits"
    corrupt.write_bytes(b"NOPE" + bytes(200))
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(cache))
    with caplog.at_level(logging.WARNING, logger="practicum"):
        assert run_cli(capsys, "count", "500") == clean  # stdout, stderr and exit code
    [record] = caplog.records
    assert record.name == "practicum" and record.levelno == logging.WARNING
    assert str(corrupt) in record.getMessage()
    assert (cache / "practical-500.bits").exists()


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
    run_json(capsys, "--config", str(cfg), "count", "10")
    run_json(capsys, "--config", str(cfg), "--cache-dir", str(tmp_path / "flag"), "count", "10")
    assert (tmp_path / "file" / "practical-10.bits").exists()
    assert (tmp_path / "flag" / "practical-10.bits").exists()
    assert not (tmp_path / "env").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no-such-key": 1}))
    code, _, err = run_cli(capsys, "--config", str(bad), "oracle", "6")
    assert code == 2 and "no-such-key" in err


def test_bad_config_values_exit_2(capsys, tmp_path):
    cases = {
        '{"sieve-limit": "abc"}': "sieve-limit",
        '{"oracle-bound": null}': "oracle-bound",
        '{"format": "json",': "config file",
        '[["format", "plain"]]': "JSON object",
        '{"scan-bound": 0}': "scan-bound must be positive",
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


def test_config_format_is_rejected_before_the_command_runs(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cache = tmp_path / "cache"
    cfg.write_text(json.dumps({"format": "xml", "cache-dir": str(cache)}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "sieve", "--limit", "1000")
    assert (code, out) == (2, "") and "unknown output format: xml" in err
    assert not cache.exists() or list(cache.iterdir()) == []


def test_exit_codes(capsys):
    # usage errors: argparse exits 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    for coeffs in ("1,,2", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "witness", coeffs])
        assert exc.value.code == 2

    # budget errors: exit 2
    big = str((2**61 - 1) * (2**89 - 1))
    code, _, err = run_cli(capsys, "--factor-work", "1000", "--trial-bound", "100", "test", big)
    assert code == 2
    assert "work limit" in err

    # domain errors: exit 2
    code, _, err = run_cli(capsys, "decompose", "12")
    assert code == 2
    code, _, err = run_cli(capsys, "family", "1", "--count", "1")
    assert code == 2

    # oracle bound: exit 2
    code, _, err = run_cli(capsys, "--oracle-bound", "100", "oracle", "101")
    assert code == 2


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
     lambda q, p, k: [(1, 2**k, k)]),
    # a CRT solution one off no longer makes q(n) divisible by the modulus
    (["quad", "witness", "1", "0", "3", "--min", "100"], quadratics, "crt_solve",
     lambda combo: (lambda r, m: (r + 1, m))(*crt_solve(combo))),
], ids=["decompose", "lifting", "crt"])
def test_broken_invariants_are_falsifications(capsys, monkeypatch, argv, module, name, fake):
    monkeypatch.setattr(module, name, fake)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("FALSIFICATION: ")
