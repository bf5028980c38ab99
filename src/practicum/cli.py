"""Command-line surface.

Every library operation maps to a subcommand with machine-readable output
(JSON by default; csv and plain key=value are available).  Outputs always
carry the supporting evidence -- chains, witnesses, certificates -- so
they can be audited without rerunning.  Sieve bitmaps are cached on disk
and reused across runs.

Exit codes: 0 success, 1 mathematical falsification signals (a verified
theorem failed to verify -- never expected), 2 usage and budget errors,
3 an internal error (any other exception: a bug or a broken install).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .arith import DEFAULT_WORK_LIMIT, factor_budget
from .errors import FalsificationSignal, InvalidInput, PracticumError
from .practical import (
    DEFAULT_ORACLE_BOUND,
    DEFAULT_SCAN_BOUND,
    MultiplierCertificate,
    PracticalityVerdict,
    is_practical,
    is_practical_oracle,
)

# Imports are most of a short CLI process's time.  Every command needs the
# modules above; each handler imports the rest of what it runs (progressions,
# quadratics, representations, sieve and through it numpy; logging;
# traceback), so a process loads only its own command's modules.
if TYPE_CHECKING:
    from .quadratics import QuadraticPoly
    from .sieve import PracticalBitmap

# Global flags, name -> default: each is a `--name` flag and a config-file key
# of its default's type.  An unset flag falls back to the config file, then
# (cache-dir only) $PRACTICUM_CACHE_DIR, then the default.
_GLOBAL_FLAGS = {
    "format": "json",
    "cache-dir": str(Path.home() / ".cache" / "practicum"),
    "oracle-bound": DEFAULT_ORACLE_BOUND,
    "scan-bound": DEFAULT_SCAN_BOUND,
    "factor-work": DEFAULT_WORK_LIMIT,
}
_FORMATS = ("json", "csv", "plain")
# The largest x and checkpoint `count` takes: its tree walk took 7.1 s and
# a 37 MiB tracemalloc peak at 10^12 (README), and grows ~5x per decade.
_COUNT_CAP = 10**12


def _resolve_globals(args: argparse.Namespace) -> None:
    """Fill each global flag left unset on the command line, in place."""
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise InvalidInput(f"config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise InvalidInput(f"config file {args.config}: not a JSON object")
    for key, value in config.items():
        if key not in _GLOBAL_FLAGS:
            raise InvalidInput(f"unknown config key: {key}")
        kind = type(_GLOBAL_FLAGS[key])
        try:
            if kind is int and (isinstance(value, bool) or isinstance(value, float)
                                and not value.is_integer()):
                raise TypeError  # int() would take true for 1 and truncate 100.9
            if kind is str and not isinstance(value, str):
                raise TypeError  # str() would make null the directory "None"
            config[key] = kind(value)
        except (TypeError, ValueError):
            raise InvalidInput(f"config key {key}: {value!r} is not {kind.__name__}") from None
    env_cache = os.environ.get("PRACTICUM_CACHE_DIR")
    for name, default in _GLOBAL_FLAGS.items():
        attr = name.replace("-", "_")
        if getattr(args, attr) is None:
            fallback = env_cache if name == "cache-dir" and env_cache else default
            setattr(args, attr, config.get(name, fallback))
        if isinstance(default, int) and getattr(args, attr) < 1:
            raise InvalidInput(f"{name} must be positive")
    if args.format not in _FORMATS:  # a config-file value skips argparse's choices
        raise InvalidInput(f"unknown output format: {args.format}")


# ---------------------------------------------------------------------------
# serialization (stable key order => byte-identical reruns)


def _json(x):
    """JSON form of a library result: dataclass fields in declaration order,
    tuples as lists.  Two shapes differ from that (and the m_q witness, which
    `_cmd_quad_mq` shapes):

    - a verdict shows `chain` when practical and `witness` when not;
    - a certificate carries "type": "certificate" and its `value`, and its
      base evidence carries a type tag too (see `_evidence`).
    """
    if isinstance(x, (tuple, list)):
        return [_json(v) for v in x]
    if not is_dataclass(x):
        return x
    if isinstance(x, PracticalityVerdict):
        return _pick(x, "n", "practical", "chain" if x.practical else "witness")
    if isinstance(x, MultiplierCertificate):
        return {
            "type": "certificate",
            **_pick(x, "base", "multiplier", "bound", "bound_kind", "value"),
            "base_evidence": _evidence(x.base_evidence),
        }
    return _pick(x, *(f.name for f in fields(x)))


def _pick(obj, *names: str) -> dict:
    """The named attributes of obj, serialized, in the order given."""
    return {name: _json(getattr(obj, name)) for name in names}


def _evidence(ev) -> dict:
    """Evidence that may be a verdict or a certificate, tagged with its type."""
    return _json(ev) if isinstance(ev, MultiplierCertificate) else {"type": "verdict", **_json(ev)}


# ---------------------------------------------------------------------------
# sieve cache


def _cached_bitmap(args, limit: int) -> tuple[PracticalBitmap, Path] | None:
    """The smallest cached bitmap covering `limit`, if it loads and its
    header's limit is the one in its name."""
    from .sieve import PracticalBitmap

    best: tuple[int, Path] | None = None
    for path in sorted(Path(args.cache_dir).glob("practical-*.bits")):
        try:
            cached_limit = int(path.stem.split("-")[1])
        except (IndexError, ValueError):
            continue
        if cached_limit >= limit and (best is None or cached_limit < best[0]):
            best = (cached_limit, path)
    if best is not None:
        try:
            bitmap = PracticalBitmap.load(best[1])
            if bitmap.limit != best[0]:  # a renamed or misplaced file
                raise InvalidInput(f"header limit {bitmap.limit} differs from its name")
            return bitmap, best[1]
        except PracticumError as exc:
            import logging

            logging.getLogger("practicum").warning(
                "ignoring corrupt cache entry %s (%s)", best[1], exc
            )
    return None


def _get_bitmap(args, limit: int) -> tuple[PracticalBitmap, Path]:
    """Load any cached bitmap covering `limit`, else sieve and cache."""
    cached = _cached_bitmap(args, limit)
    if cached is not None:
        return cached
    from .sieve import sieve_practicals

    bitmap = sieve_practicals(limit)
    cache_dir = Path(args.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"practical-{limit}.bits"
    _save(bitmap, path)
    return bitmap, path


def _save(bitmap: PracticalBitmap, path: Path) -> None:
    """Write bitmap to path beside it, then rename: readers never see a
    partial file, and a failed save leaves no file at path."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        bitmap.save(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only when the save failed


# ---------------------------------------------------------------------------
# command handlers


def _cmd_test(args) -> dict:
    verdict = is_practical(args.n)
    out = _json(verdict)
    if args.verify:
        if is_practical_oracle(args.n, args.oracle_bound) != verdict.practical:
            raise FalsificationSignal(
                f"structure test and subset-sum oracle disagree on {args.n}"
            )
        out["verified"] = True
    return out


def _cmd_oracle(args) -> dict:
    return {"n": args.n, "practical": is_practical_oracle(args.n, args.oracle_bound)}


def _cmd_sieve(args) -> dict:
    if args.limit < 1:  # before the bitmap cache is touched
        raise InvalidInput(f"sieve limit must be >= 1, got {args.limit}")
    bitmap, path = _get_bitmap(args, args.limit)
    if args.out:
        path = Path(args.out)
        _save(bitmap, path)
    return {"limit": args.limit, "count": bitmap.count(args.limit), "path": str(path)}


def _cmd_count(args) -> dict:
    """x and every checkpoint from a cached bitmap that covers them all, else
    from one tree walk; count never builds or writes a bitmap."""
    from .sieve import density_report

    bounds = [args.x] + (args.report or [])
    if min(bounds) < 1:  # before the bitmap cache is read
        raise InvalidInput(f"x and every checkpoint must be >= 1, got {min(bounds)}")
    if max(bounds) > _COUNT_CAP:
        raise InvalidInput(
            f"x and every checkpoint must be <= {_COUNT_CAP} (_COUNT_CAP), got {max(bounds)}")
    cached = _cached_bitmap(args, max(bounds))
    rows = density_report(bounds, cached[0] if cached else None)
    out = {"x": args.x, "count": rows[0][1]}
    if args.report:
        out["rows"] = [{"x": x, "count": c, "ratio": ratio} for x, c, ratio in rows[1:]]
    return out


def _cmd_ap_classify(args) -> dict:
    from .progressions import classify_ap

    # witness_prime and unique_value are shown only for the case they explain
    return {k: v for k, v in _json(classify_ap(args.a, args.b)).items() if v is not None}


def _cmd_ap_stream(args) -> dict:
    from .progressions import ap_practical_stream

    values = ap_practical_stream(args.a, args.b, args.count, args.scan_bound)
    return {"a": args.a, "b": args.b, "count": args.count, "values": values}


def _cmd_ap_witness(args) -> dict:
    from .progressions import ap_constructive_witness

    w = ap_constructive_witness(args.a, args.b, args.min)
    return {"a": args.a, "b": args.b, "threshold": args.min,
            **_pick(w, "n", "value", "prime", "k", "d", "verdict")}


def _cmd_poly_witness(args) -> dict:
    from .progressions import nonpractical_witness

    w = nonpractical_witness(args.coeffs, args.scan_bound)
    return {"coefficients": args.coeffs, **_json(w)}


def _quad(args) -> QuadraticPoly:
    from .quadratics import QuadraticPoly

    return QuadraticPoly(args.a, args.b, args.c)


def _cmd_quad_mq(args) -> dict:
    from .quadratics import FiniteWitness, mq

    q = _quad(args)
    res = mq(q, args.p)
    w = res.witness  # `kind` and only the witness's own pair of valuations
    if isinstance(w, FiniteWitness):
        witness = {"kind": "finite", **_pick(w, "root", "empty_level")}
    else:
        pair = ("val_q", "val_dq") if w.kind == "hensel" else ("val_lead", "val_lin")
        witness = _pick(w, "kind", "root", "level", *pair)
    return {
        "poly": _json(q),
        "p": args.p,
        "m": "infinite" if res.infinite else res.exponent,
        "content_valuation": res.content_val,
        "witness": witness,
    }


def _cmd_quad_classify(args) -> dict:
    from .quadratics import classify_quadratic

    return _json(classify_quadratic(_quad(args)))


def _cmd_quad_stream(args) -> dict:
    from .quadratics import quad_practical_stream

    q = _quad(args)
    values = quad_practical_stream(q, args.count, args.scan_bound)
    return {"poly": _json(q), "count": args.count, "values": values}


def _cmd_quad_witness(args) -> dict:
    from .quadratics import quad_constructive_witness

    q = _quad(args)
    w = quad_constructive_witness(q, args.min)
    return {"poly": _json(q), "threshold": args.min,
            **_pick(w, "n", "value", "modulus", "multiplier", "k", "t_primes", "verdict")}


def _oracle_confirms(args, n: int) -> bool:
    """The subset-sum oracle agrees n is practical, or n is past its bound."""
    return n > args.oracle_bound or is_practical_oracle(n, args.oracle_bound)


def _cmd_decompose(args) -> dict:
    from .representations import decompose_square_plus_practical

    d = decompose_square_plus_practical(args.n)
    out = _json(d)
    if args.verify:
        ok = (
            d.x * d.x + d.practical_part == d.n
            and d.certificate.verify()
            and _oracle_confirms(args, d.practical_part)
        )
        if not ok:
            raise FalsificationSignal(f"decomposition of {args.n} failed re-check")
        out["verified"] = True
    return out


def _cmd_family(args) -> dict:
    from .representations import family_spec, family_stream, verify_not_representable

    spec = family_spec(args.j)
    members = family_stream(args.j, args.count)
    out = {**_pick(spec, "j", "residue", "modulus", "congruences", "square_exclusions"),
           "members": members}
    if args.verify:
        for m in members:
            report = verify_not_representable(m)
            if not report.not_representable:
                x, part = report.counterexample
                raise FalsificationSignal(
                    f"family member {m} = {x}^2 + {part} with {part} practical"
                )
        out["verified"] = True
    return out


def _cmd_goldbach(args) -> dict:
    from .representations import goldbach_pair

    if args.n < 2 or args.n % 2:  # before the bitmap cache is touched
        raise InvalidInput(f"n must be even and >= 2, got {args.n}")
    bitmap, _ = _get_bitmap(args, max(args.n, 4))
    p1, p2 = goldbach_pair(args.n, bitmap)
    out = {"n": args.n, "pair": [p1, p2]}
    if args.verify:
        ok = p1 + p2 == args.n and all(  # a verdict proves each part, past the oracle too
            v.practical and v.replay() and _oracle_confirms(args, v.n)
            for v in map(is_practical, (p1, p2)))
        if not ok:
            raise FalsificationSignal(f"pair for {args.n} failed re-check")
        out["verified"] = True
    return out


def _cmd_triples(args) -> dict:
    from .representations import practical_triples

    if args.limit < 1:  # before the bitmap cache is touched
        raise InvalidInput(f"limit must be >= 1, got {args.limit}")
    bitmap, _ = _get_bitmap(args, args.limit + 2)
    return {"limit": args.limit, "triples": practical_triples(args.limit, bitmap)}


def _cmd_palindromic(args) -> dict:
    from .representations import palindromic_practicals

    entries = palindromic_practicals(args.count)
    return {
        "count": args.count,
        "values": [e.value for e in entries],
        "entries": [
            {**_pick(e, "index", "value"), "digits": 2**e.index,
             "evidence": _evidence(e.evidence)}
            for e in entries
        ],
    }


# ---------------------------------------------------------------------------
# parser


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="practicum",
        description="Practical numbers: tests, sieves, classification, representations.",
    )
    for name, default in _GLOBAL_FLAGS.items():
        choices = _FORMATS if name == "format" else None
        parser.add_argument(f"--{name}", type=type(default), choices=choices)
    parser.add_argument("--config", default=None, help="JSON config file (key = flag name)")

    # argument name -> add_argument keywords
    kinds = {name: {"type": int} for name in ("n", "x", "a", "b", "c", "p", "j")}
    kinds.update({f"--{name}": {"type": int, "required": True}
                  for name in ("count", "min", "limit")})
    kinds.update({
        "--verify": {"action": "store_true"},
        "--out": {"help": "also write the bitmap here"},
        "--report": {"type": _int_list,
                     "help": "comma-separated checkpoints for a density report"},
        "coeffs": {"type": _int_list, "help": "comma-separated coefficients, constant term first"},
    })
    # Command words, help, handler, then each argument: a name, or a name and
    # the keywords this command sets over its kind's.  A group has no handler;
    # its commands follow it.  Built here, not at import, so that the handler
    # a test patches in is the one that runs.
    commands = (
        ("test", "practicality verdict with certificate", _cmd_test,
         "n", ("--verify", {"help": "cross-check with the oracle"})),
        ("oracle", "subset-sum oracle (definition-level test)", _cmd_oracle, "n"),
        ("sieve", "build or reuse a practical-number bitmap", _cmd_sieve,
         ("--limit", {"required": False, "default": 10**6, "help": "default 10^6"}), "--out"),
        ("count", "exact count of practical numbers <= x <= 10^12", _cmd_count, "x", "--report"),
        ("ap", "arithmetic progressions a*n + b", None),
        ("ap classify", "infinitely many / exactly one / none", _cmd_ap_classify, "a", "b"),
        ("ap stream", "practical terms in scan order", _cmd_ap_stream, "a", "b", "--count"),
        ("ap witness", "construct a practical term >= threshold", _cmd_ap_witness,
         "a", "b", "--min"),
        ("poly", "integer polynomials", None),
        ("poly witness", "smallest n with P(n) >= 1 not practical", _cmd_poly_witness, "coeffs"),
        ("quad", "quadratics a*n^2 + b*n + c", None),
        ("quad mq", "max power of p dividing some value (sup)", _cmd_quad_mq,
         "a", "b", "c", "p"),
        ("quad classify", "infinitely many practical values or not", _cmd_quad_classify,
         "a", "b", "c"),
        ("quad stream", "smallest practical values", _cmd_quad_stream, "a", "b", "c", "--count"),
        ("quad witness", "construct a practical value >= threshold", _cmd_quad_witness,
         "a", "b", "c", "--min"),
        ("decompose", "n = x^2 + practical for n = 1 mod 8", _cmd_decompose, "n", "--verify"),
        ("family", "members never equal to square + practical", _cmd_family,
         ("j", {"help": "residue class mod 8 (1 excluded)"}), "--count",
         ("--verify", {"help": "exhaustively verify each member"})),
        ("goldbach", "even n as a sum of two practical numbers", _cmd_goldbach, "n", "--verify"),
        ("triples", "m with m-2, m, m+2 all practical", _cmd_triples, "--limit"),
        ("palindromic", "palindromic practical chain with certificates", _cmd_palindromic,
         "--count"),
    )
    # argparse names a group's dest when its subcommand is missing
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for words, text, handler, *arguments in commands:
        group, _, word = words.rpartition(" ")
        p = groups[group].add_parser(word, help=text)
        for argument in arguments:
            name, own = (argument, {}) if isinstance(argument, str) else argument
            p.add_argument(name, **{**kinds[name], **own})
        if handler is None:
            groups[words] = p.add_subparsers(dest=f"{words}_command", required=True)
        else:
            p.set_defaults(func=handler)
    return parser


# ---------------------------------------------------------------------------
# output


def _flatten_cell(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        # a report's rows form the table; any other payload is one row
        rows = payload.get("rows")
        if not (isinstance(rows, list) and rows and isinstance(rows[0], dict)):
            rows = [payload]
        keys = list(rows[0].keys())
        print(",".join(keys))
        for row in rows:
            print(",".join(_flatten_cell(row[k]) for k in keys))
    elif fmt == "plain":
        for key, value in payload.items():
            print(f"{key} = {_flatten_cell(value)}")
    else:
        raise InvalidInput(f"unknown output format: {fmt}")


def _end_global_flags(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv without a `--` that ends the global flags; exit 2 naming an unknown
    option (`-x`, `--name` or `--name=value`) before the subcommand.  argparse
    would report that option's value, or the `--`, as an invalid subcommand.
    A prefix of one known flag is argparse's to expand, and a prefix of
    several its to call ambiguous."""
    known = [f"--{name}" for name in (*_GLOBAL_FLAGS, "config", "help")]
    tokens = iter(enumerate(argv))
    for i, token in tokens:
        if token == "--":
            rest = argv[i + 1:]
            if rest and rest[0].startswith("-"):
                parser.error(f"expected a command after '--', got {rest[0]!r}")
            return argv[:i] + rest
        if not token.startswith("-") or token in ("-", "-h"):
            return argv  # the subcommand, or an argument argparse handles
        name, eq, _ = token.partition("=")
        matches = [flag for flag in known if flag.startswith(name)]
        if not matches:
            parser.error(f"unrecognized global flag: {name}")
        if name in matches:
            matches = [name]
        if len(matches) > 1 or matches == ["--help"]:
            return argv
        if not eq:
            next(tokens, None)  # the flag's value
    return argv


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # integers with thousands of digits, in and out
    parser = build_parser()
    argv = _end_global_flags(parser, sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    try:
        _resolve_globals(args)
        with factor_budget(args.factor_work):
            payload = args.func(args)
        emit(payload, args.format)
        return 0
    except FalsificationSignal as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        return 1
    except (PracticumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other exception is a bug; 1 stays for falsifications
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
