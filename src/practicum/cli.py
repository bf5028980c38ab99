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

from .arith import FactorBudget
from .errors import (
    ClassificationMismatch,
    FalsificationSignal,
    InvalidInput,
    PracticumError,
)
from .practical import (
    MultiplierCertificate,
    PracticalityVerdict,
    is_practical,
    is_practical_oracle,
)
from .progressions import (
    ap_constructive_witness,
    ap_practical_stream,
    classify_ap,
    nonpractical_witness,
)
from .quadratics import (
    FiniteWitness,
    InfiniteWitness,
    QuadraticPoly,
    classify_quadratic,
    mq,
    quad_constructive_witness,
    quad_practical_stream,
)
from .representations import (
    decompose_square_plus_practical,
    family_spec,
    family_stream,
    goldbach_pair,
    palindromic_practicals,
    practical_triples,
    verify_not_representable,
)

# Imports are most of a short CLI process's time, so what only some commands
# need (numpy, through `sieve`; `logging`; `traceback`) is imported inside the
# function that uses it.
if TYPE_CHECKING:
    from .sieve import PracticalBitmap

# Global flags, name -> default: each is a `--name` flag and a config-file key
# of its default's type.  An unset flag falls back to the config file, then
# (cache-dir only) $PRACTICUM_CACHE_DIR, then the default.
_GLOBAL_FLAGS = {
    "format": "json",
    "cache-dir": str(Path.home() / ".cache" / "practicum"),
    "sieve-limit": 10**6,
    "oracle-bound": 10**6,
    "scan-bound": 10**5,
    "trial-bound": 1 << 16,
    "factor-work": 1 << 23,
}
_FORMATS = ("json", "csv", "plain")


def _resolve_globals(args: argparse.Namespace) -> None:
    """Fill each global flag left unset on the command line, in place."""
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise PracticumError(f"config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise PracticumError(f"config file {args.config}: not a JSON object")
    for key, value in config.items():
        if key not in _GLOBAL_FLAGS:
            raise PracticumError(f"unknown config key: {key}")
        kind = type(_GLOBAL_FLAGS[key])
        try:
            config[key] = kind(value)
        except (TypeError, ValueError):
            raise PracticumError(f"config key {key}: {value!r} is not {kind.__name__}") from None
    env_cache = os.environ.get("PRACTICUM_CACHE_DIR")
    for name, default in _GLOBAL_FLAGS.items():
        attr = name.replace("-", "_")
        if getattr(args, attr) is None:
            fallback = env_cache if name == "cache-dir" and env_cache else default
            setattr(args, attr, config.get(name, fallback))
        if isinstance(default, int) and getattr(args, attr) < 1:
            raise PracticumError(f"{name} must be positive")
    if args.format not in _FORMATS:  # a config-file value skips argparse's choices
        raise PracticumError(f"unknown output format: {args.format}")


# ---------------------------------------------------------------------------
# serialization (stable key order => byte-identical reruns)


def _json(x):
    """JSON form of a library result: dataclass fields in declaration order,
    tuples as lists.  Three shapes differ from that:

    - a verdict shows `chain` when practical and `witness` when not;
    - a certificate carries "type": "certificate" and its `value`, and its
      base evidence carries a type tag too (see `_evidence`);
    - an m_q witness carries `kind` and only its own pair of valuations.
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
    if isinstance(x, FiniteWitness):
        return {"kind": "finite", **_pick(x, "root", "empty_level")}
    if isinstance(x, InfiniteWitness):
        pair = ("val_q", "val_dq") if x.kind == "hensel" else ("val_lead", "val_lin")
        return _pick(x, "kind", "root", "level", *pair)
    return _pick(x, *(f.name for f in fields(x)))


def _pick(obj, *names: str) -> dict:
    """The named attributes of obj, serialized, in the order given."""
    return {name: _json(getattr(obj, name)) for name in names}


def _evidence(ev) -> dict:
    """Evidence that may be a verdict or a certificate, tagged with its type."""
    return _json(ev) if isinstance(ev, MultiplierCertificate) else {"type": "verdict", **_json(ev)}


# ---------------------------------------------------------------------------
# sieve cache


def _get_bitmap(args, limit: int) -> tuple[PracticalBitmap, Path]:
    """Load any cached bitmap covering `limit`, else sieve and cache."""
    from .sieve import PracticalBitmap, sieve_practicals

    cache_dir = Path(args.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    best: tuple[int, Path] | None = None
    for path in sorted(cache_dir.glob("practical-*.bits")):
        try:
            cached_limit = int(path.stem.split("-")[1])
        except (IndexError, ValueError):
            continue
        if cached_limit >= limit and (best is None or cached_limit < best[0]):
            best = (cached_limit, path)
    if best is not None:
        try:
            return PracticalBitmap.load(best[1]), best[1]
        except PracticumError as exc:
            import logging

            logging.getLogger("practicum").warning(
                "ignoring corrupt cache entry %s (%s); rebuilding", best[1], exc
            )
    bitmap = sieve_practicals(limit)
    path = cache_dir / f"practical-{limit}.bits"
    # write beside the entry, then rename: readers never see a partial file
    tmp = cache_dir / f".{path.name}.{os.getpid()}.tmp"
    try:
        bitmap.save(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only when the save failed
    return bitmap, path


# ---------------------------------------------------------------------------
# command handlers


def _cmd_test(args) -> dict:
    verdict = is_practical(args.n, FactorBudget(args.trial_bound, args.factor_work))
    out = _json(verdict)
    if args.verify:
        if is_practical_oracle(args.n, args.oracle_bound) != verdict.practical:
            raise ClassificationMismatch(
                f"structure test and subset-sum oracle disagree on {args.n}"
            )
        out["verified"] = True
    return out


def _cmd_oracle(args) -> dict:
    return {"n": args.n, "practical": is_practical_oracle(args.n, args.oracle_bound)}


def _cmd_sieve(args) -> dict:
    limit = args.limit if args.limit is not None else args.sieve_limit
    bitmap, path = _get_bitmap(args, limit)
    if args.out:
        path = Path(args.out)
        bitmap.save(path)
    return {"limit": limit, "count": bitmap.count(limit), "path": str(path)}


def _cmd_count(args) -> dict:
    bitmap, _ = _get_bitmap(args, max([args.x] + (args.report or [])))
    out = {"x": args.x, "count": bitmap.count(args.x)}
    if args.report:
        from .sieve import density_report

        rows = density_report(args.report, bitmap)
        out["rows"] = [{"x": x, "count": c, "ratio": ratio} for x, c, ratio in rows]
    return out


def _cmd_ap_classify(args) -> dict:
    # witness_prime and unique_value are shown only for the case they explain
    return {k: v for k, v in _json(classify_ap(args.a, args.b)).items() if v is not None}


def _cmd_ap_stream(args) -> dict:
    values = ap_practical_stream(args.a, args.b, args.count, args.scan_bound)
    return {"a": args.a, "b": args.b, "count": args.count, "values": values}


def _cmd_ap_witness(args) -> dict:
    w = ap_constructive_witness(args.a, args.b, args.min)
    return {"a": args.a, "b": args.b, "threshold": args.min,
            **_pick(w, "n", "value", "prime", "k", "d", "verdict")}


def _cmd_poly_witness(args) -> dict:
    w = nonpractical_witness(args.coeffs, args.bound)
    return {"coefficients": args.coeffs, **_json(w)}


def _quad(args) -> QuadraticPoly:
    return QuadraticPoly(args.a, args.b, args.c)


def _cmd_quad_mq(args) -> dict:
    q = _quad(args)
    res = mq(q, args.p)
    return {
        "poly": _json(q),
        "p": args.p,
        "m": "infinite" if res.infinite else res.exponent,
        "content_valuation": res.content_val,
        "witness": _json(res.witness),
    }


def _cmd_quad_classify(args) -> dict:
    return _json(classify_quadratic(_quad(args)))


def _cmd_quad_stream(args) -> dict:
    q = _quad(args)
    values = quad_practical_stream(q, args.count, args.scan_bound)
    return {"poly": _json(q), "count": args.count, "values": values}


def _cmd_quad_witness(args) -> dict:
    q = _quad(args)
    w = quad_constructive_witness(q, args.min)
    return {"poly": _json(q), "threshold": args.min,
            **_pick(w, "n", "value", "modulus", "multiplier", "k", "t_primes", "verdict")}


def _oracle_confirms(args, n: int) -> bool:
    """The subset-sum oracle agrees n is practical, or n is past its bound."""
    return n > args.oracle_bound or is_practical_oracle(n, args.oracle_bound)


def _cmd_decompose(args) -> dict:
    d = decompose_square_plus_practical(args.n)
    out = _json(d)
    if args.verify:
        ok = (
            d.x * d.x + d.practical_part == d.n
            and d.certificate.verify()
            and _oracle_confirms(args, d.practical_part)
        )
        if not ok:
            raise ClassificationMismatch(f"decomposition of {args.n} failed re-check")
        out["verified"] = True
    return out


def _cmd_family(args) -> dict:
    spec = family_spec(args.j)
    members = family_stream(args.j, args.count)
    out = {**_pick(spec, "j", "residue", "modulus", "congruences", "square_exclusions"),
           "members": members}
    if args.verify:
        for m in members:
            report = verify_not_representable(m)
            if not report.not_representable:
                x, part = report.counterexample
                raise ClassificationMismatch(
                    f"family member {m} = {x}^2 + {part} with {part} practical"
                )
        out["verified"] = True
    return out


def _cmd_goldbach(args) -> dict:
    if args.n < 2 or args.n % 2:  # before the bitmap cache is touched
        raise InvalidInput(f"n must be even and >= 2, got {args.n}")
    bitmap, _ = _get_bitmap(args, max(args.n, 4))
    p1, p2 = goldbach_pair(args.n, bitmap)
    out = {"n": args.n, "pair": [p1, p2]}
    if args.verify:
        ok = p1 + p2 == args.n and _oracle_confirms(args, p1) and _oracle_confirms(args, p2)
        if not ok:
            raise ClassificationMismatch(f"pair for {args.n} failed oracle re-check")
        out["verified"] = True
    return out


def _cmd_triples(args) -> dict:
    bitmap, _ = _get_bitmap(args, args.limit + 2)
    return {"limit": args.limit, "triples": practical_triples(args.limit, bitmap)}


def _cmd_palindromic(args) -> dict:
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
    return [int(part) for part in text.split(",") if part != ""]


def _coeff_list(text: str) -> list[int]:
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

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="practicality verdict with certificate")
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true", help="cross-check with the oracle")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("oracle", help="subset-sum oracle (definition-level test)")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sieve", help="build or reuse a practical-number bitmap")
    p.add_argument("--limit", type=int, default=None,
                   help="defaults to the configured sieve-limit")
    p.add_argument("--out", default=None, help="also write the bitmap here")
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("count", help="exact count of practical numbers <= x")
    p.add_argument("x", type=int)
    p.add_argument("--report", type=_int_list, default=None,
                   help="comma-separated checkpoints for a density report")
    p.set_defaults(func=_cmd_count)

    ap_parser = sub.add_parser("ap", help="arithmetic progressions a*n + b")
    ap_sub = ap_parser.add_subparsers(dest="ap_command", required=True)
    p = ap_sub.add_parser("classify", help="infinitely many / exactly one / none")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=_cmd_ap_classify)
    p = ap_sub.add_parser("stream", help="practical terms in scan order")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_ap_stream)
    p = ap_sub.add_parser("witness", help="construct a practical term >= threshold")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--min", type=int, required=True)
    p.set_defaults(func=_cmd_ap_witness)

    poly_parser = sub.add_parser("poly", help="integer polynomials")
    poly_sub = poly_parser.add_subparsers(dest="poly_command", required=True)
    p = poly_sub.add_parser("witness", help="smallest n with P(n) >= 1 not practical")
    p.add_argument("coeffs", type=_coeff_list,
                   help="comma-separated coefficients, constant term first")
    p.add_argument("--bound", type=int, default=10**4)
    p.set_defaults(func=_cmd_poly_witness)

    quad_parser = sub.add_parser("quad", help="quadratics a*n^2 + b*n + c")
    quad_sub = quad_parser.add_subparsers(dest="quad_command", required=True)
    p = quad_sub.add_parser("mq", help="max power of p dividing some value (sup)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(func=_cmd_quad_mq)
    p = quad_sub.add_parser("classify", help="infinitely many practical values or not")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=_cmd_quad_classify)
    p = quad_sub.add_parser("stream", help="smallest practical values")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_quad_stream)
    p = quad_sub.add_parser("witness", help="construct a practical value >= threshold")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--min", type=int, required=True)
    p.set_defaults(func=_cmd_quad_witness)

    p = sub.add_parser("decompose", help="n = x^2 + practical for n = 1 mod 8")
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("family", help="members never equal to square + practical")
    p.add_argument("j", type=int, help="residue class mod 8 (1 excluded)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="exhaustively verify each member")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("goldbach", help="even n as a sum of two practical numbers")
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_goldbach)

    p = sub.add_parser("triples", help="m with m-2, m, m+2 all practical")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_triples)

    p = sub.add_parser("palindromic", help="palindromic practical chain with certificates")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_palindromic)

    return parser


# ---------------------------------------------------------------------------
# output


def _flatten_cell(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def emit(payload: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        print(json.dumps(payload, indent=2), file=out)
    elif fmt == "csv":
        # a report's rows form the table; any other payload is one row
        rows = payload.get("rows")
        if not (isinstance(rows, list) and rows and isinstance(rows[0], dict)):
            rows = [payload]
        keys = list(rows[0].keys())
        print(",".join(keys), file=out)
        for row in rows:
            print(",".join(_flatten_cell(row[k]) for k in keys), file=out)
    elif fmt == "plain":
        for key, value in payload.items():
            print(f"{key} = {_flatten_cell(value)}", file=out)
    else:
        raise PracticumError(f"unknown output format: {fmt}")


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # integers with thousands of digits, in and out
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_globals(args)
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
