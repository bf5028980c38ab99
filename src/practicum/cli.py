"""Command-line surface.

Every library operation maps to a subcommand with machine-readable output
(JSON by default; csv and plain key=value are available).  Outputs always
carry the supporting evidence -- chains, witnesses, certificates -- so
they can be audited without rerunning.  Sieve bitmaps are cached on disk
and reused across runs.

Exit codes: 0 success, 1 mathematical falsification signals (a verified
theorem failed to verify -- never expected), 2 usage and budget errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

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
from .sieve import PracticalBitmap, density_report, sieve_practicals

_CONFIG_KEYS = {
    "format": str,
    "cache-dir": str,
    "sieve-limit": int,
    "oracle-bound": int,
    "scan-bound": int,
    "trial-bound": int,
    "factor-work": int,
}


@dataclass
class RunConfig:
    fmt: str = "json"
    cache_dir: Path = Path.home() / ".cache" / "practicum"
    sieve_limit: int = 10**6
    oracle_bound: int = 10**6
    scan_bound: int = 10**5
    trial_bound: int = 1 << 16
    factor_work: int = 1 << 23

    @property
    def budget(self) -> FactorBudget:
        return FactorBudget(trial_bound=self.trial_bound, work_limit=self.factor_work)

    @classmethod
    def build(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        env_cache = os.environ.get("PRACTICUM_CACHE_DIR")
        if env_cache:
            cfg.cache_dir = Path(env_cache)
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            for key, value in data.items():
                if key not in _CONFIG_KEYS:
                    raise PracticumError(f"unknown config key: {key}")
                _apply(cfg, key, _CONFIG_KEYS[key](value))
        for key in _CONFIG_KEYS:
            flag = key.replace("-", "_")
            value = getattr(args, flag, None)
            if value is not None:
                _apply(cfg, key, value)
        for attr in ("sieve_limit", "oracle_bound", "scan_bound", "trial_bound",
                     "factor_work"):
            if getattr(cfg, attr) < 1:
                raise PracticumError(f"{attr.replace('_', '-')} must be positive")
        return cfg


def _apply(cfg: RunConfig, key: str, value) -> None:
    attr = {"format": "fmt", "cache-dir": "cache_dir"}.get(key, key.replace("-", "_"))
    if attr == "cache_dir":
        value = Path(value)
    setattr(cfg, attr, value)


# ---------------------------------------------------------------------------
# serialization helpers (stable key order => byte-identical reruns)


def _verdict_json(v: PracticalityVerdict) -> dict:
    out = {"n": v.n, "practical": v.practical}
    if v.practical:
        out["chain"] = [[p, e, s] for p, e, s in v.chain]
    else:
        w = v.witness
        out["witness"] = {"index": w.index, "prime": w.prime, "bound": w.bound}
    return out


def _evidence_json(ev) -> dict:
    if isinstance(ev, MultiplierCertificate):
        return {
            "type": "certificate",
            "base": ev.base,
            "multiplier": ev.multiplier,
            "bound": ev.bound,
            "bound_kind": ev.bound_kind,
            "value": ev.value,
            "base_evidence": _evidence_json(ev.base_evidence),
        }
    return {"type": "verdict", **_verdict_json(ev)}


def _mq_witness_json(w) -> dict:
    if isinstance(w, FiniteWitness):
        return {"kind": "finite", "root": w.root, "empty_level": w.empty_level}
    assert isinstance(w, InfiniteWitness)
    out = {"kind": w.kind, "root": w.root, "level": w.level}
    if w.kind == "hensel":
        out["val_q"] = w.val_q
        out["val_dq"] = w.val_dq
    else:
        out["val_lead"] = w.val_lead
        out["val_lin"] = w.val_lin
    return out


# ---------------------------------------------------------------------------
# sieve cache


def _cache_path(cfg: RunConfig, limit: int) -> Path:
    return cfg.cache_dir / f"practical-{limit}.bits"


def _get_bitmap(cfg: RunConfig, limit: int) -> tuple[PracticalBitmap, Path]:
    """Load any cached bitmap covering `limit`, else sieve and cache."""
    cfg.cache_dir.mkdir(parents=True, exist_ok=True)
    best: tuple[int, Path] | None = None
    for path in sorted(cfg.cache_dir.glob("practical-*.bits")):
        try:
            cached_limit = int(path.stem.split("-")[1])
        except (IndexError, ValueError):
            continue
        if cached_limit >= limit and (best is None or cached_limit < best[0]):
            best = (cached_limit, path)
    if best is not None:
        try:
            return PracticalBitmap.load(best[1]), best[1]
        except PracticumError:
            pass  # stale or corrupt cache entry; fall through and rebuild
    bitmap = sieve_practicals(limit)
    path = _cache_path(cfg, limit)
    bitmap.save(path)
    return bitmap, path


# ---------------------------------------------------------------------------
# command handlers


def _cmd_test(args, cfg: RunConfig) -> dict:
    verdict = is_practical(args.n, cfg.budget)
    out = _verdict_json(verdict)
    if args.verify:
        if is_practical_oracle(args.n, cfg.oracle_bound) != verdict.practical:
            raise ClassificationMismatch(
                f"structure test and subset-sum oracle disagree on {args.n}"
            )
        out["verified"] = True
    return out


def _cmd_oracle(args, cfg: RunConfig) -> dict:
    return {"n": args.n, "practical": is_practical_oracle(args.n, cfg.oracle_bound)}


def _cmd_sieve(args, cfg: RunConfig) -> dict:
    limit = args.limit if args.limit is not None else cfg.sieve_limit
    bitmap, path = _get_bitmap(cfg, limit)
    if args.out:
        out_path = Path(args.out)
        bitmap.save(out_path)
        path = out_path
    return {"limit": limit, "count": bitmap.count(limit), "path": str(path)}


def _cmd_count(args, cfg: RunConfig) -> dict:
    checkpoints = [args.x] + (args.report or [])
    top = max(checkpoints)
    bitmap, _ = _get_bitmap(cfg, top)
    if args.report:
        rows = density_report(args.report, bitmap)
        return {
            "x": args.x,
            "count": bitmap.count(args.x),
            "rows": [
                {"x": x, "count": c, "ratio": ratio} for x, c, ratio in rows
            ],
        }
    return {"x": args.x, "count": bitmap.count(args.x)}


def _cmd_ap_classify(args, cfg: RunConfig) -> dict:
    cls = classify_ap(args.a, args.b)
    out = {"a": args.a, "b": args.b, "case": cls.case, "d": cls.d}
    if cls.witness_prime is not None:
        out["witness_prime"] = cls.witness_prime
    if cls.unique_value is not None:
        out["unique_value"] = cls.unique_value
    return out


def _cmd_ap_stream(args, cfg: RunConfig) -> dict:
    values = ap_practical_stream(args.a, args.b, args.count, cfg.scan_bound)
    return {"a": args.a, "b": args.b, "count": args.count, "values": values}


def _cmd_ap_witness(args, cfg: RunConfig) -> dict:
    w = ap_constructive_witness(args.a, args.b, args.min)
    return {
        "a": args.a,
        "b": args.b,
        "threshold": args.min,
        "n": w.n,
        "value": w.value,
        "prime": w.prime,
        "k": w.k,
        "d": w.d,
        "verdict": _verdict_json(w.verdict),
    }


def _cmd_poly_witness(args, cfg: RunConfig) -> dict:
    coeffs = [int(c) for c in args.coeffs.split(",")]
    w = nonpractical_witness(coeffs, args.bound)
    return {
        "coefficients": coeffs,
        "n": w.n,
        "value": w.value,
        "verdict": _verdict_json(w.verdict),
    }


def _quad(args) -> QuadraticPoly:
    return QuadraticPoly(args.a, args.b, args.c)


def _cmd_quad_mq(args, cfg: RunConfig) -> dict:
    res = mq(_quad(args), args.p)
    return {
        "poly": {"a": args.a, "b": args.b, "c": args.c},
        "p": args.p,
        "m": "infinite" if res.infinite else res.exponent,
        "content_valuation": res.content_val,
        "witness": _mq_witness_json(res.witness),
    }


def _cmd_quad_classify(args, cfg: RunConfig) -> dict:
    cls = classify_quadratic(_quad(args))
    return {
        "poly": {"a": args.a, "b": args.b, "c": args.c},
        "case": cls.case,
        "r": cls.r,
        "p_r": cls.p_r,
        "exponents": list(cls.exponents),
        "witness_n": cls.witness_n,
        "verdict_n": _verdict_json(cls.verdict_n),
    }


def _cmd_quad_stream(args, cfg: RunConfig) -> dict:
    values = quad_practical_stream(_quad(args), args.count, cfg.scan_bound)
    return {
        "poly": {"a": args.a, "b": args.b, "c": args.c},
        "count": args.count,
        "values": values,
    }


def _cmd_quad_witness(args, cfg: RunConfig) -> dict:
    w = quad_constructive_witness(_quad(args), args.min)
    return {
        "poly": {"a": args.a, "b": args.b, "c": args.c},
        "threshold": args.min,
        "n": w.n,
        "value": w.value,
        "modulus": w.modulus,
        "multiplier": w.multiplier,
        "k": w.k,
        "t_primes": list(w.t_primes),
        "verdict": _verdict_json(w.verdict),
    }


def _cmd_decompose(args, cfg: RunConfig) -> dict:
    d = decompose_square_plus_practical(args.n)
    out = {
        "n": d.n,
        "x": d.x,
        "practical_part": d.practical_part,
        "m": d.m,
        "s": d.s,
        "certificate": _evidence_json(d.certificate),
    }
    if args.verify:
        ok = (
            d.x * d.x + d.practical_part == d.n
            and d.certificate.verify()
            and (
                d.practical_part > cfg.oracle_bound
                or is_practical_oracle(d.practical_part, cfg.oracle_bound)
            )
        )
        if not ok:
            raise ClassificationMismatch(f"decomposition of {args.n} failed re-check")
        out["verified"] = True
    return out


def _cmd_family(args, cfg: RunConfig) -> dict:
    spec = family_spec(args.j)
    members = family_stream(args.j, args.count)
    out = {
        "j": args.j,
        "residue": spec.residue,
        "modulus": spec.modulus,
        "congruences": [[r, m] for r, m in spec.congruences],
        "square_exclusions": list(spec.square_exclusions),
        "members": members,
    }
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


def _cmd_goldbach(args, cfg: RunConfig) -> dict:
    if args.n < 2 or args.n % 2:  # before the bitmap cache is touched
        raise InvalidInput(f"n must be even and >= 2, got {args.n}")
    bitmap, _ = _get_bitmap(cfg, max(args.n, 4))
    p1, p2 = goldbach_pair(args.n, bitmap)
    out = {"n": args.n, "pair": [p1, p2]}
    if args.verify:
        ok = (
            p1 + p2 == args.n
            and (p1 > cfg.oracle_bound or is_practical_oracle(p1, cfg.oracle_bound))
            and (p2 > cfg.oracle_bound or is_practical_oracle(p2, cfg.oracle_bound))
        )
        if not ok:
            raise ClassificationMismatch(f"pair for {args.n} failed oracle re-check")
        out["verified"] = True
    return out


def _cmd_triples(args, cfg: RunConfig) -> dict:
    bitmap, _ = _get_bitmap(cfg, args.limit + 2)
    return {"limit": args.limit, "triples": practical_triples(args.limit, bitmap)}


def _cmd_palindromic(args, cfg: RunConfig) -> dict:
    entries = palindromic_practicals(args.count)
    return {
        "count": args.count,
        "values": [e.value for e in entries],
        "entries": [
            {
                "index": e.index,
                "value": e.value,
                "digits": len(str(e.value)),
                "evidence": _evidence_json(e.evidence),
            }
            for e in entries
        ],
    }


# ---------------------------------------------------------------------------
# parser


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="practicum",
        description="Practical numbers: tests, sieves, classification, representations.",
    )
    parser.add_argument("--format", choices=("json", "csv", "plain"), default=None)
    parser.add_argument("--cache-dir", default=None, help="sieve cache directory")
    parser.add_argument("--config", default=None, help="JSON config file (key = flag name)")
    parser.add_argument("--sieve-limit", type=int, default=None)
    parser.add_argument("--oracle-bound", type=int, default=None)
    parser.add_argument("--scan-bound", type=int, default=None)
    parser.add_argument("--trial-bound", type=int, default=None)
    parser.add_argument("--factor-work", type=int, default=None)

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
    p.add_argument("coeffs", help="comma-separated coefficients, constant term first")
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
        rows = payload.get("rows")
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            keys = list(rows[0].keys())
            print(",".join(keys), file=out)
            for row in rows:
                print(",".join(_flatten_cell(row[k]) for k in keys), file=out)
        else:
            keys = list(payload.keys())
            print(",".join(keys), file=out)
            print(",".join(_flatten_cell(payload[k]) for k in keys), file=out)
    elif fmt == "plain":
        for key, value in payload.items():
            print(f"{key} = {_flatten_cell(value)}", file=out)
    else:
        raise PracticumError(f"unknown output format: {fmt}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.build(args)
        payload = args.func(args, cfg)
        emit(payload, cfg.fmt)
        return 0
    except FalsificationSignal as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        return 1
    except (PracticumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
