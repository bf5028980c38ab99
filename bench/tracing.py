"""Span tracing from outside the program, and the per-layer table.

The tracer replaces every public function of the practicum modules, and
every public method of their classes, with a wrapper that records one span
per call: name, parent span, operation id, start and end.  The modules
import one another by name (quadratics.is_practical, quadratics.prime_stream,
...), so each function is wrapped under every module name that reaches it;
all those names share one wrapper and report one canonical name such as
"practical.is_practical".  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
import tracemalloc

MODULES = ("arith", "practical", "sieve", "progressions", "quadratics",
           "representations", "cli")

SIEVE_BUILD = "sieve.sieve_practicals"
BITMAP_SAVE = "sieve.PracticalBitmap.save"


class Tracer:
    """Records spans while installed; restores every replaced name on
    uninstall.  A span is (name, parent, op, start_ns, end_ns, value);
    value is the limit of a sieve build, the file size of a bitmap save,
    and None otherwise."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.build_peaks: list[tuple[int, int]] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            value = None
            measure_peak = name == SIEVE_BUILD and not tracemalloc.is_tracing()
            if measure_peak:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if measure_peak:
                    self.build_peaks.append((sid, tracemalloc.get_traced_memory()[1]))
                    tracemalloc.stop()
                stack.pop()
                if name == SIEVE_BUILD and args:
                    value = args[0]
                elif name == BITMAP_SAVE and len(args) > 1:
                    value = os.path.getsize(args[1])
                spans[sid] = (name, parent, self.op, start, end, value)
            return result

        return wrapper

    def install(self) -> None:
        modules = {m: getattr(self.package, m) for m in MODULES}
        wrappers: dict = {}
        for owner in (self.package, *modules.values()):
            for attr, obj in list(vars(owner).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                short = obj.__module__.rpartition(".")[2]
                if short not in modules:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{short}.{obj.__name__}", obj)
                self._saved.append((owner, attr, obj))
                setattr(owner, attr, wrappers[obj])
        for short, module in modules.items():
            for cls in vars(module).values():
                if (not inspect.isclass(cls) or cls.__module__ != module.__name__
                        or cls.__name__.startswith("_")):
                    continue
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{short}.{cls.__name__}.{attr}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = self._wrap(name, raw)
                    else:
                        continue
                    self._saved.append((cls, attr, raw))
                    setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tvalue\n")
            for sid, (name, parent, op, start, end, value) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{start}\t{end}\t"
                         f"{'' if value is None else value}\n")


# ---------------------------------------------------------------------------
# per-layer metrics over one traced round


class SpanView:
    """Queries over the spans of one round (ids lo..hi-1)."""

    def __init__(self, spans, lo: int, hi: int):
        self.spans = spans
        self.ids = range(lo, hi)
        self.child_ns: dict[int, int] = {}
        self.by_name: dict[str, list[int]] = {}
        for sid in self.ids:
            name, parent, _op, start, end, _v = spans[sid]
            self.by_name.setdefault(name, []).append(sid)
            if parent >= 0:
                self.child_ns[parent] = self.child_ns.get(parent, 0) + end - start

    def of(self, *names) -> list[int]:
        return [s for name in names for s in self.by_name.get(name, ())]

    def ancestors(self, sid):
        parent = self.spans[sid][1]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][1]

    def under(self, sid, names) -> bool:
        return any(self.spans[a][0] in names for a in self.ancestors(sid))

    def dur_ns(self, sid) -> int:
        return self.spans[sid][4] - self.spans[sid][3]

    def calls(self, *names) -> int:
        return len(self.of(*names))

    def ms(self, *names) -> float:
        """Wall time of the outermost spans among names (no double count)."""
        return sum(self.dur_ns(s) for s in self.of(*names) if not self.under(s, names)) / 1e6

    def self_ms(self, name) -> float:
        return sum(self.dur_ns(s) - self.child_ns.get(s, 0) for s in self.of(name)) / 1e6

    def nested(self, inner, outer) -> list[int]:
        return [s for s in self.of(inner) if self.under(s, (outer,))]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def cli_self_ms(view: SpanView) -> float:
    """Median over cli.main spans of the time no library span covers.  The
    outermost library spans are the non-cli spans whose parent is a cli
    span."""
    covered = {main: 0 for main in view.of("cli.main")}
    for sid in view.ids:
        name, parent = view.spans[sid][:2]
        if name.startswith("cli.") or parent < 0 or not view.spans[parent][0].startswith("cli."):
            continue
        main = next((a for a in (parent, *view.ancestors(parent)) if a in covered), None)
        if main is not None:
            covered[main] += view.dur_ns(sid)
    values = [(view.dur_ns(m) - c) / 1e6 for m, c in covered.items()]
    return statistics.median(values) if values else 0.0


def layer_metrics(view: SpanView, build_peaks, emit_bytes: int) -> dict[str, float]:
    """Every per-layer metric for one traced round (0 where a layer idles)."""
    v = view
    builds = v.of(SIEVE_BUILD)
    build_ns = sum(v.dur_ns(s) for s in builds)
    witness_q = "quadratics.quad_constructive_witness"
    certificates = v.calls("practical.certify_product")
    return {
        "cli.self_ms": cli_self_ms(v),
        "cli.emit_ms": v.ms("cli.emit"),
        "cli.emit_bytes": float(emit_bytes),
        "cli.cache_hits": float(len(v.nested("sieve.PracticalBitmap.load", "cli.main"))),
        "cli.cache_misses": float(len(v.nested(SIEVE_BUILD, "cli.main"))),
        "sieve.build_calls": float(len(builds)),
        "sieve.build_ms": build_ns / 1e6,
        "sieve.build_rate": _ratio(sum(v.spans[s][5] or 0 for s in builds), build_ns / 1e9),
        "sieve.build_peak_mb": max((p for sid, p in build_peaks if sid in v.ids), default=0) / 2**20,
        "sieve.count_ms": v.ms("sieve.count_practicals", "sieve.density_report",
                               "sieve.PracticalBitmap.count"),
        "sieve.save_ms": v.ms(BITMAP_SAVE),
        "sieve.load_ms": v.ms("sieve.PracticalBitmap.load"),
        "sieve.bitmap_bytes": float(sum(v.spans[s][5] or 0 for s in v.of(BITMAP_SAVE))),
        "arith.factorize_calls": float(v.calls("arith.factorize")),
        "arith.factorize_ms": v.ms("arith.factorize"),
        "arith.prime_stream_starts": float(v.calls("arith.prime_stream")),
        "arith.crt_solve_calls": float(v.calls("arith.crt_solve")),
        "arith.primes_upto_ms": v.ms("arith.primes_upto"),
        "practical.is_practical_calls": float(v.calls("practical.is_practical")),
        "practical.is_practical_self_ms": v.self_ms("practical.is_practical"),
        "practical.quick_calls": float(v.calls("practical.is_practical_quick")),
        "practical.quick_ms": v.ms("practical.is_practical_quick"),
        "practical.replay_ms": v.ms("practical.PracticalityVerdict.replay"),
        "practical.certify_product_ms": v.ms("practical.certify_product"),
        "practical.oracle_ms": v.ms("practical.is_practical_oracle"),
        "practical.verify_calls": float(v.calls("practical.MultiplierCertificate.verify")),
        "practical.verify_per_certificate": _ratio(
            v.calls("practical.MultiplierCertificate.verify"), certificates),
        "progressions.classify_ms": v.ms("progressions.classify_ap"),
        "progressions.witness_ms": v.ms("progressions.ap_constructive_witness"),
        "progressions.stream_ms": v.ms("progressions.ap_practical_stream"),
        "progressions.factorize_per_classify": _ratio(
            len(v.nested("arith.factorize", "progressions.classify_ap")),
            v.calls("progressions.classify_ap")),
        "quadratics.mq_calls": float(v.calls("quadratics.mq")),
        "quadratics.mq_ms": v.ms("quadratics.mq"),
        "quadratics.classify_ms": v.ms("quadratics.classify_quadratic"),
        "quadratics.stream_ms": v.ms("quadratics.quad_practical_stream"),
        "quadratics.witness_ms": v.ms(witness_q),
        "quadratics.witness_factorize_ms": sum(
            v.dur_ns(s) for s in v.nested("arith.factorize", witness_q)) / 1e6,
        "quadratics.crt_per_witness": _ratio(
            len(v.nested("arith.crt_solve", witness_q)), v.calls(witness_q)),
        "representations.decompose_ms": v.ms("representations.decompose_square_plus_practical"),
        "representations.family_verify_ms": v.ms("representations.verify_not_representable"),
        "representations.palindromic_ms": v.ms("representations.palindromic_practicals"),
        "representations.goldbach_ms": v.ms("representations.goldbach_pair"),
        "representations.triples_ms": v.ms("representations.practical_triples"),
    }
