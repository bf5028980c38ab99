"""practicum benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload {cli,enumerate,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  A run
sets up (several times, reporting the median), then repeats whole rounds
of the seeded operation list until S seconds have passed, checking every
output after each round.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run alternates untraced and
traced rounds (at most six pairs), reports the per-layer metrics and
writes the spans and the tracing overhead under .bench_work/traces/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracles import CheckFailed
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 5
IMPORT_PAIRS = 5
TRACE_PAIRS = 6  # bounds the spans held in memory

OPS = {"cli": wl.cli_ops, "enumerate": wl.enumerate_ops, "certify": wl.certify_ops}


class Failure:
    """An operation that raised instead of answering."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def fail(self, op, text: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.notes) < 10:
            self.notes.append(f"{op.kind} {op.args!r:.120}: {text}")


def child_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running code with the program on
    its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


def set_up(workload: str, seed: int, rd: wl.Round, env: dict) -> float:
    """One set-up: for cli an empty cache directory and a warm-up process;
    otherwise importing practicum (in a fresh interpreter), generating the
    seeded inputs and one warm-up call."""
    t0 = time.perf_counter()
    if workload == "cli":
        rd.fresh()
        code, _out, err = wl.run_cli_process(wl.Op("cli", ("test", "88")), env)
        if code != 0:
            raise RuntimeError(f"warm-up process failed: {err.decode()[-300:]}")
        OPS[workload](seed)
    else:
        child_seconds("import practicum")
        OPS[workload](seed)
        if workload == "certify":
            rd.pk.is_practical(88).replay()
        else:
            rd.pk.count_practicals(10**4)
    return time.perf_counter() - t0


def run_round(ops, execute, rd: wl.Round, tracer=None, first_op: int = 0):
    """Run every operation once; returns (round seconds, op seconds, results)."""
    times, results = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + i
        s = time.perf_counter()
        try:
            res = execute(op, rd)
        except Exception as exc:  # the operation failed; counted, run goes on
            res = Failure(exc)
        times.append(time.perf_counter() - s)
        results.append(res)
    return time.perf_counter() - t0, times, results


def check_round(ops, results, check, rd: wl.Round, tally: Tally, first: dict | None) -> None:
    """Check each output; for cli also that stdout repeats byte for byte."""
    memo = wl.Memo()
    for i, (op, res) in enumerate(zip(ops, results)):
        tally.attempted += 1
        if isinstance(res, Failure):
            tally.fail(op, res.text, wrong=False)
            continue
        try:
            check(op, res, memo, rd)
            if first is not None:
                if first.setdefault(i, res[1]) != res[1]:
                    raise CheckFailed("stdout differs from the first invocation")
        except CheckFailed as exc:
            tally.fail(op, str(exc), wrong=True)
        except Exception as exc:  # output the check could not even read
            tally.fail(op, f"unreadable output: {type(exc).__name__}: {exc}", wrong=True)


def import_ms() -> float:
    """Import-only process minus a bare interpreter, medians of alternating
    pairs."""
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(child_seconds("pass"))
        full.append(child_seconds("import practicum.cli"))
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def measure(workload: str, seed: int, seconds: float, trace: bool, pk, work: Path):
    rd = wl.Round(pk, work)
    env = wl.cli_env(SRC, rd.cache_dir)
    tally = Tally()
    setups = [set_up(workload, seed, rd, env) for _ in range(SETUPS)]
    ops = OPS[workload](seed)
    if workload == "cli":
        check, first = wl.check_cli, {}
        execute = wl.run_cli_inprocess if trace else (lambda op, _rd: wl.run_cli_process(op, env))
        if trace:  # in-process main() reads the cache location from here
            os.environ["PRACTICUM_CACHE_DIR"] = str(rd.cache_dir)
    else:
        check, first, execute = wl.check_library, None, wl.run_library

    if not trace:
        round_s, op_s = [], []
        t0 = time.perf_counter()
        while True:
            elapsed, times, results = run_round(ops, execute, rd.fresh())
            check_round(ops, results, check, rd, tally, first)
            round_s.append(elapsed)
            op_s.extend(times)
            if time.perf_counter() - t0 >= seconds:
                break
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(round_s), "s"),
            "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
        }
        return tally, metrics

    tracer = tracing.Tracer(pk)
    plain_s, traced_s, per_round = [], [], []

    def plain():
        elapsed, _times, results = run_round(ops, execute, rd.fresh())
        check_round(ops, results, check, rd, tally, first)
        plain_s.append(elapsed)

    def traced():
        lo = len(tracer.spans)
        tracer.install()
        try:
            elapsed, _times, results = run_round(ops, execute, rd.fresh(), tracer,
                                                 first_op=len(ops) * len(traced_s))
        finally:
            tracer.uninstall()
        check_round(ops, results, check, rd, tally, first)
        traced_s.append(elapsed)
        emitted = sum(len(r[1]) for r in results if workload == "cli" and not isinstance(r, Failure))
        per_round.append(tracing.layer_metrics(
            tracing.SpanView(tracer.spans, lo, len(tracer.spans)), tracer.build_peaks, emitted))

    t0 = time.perf_counter()
    while len(traced_s) < TRACE_PAIRS:
        # alternate the order inside a pair, so a steady drift of the
        # machine's speed cancels out of the overhead
        for step in (plain, traced) if len(traced_s) % 2 == 0 else (traced, plain):
            step()
        if time.perf_counter() - t0 >= seconds:
            break
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["cli.import_ms"] = import_ms() if workload == "cli" else 0.0
    overhead = statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1
    out = WORK / "traces"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    tracer.write(out / f"{stem}.spans.tsv")
    summary = {"workload": workload, "seed": seed, "untraced_round_s": plain_s,
               "traced_round_s": traced_s, "overhead": overhead, "spans": len(tracer.spans),
               "metrics": metrics}
    (out / f"{stem}.summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"tracing overhead {overhead:+.1%} over {len(traced_s)} round pair(s); "
          f"{len(tracer.spans)} spans in {out / stem}.spans.tsv", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    return tally, {name: (value, units[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(OPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "practicum" / "__init__.py").is_file():
        print(f"error: no practicum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pk = importlib.import_module("practicum")
    importlib.import_module("practicum.cli")

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tally, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace), pk, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
