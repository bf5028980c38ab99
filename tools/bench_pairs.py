"""Alternating pairs of benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --rev PARENT --workload W [--workload W2 ...] \
        --pairs N --seconds 20 --out BENCH_<n>.json [--first-seed S]

The committed files of PARENT are extracted (`git archive`) into a
temporary directory, so the parent side runs exactly what was committed
and the repository's own metadata is left untouched.  For each workload,
pair i runs `bench/run.py --seed S+i` once in each tree; even pairs run the
parent first, odd pairs the working tree, so a steady drift of the
machine's speed falls on both sides alike.  Each side keeps its bytecode
in its own PYTHONPYCACHEPREFIX directory, empty when the tool starts and
written even under PYTHONDONTWRITEBYTECODE, so neither side reads a
`__pycache__` the other lacks and both run warm after their first
process.  The tool refuses to run when `bench/` or `BENCHMARK.json`
differ between the two trees: both sides must be measured by the same
benchmark.

The output file holds, per workload and end-to-end metric, each side's
runs, median and quartiles (inclusive method), the pairs the working tree
won and tied, the change of the medians, whether that change stays within
the metric's bound in BENCHMARK.json, whether it is resolved (the
parent's Q1-Q3 spread is within that bound, or every run of the working
tree beats every parent run), and whether it is a gain by the benchmark's
rule: better in at least nine tenths of the pairs, with the medians
further apart than the parent's Q1-Q3 spread, and no larger share of
failed operations than the parent's.  It also records the
seeds, each run's attempted and failed operation counts, a digest of each
side's `src/` and the machine: CPU model, processor count, Python and
numpy versions, and the bytecode mode measured beside the caller's
PYTHONDONTWRITEBYTECODE.  Standard library only; needs git and tar.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = ("bench", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def bench_differs(rev: str) -> list[str]:
    """Paths of the benchmark that differ between rev and the working tree,
    untracked files included."""
    changed = git("diff", "--name-only", rev, "--", *BENCH_FILES).splitlines()
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *BENCH_FILES)
    return changed + untracked.splitlines()


def extract(rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"error: could not extract {rev}")


def src_digest(tree: Path) -> str:
    """sha256 over the relative paths and bytes of every .py file under src/."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        if "__pycache__" not in path.parts:
            h.update(path.relative_to(tree).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_bench(tree: Path, workload: str, seed: int, seconds: float, pycache: Path) -> dict:
    """One bench/run.py in tree, its bytecode read from and written to pycache,
    never to the tree's own __pycache__ directories."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    # Written, or every process of a side would compile the standard library too.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, env=env)
    if proc.returncode:
        raise SystemExit(f"error: bench/run.py failed in {tree}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    # run_bench's bytecode mode, beside that of a fresh checkout run from the
    # caller's environment
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        caller = ("cold: PYTHONDONTWRITEBYTECODE is set, so a fresh checkout compiles "
                  "its sources in every process")
    else:
        caller = "warm after the first process: PYTHONDONTWRITEBYTECODE is unset"
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy_version,
            "bytecode": {"measured": "warm: each side's own PYTHONPYCACHEPREFIX, "
                                     "PYTHONDONTWRITEBYTECODE unset", "caller": caller}}


def spread(values: list[float]) -> dict:
    q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[::2]
              if len(values) > 1 else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def failed_share(runs: list[dict]) -> float:
    """Failed operations over attempted ones, across runs."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def summarize(parent: list[dict], change: list[dict], declared: list[dict]) -> dict:
    """Per-metric comparison of paired runs (parent[i] and change[i] are pair i).
    No metric is a gain when a larger share of the change's operations failed."""
    out = {}
    fails_more = failed_share(change) > failed_share(parent)
    for spec in declared:
        name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        ps, cs = spread(p), spread(c)
        diff = cs["median"] - ps["median"]
        parent_iqr, allowed = ps["q3"] - ps["q1"], spec["bound"] * abs(ps["median"])
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "parent": ps, "change": cs,
            "change_won_pairs": wins, "tied_pairs": ties, "pairs": len(p),
            "median_change": diff / ps["median"] if ps["median"] else None,
            "within_bound": sign * diff <= allowed,
            # a spread wider than the bound hides a regression of that size,
            # unless every change run reads better than every parent run
            "resolved": parent_iqr <= allowed or all(sign * (b - a) < 0 for a in p for b in c),
            "gain": (wins >= 0.9 * len(p) and sign * diff < 0
                     and abs(diff) > parent_iqr and not fails_more),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="parent revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")

    rev = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    differing = bench_differs(rev)
    if differing:
        print(f"error: the benchmark differs from {args.rev}: {', '.join(differing)}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    result = {
        "parent": {"rev": rev}, "change": {"rev": git("rev-parse", "HEAD"),
                                           "tree": "working tree"},
        "seconds": args.seconds, "machine": machine(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        trees = {"parent": parent_tree, "change": ROOT}
        pycaches = {side: Path(tmp) / f"pycache-{side}" for side in trees}
        for path in (parent_tree, *pycaches.values()):
            path.mkdir()
        extract(rev, parent_tree)
        result["parent"]["src_sha256"] = src_digest(parent_tree)
        result["change"]["src_sha256"] = src_digest(ROOT)
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            seeds = [args.first_seed + i for i in range(args.pairs)]
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_bench(trees[side], workload, seed, args.seconds, pycaches[side])
                    runs[side].append(run)
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                          f"run_s {run['metrics']['run_s']['value']:.4g}", file=sys.stderr)
            result["workloads"][workload] = {
                "seeds": seeds,
                "first_in_pair": ["parent" if i % 2 == 0 else "change"
                                  for i in range(args.pairs)],
                **{f"{side}_{key}": [run[key] for run in runs[side]]
                   for side in runs for key in ("attempted", "failed", "correct")},
                "metrics": summarize(runs["parent"], runs["change"], declared),
            }
    result["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
