"""Record one point of the benchmark trajectory as BENCH_<n>.json.

    python3 record_bench.py N [--seconds S]

Run from the root of a source checkout.  The timings come from the
benchmark harness alone: ``bench/run.py`` at seed 7 on ``mc-ps3`` and
``converge-fine``, untraced (``--trace 0``) five times each and traced
(``--trace 1``) once, and on the ungated ``tabulated-forecast``
traced only, each for ``--seconds`` seconds; the file keeps every run's
result line (its last line of output) and its metadata line.  Next to them
it records:

* ``quartiles``: for each untraced workload, the median, first and third
  quartile (``statistics.quantiles``, inclusive method) of ``wall_s``,
  ``setup_s`` and ``peak_rss_mb`` over its repeated runs, which alternate
  between the workloads, since single runs on a shared machine swing by
  up to 1.5x between minutes;
* ``src_lines``: the lines under ``src/``, split into logic and the tables
  of ``_ziggurat.py``;
* ``sha256``: the hash of every CSV that each benchmark workload writes at
  seed 7, from one run of its command;
* ``tier1``: the Tier-1 pass count and wall time (the verify command of
  ROADMAP.md).

It writes ``BENCH_<n>.json`` next to itself and changes nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SRC = ROOT / "src"
SEED = 7
# the untraced workloads, run REPEATS times in turn, then the traced ones
REPEATED = ("mc-ps3", "converge-fine")
REPEATS = 5
TRACED = ("mc-ps3", "converge-fine", "tabulated-forecast")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
TABLES = SRC / "powertrack" / "_ziggurat.py"


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def bench_run(workload: str, trace: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[len("meta: "):]) for line in lines
                if line.startswith("meta: "))
    return {"workload": workload, "trace": trace, "meta": meta,
            "result": json.loads(lines[-1])}


def quartiles(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric of the untraced runs,
    per workload."""
    out = {}
    for workload in REPEATED:
        results = [r["result"]["metrics"] for r in runs
                   if r["workload"] == workload and r["trace"] == 0]
        out[workload] = {"runs": len(results)}
        for name in END_TO_END:
            values = [m[name]["value"] for m in results]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[workload][name] = {"median": median, "q1": q1, "q3": q3}
    return out


def src_lines() -> dict:
    counts = {p: len(p.read_text().splitlines()) for p in SRC.rglob("*.py")}
    tables = counts.get(TABLES, 0)
    return {"logic": sum(counts.values()) - tables, "tables": tables}


def artefact_hashes() -> dict:
    """sha256 of each CSV of every workload's command at the seed, with the
    argument lists that ``bench/run.py`` itself uses."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    sys.path.insert(0, str(ROOT / "bench"))  # run.py imports its siblings
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    hashes = {}
    for workload in sorted(harness.WORKLOADS):
        with tempfile.TemporaryDirectory() as out:
            subprocess.run([sys.executable, "-m", "powertrack.cli",
                            *harness.workload_argv(workload, SEED), "--out-dir", out],
                           cwd=ROOT, env=_env(), capture_output=True, check=True)
            hashes[workload] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                for p in sorted(Path(out).glob("*.csv"))}
    return hashes


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", summary)}
    return {"summary": summary, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "wall_s": round(wall, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="trajectory point: writes BENCH_<n>.json")
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="seconds per bench/run.py call (default 4)")
    args = parser.parse_args(argv)
    runs = [bench_run(w, 0, args.seconds) for _ in range(REPEATS) for w in REPEATED]
    runs += [bench_run(w, 1, args.seconds) for w in TRACED]
    record = {
        "seed": SEED,
        "seconds": args.seconds,
        "repeats": REPEATS,
        "quartiles": quartiles(runs),
        "runs": runs,
        "src_lines": src_lines(),
        "sha256": artefact_hashes(),
        "tier1": tier1(),
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
