"""Run every benchmark workload and print its metrics as Markdown tables.

    python3 bench/report.py [--seed 7] [--seconds 35]

For each workload this runs ``run.py`` with ``--trace 0`` (end-to-end
metrics plus ``error_rate``) and then with ``--trace 1`` (per-layer
metrics), one run at a time, and prints:

* the end-to-end table: ``wall_s``, ``setup_s``, ``peak_rss_mb`` and
  ``error_rate`` with their units;
* the share of traced self time in each layer bucket;
* the per-layer counts and ratios.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import UNGATED, WORKLOADS  # noqa: E402
from tracer import BUCKETS  # noqa: E402

BUCKET_METRIC = {"costopt.mc": "costopt.mc_self_s", "costopt.seq": "costopt.seq_self_s",
                 "costopt.analytic": "costopt.analytic_self_s"}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=BENCH.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    for line in proc.stdout.splitlines()[:-1]:
        if line.startswith("FAILED"):
            print(line, file=sys.stderr)
        if line.startswith(UNGATED + ": ") and line.split()[1] != "None":
            result["metrics"][UNGATED] = {"value": float(line.split()[1]), "unit": "s"}
    return result


def _row(cells) -> str:
    return "| " + " | ".join(str(c) for c in cells) + " |"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args()

    plain = {w: run(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    print(_row(["workload", "wall_s (s)", "setup_s (s)", "peak_rss_mb (MiB)",
                "error_rate", "correct"]))
    print(_row(["---"] * 6))
    for w, r in plain.items():
        m = {k: v["value"] for k, v in r["metrics"].items()}
        print(_row([w, f"{m['wall_s']:.3f}", f"{m['setup_s']:.3f}",
                    f"{m['peak_rss_mb']:.1f}",
                    f"{r['failed'] / r['attempted']:.3f} ({r['failed']}/{r['attempted']})",
                    r["correct"]]))

    traced = {w: {k: v["value"] for k, v in run(w, args.seed, args.seconds, 1)
                  ["metrics"].items()} for w in WORKLOADS}
    print()
    print(_row(["workload"] + list(BUCKETS) + ["trace.overhead_s"]))
    print(_row(["---"] * (len(BUCKETS) + 2)))
    for w, m in traced.items():
        selfs = [m[BUCKET_METRIC.get(b, f"{b}.self_s")] for b in BUCKETS]
        total = sum(selfs)
        print(_row([w] + [f"{100 * s / total:.1f}%" for s in selfs]
                   + [f"{m['trace.overhead_s']:.3f}"]))
    print()
    counts = [k for k in next(iter(traced.values()))
              if not k.endswith("_s")]
    print(_row(["metric"] + list(traced)))
    print(_row(["---"] * (len(traced) + 1)))
    for k in counts:
        print(_row([k] + [f"{traced[w][k]:.6g}" for w in traced]))


if __name__ == "__main__":
    main()
