"""powertrack benchmark: three CLI workloads, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every invocation calls the real entry point,
``powertrack.cli.main(argv)``, with the benchmark seed passed as ``--seed``,
and its CSVs are checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median, over ``SETUP_SPAWNS`` fresh processes, of the time
  from spawn until ``powertrack.cli`` is imported and the workload's config
  is loaded.  A CLI user pays this on every run.
* ``peak_rss_mb``: peak resident memory of a fresh process running the
  workload once.
* ``wall_s``: median wall time of the command, called in-process after one
  warm-up call, for ``--seconds`` seconds.

``--trace 1`` times the command untraced for half of ``--seconds`` and
traced for the other half, and reports the per-layer metrics of
``tracer.py`` (medians over the traced calls), ``experiments.csv_bytes`` and
``trace.overhead_s`` (traced minus untraced median wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An invocation
fails if it exits nonzero, raises, or fails an output check; the lines
before the JSON give ``error_rate`` = failed / attempted, the run metadata,
and every failure message.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy is imported, inherited by children.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import OutputChecker  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"

SETUP_SPAWNS = 5
MIN_CALLS = 3
CHILD_TIMEOUT_S = 150
UNGATED = "costopt.analytic_self_s"

# Why each workload exists is recorded in the comment at the top of its config.
WORKLOADS = {
    "mc-ps3": ["run", "inputs/mc-ps3.yaml", "--preset", "PS3", "--paths", "5000"],
    "converge-fine": ["converge", "inputs/converge-fine.yaml",
                      "--dtup", "0.125,0.05,0.025,0.01,0.005"],
    "tabulated-forecast": ["run", "inputs/tabulated-forecast.yaml"],
}


def workload_argv(name: str, seed: int) -> list[str]:
    command, config, *rest = WORKLOADS[name]
    return [command, str(BENCH / config), *rest, "--seed", str(seed)]


def import_cli():
    """Import ``powertrack.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "powertrack" / "__init__.py").is_file():
        raise SystemExit(f"error: no powertrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import powertrack
    import powertrack.cli

    if Path(powertrack.__file__).resolve().parent != SRC / "powertrack":
        raise SystemExit(f"error: powertrack imported from {powertrack.__file__}")
    return powertrack.cli


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "threads": THREAD_ENV,
            "src_lines": src_lines}


class Runner:
    """Runs one workload's invocations and keeps the failure tally."""

    def __init__(self, workload: str, seed: int):
        self.cli = import_cli()
        from powertrack.experiments import load_config, scenario_from_config

        self.workload = workload
        self.argv = workload_argv(workload, seed)
        args = self.cli.build_parser().parse_args(self.argv)
        scenario = scenario_from_config(load_config(args.config),
                                        preset_name=args.preset,
                                        seed=args.seed, paths=args.paths)
        self.check = OutputChecker(workload, args.command, seed, scenario,
                                   REFERENCE)
        OUT.mkdir(exist_ok=True)
        self.out_dir = OUT / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []  # one entry per failed invocation
        self.problems: list[str] = []  # failures not tied to one invocation

    def _record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"invocation {self.attempted}: "
                                 + "; ".join(problems))
        return not problems

    def invoke(self, tracer=None) -> float | None:
        """One in-process call of the command; its wall time if it passed."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.argv + ["--out-dir", str(self.out_dir)]
        sink = io.StringIO()
        gc.collect()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(sink))
            if tracer is not None:
                stack.enter_context(tracer)
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except BaseException as err:  # SystemExit from argparse included
                code = f"raised {err!r}"
            elapsed = time.perf_counter() - start
        if code != 0:
            problems = [f"{self.workload}: exit {code}: "
                        f"{sink.getvalue().strip()[-300:]}"]
        else:
            problems = self.check(self.out_dir)
        return elapsed if self._record(problems) else None

    def timed(self, seconds: float, traced: bool = False):
        """Call the command until ``seconds`` have passed (at least MIN_CALLS).

        Returns the wall times of the calls that passed, the layer metrics of
        each traced call, and the last tracer (for writing its spans).
        """
        times, layers, last = [], [], None
        deadline = time.perf_counter() + seconds
        calls = 0
        while time.perf_counter() < deadline or calls < MIN_CALLS:
            calls += 1
            tracer = Tracer() if traced else None
            elapsed = self.invoke(tracer)
            if elapsed is None:
                continue
            times.append(elapsed)
            if tracer is not None:
                layers.append(dict(layer_metrics(tracer.spans),
                                   **{"experiments.csv_bytes": csv_bytes(self.out_dir)}))
                last = tracer
        return times, layers, last

    def spawn(self, mode: str) -> "FreshProcess":
        return FreshProcess(self, mode)

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


class FreshProcess:
    """``fresh.py`` in a child process: time to ready, then its result.

    ``run`` mode counts as one invocation of the command, checked like the
    in-process ones.
    """

    def __init__(self, runner: Runner, mode: str):
        self.runner, self.mode = runner, mode
        self.out_dir = runner.out_dir.with_name(f"{runner.out_dir.name}-{mode}")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = runner.argv + ["--out-dir", str(self.out_dir)]
        # stderr goes to a file: the pipe for stdout is read line by line, and
        # a second pipe could fill up unread.
        self.err_file = tempfile.TemporaryFile(mode="w+", dir=OUT)
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "fresh.py"), str(SRC), mode, *argv],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=self.err_file, text=True)
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()

    def ready(self) -> float:
        """Seconds from spawn until the child has loaded the config."""
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - self.start
        if line.strip() != "ready":
            self.finish()
            raise SystemExit(f"error: fresh process failed: {self.err.strip()[-500:]}")
        return elapsed

    def finish(self) -> str:
        """Wait for the child; return the rest of its standard output."""
        try:
            # read through the same buffered reader as ready(), which may
            # already hold the lines after "ready"
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.err_file.seek(0)
            self.err = self.err_file.read()
            self.err_file.close()
        if self.mode == "run":
            runner = self.runner
            problems = [] if self.proc.returncode == 0 else [
                f"{runner.workload}: fresh process exit {self.proc.returncode}: "
                f"{self.err.strip()[-300:]}"]
            runner._record(problems or runner.check(self.out_dir))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return rest


def csv_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.glob("*.csv"))


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = []
    for _ in range(SETUP_SPAWNS):
        child = runner.spawn("setup")
        setup.append(child.ready())
        child.finish()
    # The memory probe runs alongside the untimed warm-up call, which fills
    # caches and finishes lazy imports before timing starts.
    child = runner.spawn("run")
    runner.invoke()
    child.ready()
    rss_kb = [int(line.split()[1]) for line in child.finish().splitlines()
              if line.startswith("maxrss_kb")]
    wall, _, _ = runner.timed(seconds)
    peak = rss_kb[0] / 1024 if rss_kb else None
    if peak is None:
        runner.problems.append(f"{runner.workload}: fresh process reported no peak RSS")
    print(f"wall_s: {_median(wall)} s (median of {len(wall)} calls, "
          f"min {min(wall, default=None)}, max {max(wall, default=None)})")
    print(f"setup_s: {_median(setup)} s (median of {len(setup)} fresh processes)")
    print(f"peak_rss_mb: {peak} MiB (one fresh process)")
    return {"wall_s": (_median(wall), "s"), "setup_s": (_median(setup), "s"),
            "peak_rss_mb": (peak, "MiB")}


def per_layer(runner: Runner, seconds: float, workload: str, seed: int) -> dict:
    runner.invoke()  # warm-up
    plain, _, _ = runner.timed(seconds / 2)
    traced_wall, per_call, last = runner.timed(seconds / 2, traced=True)
    metrics = {}
    for key in (per_call[0] if per_call else {}):
        values = [m[key] for m in per_call]
        if not key.endswith("_s") and len(set(values)) > 1:
            runner.problems.append(f"{workload}: count {key} differs between "
                                   f"traced calls: {values}")
        metrics[key] = _median(values)
    if plain and traced_wall:
        metrics["trace.overhead_s"] = _median(traced_wall) - _median(plain)
    # Printed, not in the result: converge-fine makes no analytic call, so
    # there it is exactly 0 on every run, and mc-ps3 spends under 0.1% in it.
    print(f"{UNGATED}: {metrics.pop(UNGATED, None)} s")
    if last is not None:
        path = OUT / "traces" / f"{workload}-seed{seed}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        last.write(path)
        print(f"spans: {path.relative_to(ROOT)} ({len(last.spans)} spans)")
    print(f"traced calls: {len(per_call)}, untraced calls: {len(plain)}")
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics = per_layer(runner, args.seconds, args.workload, args.seed)
        else:
            metrics = end_to_end(runner, args.seconds)
    finally:
        runner.close()
    failed = len(runner.failures)
    for failure in runner.failures + runner.problems:
        print(f"FAILED {failure}")
    print(f"error_rate: {failed / max(runner.attempted, 1):.4f} "
          f"({failed} of {runner.attempted} invocations failed)")
    print("meta: " + json.dumps(run_metadata(args.seed)))
    print(json.dumps({
        "correct": not runner.failures and not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
