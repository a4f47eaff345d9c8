"""Record the reference outputs of the benchmark workloads at the default seed.

    python3 bench/reference/record.py

Copies each workload's CSVs into ``<workload>/`` and writes ``sha256.json``,
the byte-exact references for ``mc-ps3`` and ``converge-fine``;
``tabulated-forecast`` is compared value by value.  Run it only on the commit whose outputs are the
reference; the stored files were recorded at the commit that introduced the
benchmark.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from checks import DEFAULT_SEED, sha256  # noqa: E402
from run import OUT, import_cli, workload_argv  # noqa: E402

HASHED = ("mc-ps3", "converge-fine")
VALUED = ("tabulated-forecast",)


def main() -> None:
    cli = import_cli()
    hashes = {}
    for workload in HASHED + VALUED:
        out_dir = OUT / f"record-{workload}"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = workload_argv(workload, DEFAULT_SEED) + ["--out-dir", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{workload}: exit {code}")
        if workload in HASHED:
            hashes[workload] = {p.name: sha256(p) for p in sorted(out_dir.glob("*.csv"))}
        target = HERE / workload
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(out_dir, target)
        shutil.rmtree(out_dir)
    (HERE / "sha256.json").write_text(json.dumps(hashes, indent=2) + "\n")


if __name__ == "__main__":
    main()
