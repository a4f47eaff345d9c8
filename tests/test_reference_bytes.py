"""The benchmark's gated workloads write the CSV bytes recorded in
``bench/reference/sha256.json``, so a change that moves an artefact byte
fails here and not only in a benchmark run.  The command lines come from
``bench/run.py``; nothing under ``bench/`` is written."""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from powertrack.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference" / "sha256.json").read_text())
SEED = 7  # the seed the reference hashes were recorded at


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # run.py pins thread counts in os.environ and imports its sibling modules
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path",
                                                        [str(BENCH), *sys.path]):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["mc-ps3", "converge-fine"])
def test_workload_csvs_match_the_reference_sha256(bench_run, workload, tmp_path,
                                                  capsys):
    argv = bench_run.workload_argv(workload, SEED) + ["--out-dir", str(tmp_path)]
    assert main(argv) == 0, capsys.readouterr().err
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in REFERENCE[workload]}
    assert got == REFERENCE[workload]
