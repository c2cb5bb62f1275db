"""Shared fixtures for the pytest-benchmark suite.

Every bench module runs its experiment once (module scope), prints the
paper-style table, saves the JSON payload to a temporary directory (so a
test run never rewrites the committed ``bench_results/``; those come only
from an explicit ``repro-bench <exp> --save-dir bench_results``), and then
benchmarks a representative kernel with assertions on the *shape* of the
result (who wins, by roughly what factor) — absolute numbers are not the
reproduction claim.
"""

import os

import pytest

from repro.bench.config import BenchConfig
from repro.bench.runner import run_experiment


@pytest.fixture(scope="session")
def config():
    """The quick profile keeps the full bench suite in the minutes range."""
    return BenchConfig.quick()


@pytest.fixture(scope="session")
def run_and_record(tmp_path_factory):
    """Run an experiment by name, print its tables, persist the JSON."""
    results_dir = tmp_path_factory.mktemp("bench_results")
    cache = {}

    def _run(name, config):
        if name not in cache:
            result = run_experiment(name, config)
            print()
            print(result.render())
            result.save(os.path.join(results_dir, f"{name}.json"))
            cache[name] = result
        return cache[name]

    return _run
