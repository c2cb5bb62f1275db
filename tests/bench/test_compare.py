"""The tracked-metric extractors and the one regression gate that reads
them: repro-bench drift over the recorded history."""

from repro.audit import record_run
from repro.bench.compare import METRIC_EXTRACTORS
from repro.bench.tables import ExperimentResult


def micro_result(fast_us=10.0, batched_s=0.01, mean_s=0.001):
    result = ExperimentResult(name="micro", description="test")
    result.extra = {
        "isolated_deletion": [{"n": 100, "fast_path_us": fast_us}],
        "batch_queries": {"batched_seconds": batched_s},
        "update_latency": {"insert": {"mean": mean_s}},
    }
    return result


def write_history(tmp_path, *results):
    path = tmp_path / "history.jsonl"
    for result in results:
        record_run(path, result, profile="quick")
    return str(path)


class TestCompare:
    def test_serve_extractor_directions(self):
        extractor = METRIC_EXTRACTORS["serve"]
        metrics = extractor({
            "core": {
                "read_qps": 1000,
                "read_latency_ms": {"p99": 0.5},
            },
        })
        assert metrics["core.read_qps"] == (1000, "higher")
        assert metrics["core.read_latency_p99_ms"] == (0.5, "lower")

    def test_cluster_extractor_directions(self):
        extractor = METRIC_EXTRACTORS["cluster"]
        metrics = extractor({
            "core": {
                "read_qps": 2000,
                "read_latency_ms": {"p99": 0.4},
                "fault_injection": {"catch_up_ms": 12.5, "converged": True},
            },
            "sd": {
                "read_qps": 1500,
                "read_latency_ms": {"p99": 0.3},
                "fault_injection": {},  # fault injection disabled
            },
        })
        assert metrics["core.read_qps"] == (2000, "higher")
        assert metrics["core.read_latency_p99_ms"] == (0.4, "lower")
        assert metrics["core.catch_up_ms"] == (12.5, "lower")
        assert "sd.catch_up_ms" not in metrics


class TestCLI:
    def test_drift_fails_on_regression(self, tmp_path, capsys):
        from repro.bench import runner

        history = write_history(
            tmp_path, micro_result(fast_us=1.0), micro_result(fast_us=100.0)
        )
        assert runner.main(["drift", "--history", history]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_drift_passes_within_tolerance(self, tmp_path):
        from repro.bench import runner

        history = write_history(
            tmp_path, micro_result(fast_us=10.0), micro_result(fast_us=14.0)
        )
        code = runner.main(
            ["drift", "--history", history, "--tolerance", "0.5"]
        )
        assert code == 0

    def test_serve_experiment_registered(self):
        from repro.bench.runner import EXPERIMENTS

        assert "serve" in EXPERIMENTS

    def test_cluster_experiment_registered(self):
        from repro.bench.runner import EXPERIMENTS

        assert "cluster" in EXPERIMENTS

    def test_shard_experiment_registered(self):
        from repro.bench.runner import EXPERIMENTS

        assert "shard" in EXPERIMENTS

    def test_shard_extractor_tracks_qps_latency_and_memory(self):
        extra = {
            "runs": {
                "core": {
                    "read_qps": 5000,
                    "read_latency_ms": {"p50": 0.1, "p99": 0.4},
                    "memory": {
                        "peak_ratio": {"shard-0": 0.26, "shard-1": 0.31},
                    },
                },
            },
        }
        metrics = METRIC_EXTRACTORS["shard"](extra)
        assert metrics["core.read_qps"] == (5000, "higher")
        assert metrics["core.read_latency_p99_ms"] == (0.4, "lower")
        assert metrics["core.max_peak_ratio"] == (0.31, "lower")
