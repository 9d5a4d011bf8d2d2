"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

AccountingTest is the traced run's self-check, on every workload: the
layers' self times, derived by subtraction from nested spans, must sum to
the replay's wall time, and none may come out negative (a child span that
overlaps another or escapes its parent would). On remote shards the
hand-driven candidates fan-out must also reproduce the router's own
fan-out span, so the shard.* parts account for the fan-out time.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS, Inputs  # noqa: E402

RESIDUAL_TOLERANCE_PCT = 1.0  # |wall - sum of self times| / wall
NEGATIVE_TOLERANCE_PCT = 1.0  # how far below zero one self time may read
FANOUT_TOLERANCE_PCT = 25.0   # hand-driven fan-out against the router's span


class BenchmarkFileTest(unittest.TestCase):
    def test_names_and_units_match_what_run_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(BENCHMARKED))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


class AccountingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _, cls.layers_bin = run.build()

    def layers(self, workload, rows):
        run_dir = run.BUILD / "test" / workload
        run_dir.mkdir(parents=True, exist_ok=True)
        inputs = Inputs(workload, seed=7, rows=rows)
        return run.run_layers(self.layers_bin, inputs, run_dir, seconds=1)

    def assert_accounted(self, metrics):
        self.assertLessEqual(abs(metrics["accounting.residual_pct"]),
                             RESIDUAL_TOLERANCE_PCT)
        self.assertGreaterEqual(metrics["accounting.worst_self_pct"],
                                -NEGATIVE_TOLERANCE_PCT)

    def test_fullrank(self):
        self.assert_accounted(self.layers("fullrank", 20_000))

    def test_ingest_mixed(self):
        self.assert_accounted(self.layers("ingest-mixed", 20_000))

    def test_remote_shards(self):
        metrics = self.layers("remote-shards", WORKLOADS["remote-shards"]["rows"])
        self.assert_accounted(metrics)
        self.assertLessEqual(abs(metrics["accounting.fanout_gap_pct"]),
                             FANOUT_TOLERANCE_PCT)
        self.assertGreater(metrics["shard.fanout_ms_per_query"], 0.0)


if __name__ == "__main__":
    unittest.main()
