"""Tests for the benchmark's metric code, its checks and its BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

import metrics
import run

ROOT = Path(__file__).resolve().parent.parent


def fake_model(**overrides):
    """A model dict with every key a metric reads, all layers active."""
    keys = set()
    for layer in metrics.LAYERS.values():
        for term in (layer.num, layer.den):
            if term and term.startswith("model:"):
                keys.add(term.split(":", 1)[1])
    model = {key: 10 for key in keys}
    model.update(offered=1000, delivered=990, in_flight=2, window_ns=1_000_000,
                 latency_samples=2000, latency_p50_ns=1500.0, latency_p99_ns=9000.0,
                 snat_leaks=0)
    model.update(overrides)
    return metrics.with_derived(model)


def fake_run(trace, pps):
    host = {"setup_s": 0.2, "traffic_s": 1.0, "peak_rss_kib": 20480,
            "slice_pps": [pps] * 10, "probe_ns": [metrics.PROBE_NOMINAL_NS] * 11}
    for name in ("sim.run", "sim.host.rx", "sim.host.tx", "net.gen", "legacy.service",
                 "softswitch.service", "controller.packet_in", "harmless.migrate",
                 "controller.connect", "openflow.ct.preload"):
        host.update({f"{name}.count": 5, f"{name}.self_ns": 500, f"{name}.total_ns": 700})
    return {"trace": trace, "host": host}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(1000, 0.99), 10)
        self.assertTrue(metrics.percentile_reportable(1000, 0.99))
        self.assertEqual(metrics.samples_beyond(999, 0.99), 9)
        self.assertFalse(metrics.percentile_reportable(999, 0.99))

    def test_median_needs_ten_samples_beyond(self):
        self.assertTrue(metrics.percentile_reportable(20, 0.50))
        self.assertFalse(metrics.percentile_reportable(19, 0.50))
        self.assertFalse(metrics.percentile_reportable(0, 0.50))

    def test_end_to_end_refuses_an_unsupported_p99(self):
        runs = [fake_run(0, 1e5)]
        with self.assertRaises(ValueError):
            metrics.end_to_end(runs, fake_model(latency_samples=500))
        values = metrics.end_to_end(runs, fake_model(latency_samples=1000))
        self.assertEqual(values["sim_latency_p99_us"].base, 1000)


class SpeedNormalization(unittest.TestCase):
    def test_slow_machine_is_scaled_back_to_nominal(self):
        quiet = fake_run(0, 2e5)
        busy = fake_run(0, 1e5)
        busy["host"]["probe_ns"] = [2 * metrics.PROBE_NOMINAL_NS] * 11
        busy["host"]["setup_s"] = 0.4
        self.assertAlmostEqual(metrics.speed_factor(busy), 2.0)
        self.assertAlmostEqual(metrics.host_pps([busy]), metrics.host_pps([quiet]))
        self.assertAlmostEqual(metrics.setup_s([busy]), metrics.setup_s([quiet]))
        self.assertAlmostEqual(metrics.host_pps([busy], normalized=False), 1e5)


class Ledger(unittest.TestCase):
    def test_balanced(self):
        model = {"offered": 100, "delivered": 90, "in_flight": 3}
        balanced, imbalance, lines = metrics.ledger(model, {"sim.rxq": 5, "openflow.ct.invalid": 2})
        self.assertTrue(balanced)
        self.assertEqual(imbalance, 0)
        self.assertIn(("drop:openflow.ct.invalid", 2), lines)

    def test_lost_packet_is_an_imbalance(self):
        model = {"offered": 100, "delivered": 90, "in_flight": 0}
        balanced, imbalance, _ = metrics.ledger(model, {"sim.rxq": 5})
        self.assertFalse(balanced)
        self.assertEqual(imbalance, 5)

    def test_double_counted_packet_is_an_imbalance(self):
        model = {"offered": 100, "delivered": 100, "in_flight": 1}
        balanced, imbalance, _ = metrics.ledger(model, {})
        self.assertFalse(balanced)
        self.assertEqual(imbalance, -1)

    def test_negative_residue_fails_even_when_the_sum_balances(self):
        model = {"offered": 100, "delivered": 100, "in_flight": 0}
        balanced, _, _ = metrics.ledger(model, {"a": 3, "softswitch.no_match_other": -3})
        self.assertFalse(balanced)


class ProcessChecks(unittest.TestCase):
    """One operation is one driver process; modelled drops do not fail it."""

    def process(self, **model):
        base = {"offered": 100, "delivered": 90, "in_flight": 0, "snat_leaks": 0}
        return {"trace": 0, "model": {**base, **model}, "drops": {"openflow.ct.invalid": 10}}

    def test_attributed_drops_pass(self):
        first = self.process()
        _, problems, failed = run.check([first, self.process()], [self.process()])
        self.assertEqual((problems, failed), ([], 0))

    def test_each_failing_process_counts_once(self):
        first = self.process()
        leaky = self.process(snat_leaks=1)
        lost = self.process(delivered=89)
        _, problems, failed = run.check([first, leaky], [lost])
        self.assertEqual(failed, 2)
        # Each differs from the first; one leaks, the other loses a packet.
        self.assertEqual(len(problems), 4)


class RatiosCarryTheirBase(unittest.TestCase):
    def test_ratio_value_and_base(self):
        value = metrics.ratio(30, 120, 1e3, "model:delivered")
        self.assertAlmostEqual(value.value, 250.0)
        self.assertEqual((value.base_name, value.base), ("model:delivered", 120))
        self.assertIn("model:delivered=120", value.describe())

    def test_absent_layer_reads_zero_over_zero(self):
        value = metrics.ratio(0, 0, 1, "model:ct_lookups")
        self.assertEqual((value.value, value.base), (0.0, 0))

    def test_nonzero_over_zero_base_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.ratio(5, 0, 1, "model:ct_lookups")

    def test_every_ratio_metric_declares_a_base(self):
        for name, layer in metrics.LAYERS.items():
            if metrics.UNITS[name] == "ratio" or "_per_" in name or "ratio" in name:
                self.assertIsNotNone(layer.den, name)

    def test_every_computed_ratio_carries_its_base(self):
        model = fake_model()
        untraced = [fake_run(0, 2e5), fake_run(0, 2e5)]
        traced = [fake_run(1, 1.8e5), fake_run(1, 1.8e5)]
        values = metrics.per_layer(untraced, traced, model)
        values.update(metrics.end_to_end(untraced, model))
        self.assertEqual(set(values), set(metrics.UNITS))
        for name, value in values.items():
            if metrics.UNITS[name] == "ratio" or "_per_" in name or "ratio" in name:
                self.assertIsNotNone(value.base_name, name)
                self.assertIsNotNone(value.base, name)
        self.assertAlmostEqual(values["trace.overhead_ratio"].value, 0.9)
        self.assertAlmostEqual(values["failed_ratio"].value, 10 / 1000)
        self.assertAlmostEqual(values["delivered_ratio"].value, 990 / 1000)
        self.assertAlmostEqual(values["sim.other_ns_per_pkt"].value, 500 / 990)


class BenchmarkJson(unittest.TestCase):
    """BENCHMARK.json is within its documented limits, and metrics.py
    knows how to make every metric it lists."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_every_metric_is_defined(self):
        self.assertEqual([m["name"] for m in self.spec["per_layer"]], list(metrics.LAYERS))
        values = metrics.end_to_end([fake_run(0, 1e5)], fake_model())
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]], list(values))
        self.assertEqual(sorted(metrics.WORKLOADS), sorted(metrics.ALL))

    def test_limits(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        entries = self.spec["end_to_end"] + self.spec["per_layer"] + self.spec["workloads"]
        names = [entry["name"] for entry in entries]
        self.assertEqual(len(names), len(set(names)))
        for entry in entries:
            self.assertRegex(entry["name"], name)
            if "unit" in entry:
                self.assertRegex(entry["unit"], unit)
                self.assertIn(entry["better"], ("higher", "lower"))
        for workload in self.spec["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        for entry in self.spec["end_to_end"]:
            self.assertLessEqual(entry["bound"], 0.25)
        setup = [e for e in self.spec["end_to_end"] if e["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(e["bound"] for e in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
