"""Self-test of the benchmark's declaration: metric-name validation and
the per-layer to end-to-end map. Runs under `python3 perfbench/run.py
--selftest`, or alone with `python3 -m unittest discover perfbench`."""

import copy
import json
import re
import unittest
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


class NameValidationTest(unittest.TestCase):
    def test_accepts_declared_names(self):
        for name in ["p50_us", "fastmap.embed_p50_us", "semantic-knn",
                     "9lives", "a", "x" * 64]:
            self.assertTrue(spec.valid_name(name), name)

    def test_rejects_bad_names(self):
        for name in ["", "-lead", ".lead", "_lead", "a/b", "a b", "a:b",
                     "p99%", "x" * 65, "naïve", None, 7]:
            self.assertFalse(spec.valid_name(name), name)

    def test_units(self):
        for unit in ["us", "s", "1/s", "count", "%", "ratio"]:
            self.assertTrue(spec.valid_unit(unit), unit)
        for unit in ["", "micro seconds", "x" * 17]:
            self.assertFalse(spec.valid_unit(unit), unit)


class DeclarationTest(unittest.TestCase):
    def test_declaration_holds_every_rule(self):
        self.assertEqual(spec.problems(), [])

    def test_committed_benchmark_json_is_generated(self):
        path = HERE.parent / "BENCHMARK.json"
        self.assertEqual(json.loads(path.read_text()),
                         spec.benchmark_json())

    def test_cpp_reports_exactly_the_declared_layer_metrics(self):
        source = (HERE / "cpp" / "main.cc").read_text()
        block = re.search(r"kLayerMetrics\[\] = \{(.*?)\};", source, re.S)
        names = re.findall(r'"([^"]+)"', block.group(1))
        self.assertEqual(names, [m["name"] for m in spec.PER_LAYER])

    def test_setup_bound_is_largest(self):
        doc = copy.deepcopy(spec.benchmark_json())
        doc["end_to_end"][0]["bound"] = 0.26
        self.assertTrue(spec.problems(doc))
        doc = copy.deepcopy(spec.benchmark_json())
        for m in doc["end_to_end"]:
            if m["name"] == "setup_s":
                m["bound"] = 0.01
        self.assertIn("setup_s must have the largest bound",
                      spec.problems(doc))

    def test_rejects_invalid_metric_name(self):
        doc = copy.deepcopy(spec.benchmark_json())
        doc["per_layer"][0]["name"] = "fastmap/embed"
        self.assertTrue(spec.problems(doc))

    def test_rejects_duplicate_name(self):
        doc = copy.deepcopy(spec.benchmark_json())
        doc["per_layer"].append(dict(doc["per_layer"][0]))
        self.assertIn("a name is used twice", spec.problems(doc))


class LayerMapTest(unittest.TestCase):
    def test_every_layer_metric_in_one_group(self):
        seen = [m for g in spec.LAYERS for m in g["metrics"]]
        self.assertEqual(sorted(seen),
                         sorted(m["name"] for m in spec.PER_LAYER))

    def test_rejects_unknown_workload(self):
        layers = copy.deepcopy(spec.LAYERS)
        layers[0]["on"].append("no-such-workload")
        self.assertTrue(spec.problems(layers=layers))

    def test_rejects_unknown_end_to_end_metric(self):
        layers = copy.deepcopy(spec.LAYERS)
        layers[0]["moves"].append("fail_frac")
        self.assertTrue(spec.problems(layers=layers))

    def test_rejects_undeclared_layer_metric(self):
        layers = copy.deepcopy(spec.LAYERS)
        layers[0]["metrics"].append("fastmap.undeclared_us")
        self.assertTrue(spec.problems(layers=layers))

    def test_rejects_metric_in_two_groups(self):
        layers = copy.deepcopy(spec.LAYERS)
        layers[1]["metrics"].append(layers[0]["metrics"][0])
        self.assertIn("every per-layer metric must be in exactly one layer",
                      spec.problems(layers=layers))


if __name__ == "__main__":
    unittest.main()
