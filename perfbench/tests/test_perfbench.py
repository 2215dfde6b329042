"""Tests of the end-to-end benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark through run.py (first use takes a minute or two).
"""

import difflib
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

WORKLOADS = ["author-loop", "served-session", "batch-proofs"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def perfbench(*args, check=True):
    done = subprocess.run([run.BINARY, "--root", run.ROOT, *args],
                          capture_output=True, text=True, timeout=170)
    if check and done.returncode != 0:
        raise AssertionError(f"perfbench {args} exited {done.returncode}:\n"
                             f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return done


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def axiom_counts(text):
    """Axioms per spec, counted the way the spec grammar lays them out:
    an axiom starts at the axioms section's first indentation, deeper
    lines continue it."""
    counts, spec, base, in_axioms = {}, None, None, False
    for raw in text.splitlines():
        line = raw.split("--")[0].rstrip()
        word = line.strip().split(" ")[0] if line.strip() else ""
        if not word:
            continue
        if word == "spec":
            spec, in_axioms = line.split()[1], False
            counts[spec] = 0
        elif word == "axioms":
            in_axioms, base = True, None
        elif word == "end":
            in_axioms = False
        elif in_axioms:
            indent = len(line) - len(line.lstrip())
            base = indent if base is None else base
            if indent <= base:
                counts[spec] += 1
    return counts


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_stream_is_deterministic_per_seed(self):
        for w in WORKLOADS:
            a = perfbench("--dump-stream", "--workload", w, "--seed", "7").stdout
            b = perfbench("--dump-stream", "--workload", w, "--seed", "7").stdout
            c = perfbench("--dump-stream", "--workload", w, "--seed", "8").stdout
            self.assertTrue(a)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)

    def test_each_deletion_removes_exactly_one_axiom(self):
        lines = perfbench("--list-deletions").stdout.splitlines()
        self.assertGreater(len(lines), 50)
        for line in lines:
            d = json.loads(line)
            before, after = axiom_counts(d["original"]), axiom_counts(d["edited"])
            want = dict(before)
            want[d["spec"]] -= 1
            self.assertEqual(after, want, (d["set"], d["spec"], d["axiom"]))
            diff = [l for l in difflib.ndiff(d["original"].splitlines(),
                                             d["edited"].splitlines())
                    if l[:2] in ("- ", "+ ")]
            self.assertTrue(all(l.startswith("- ") for l in diff), diff)
            self.assertTrue(diff[0][2:].strip().startswith(d["lhs"]), diff)

    def test_metric_names(self):
        spec = benchmark_json()
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
            self.assertEqual(NAME.fullmatch(n).group(0), n)

    def check_result(self, done, metric_key, w):
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], done.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = benchmark_json()
        want = {m["name"]: m["unit"] for m in spec[metric_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want, w)
        self.assertIn("seed=3", done.stdout)

    def test_smoke_each_workload(self):
        for w in WORKLOADS:
            done = perfbench("--workload", w, "--seed", "3", "--seconds", "1",
                             "--trace", "0")
            self.check_result(done, "end_to_end", w)
            self.assertIn("wrong_ratio", done.stdout)
            self.assertIn("failed_ratio", done.stdout)

    def test_smoke_traced(self):
        done = perfbench("--workload", "author-loop", "--seed", "3",
                         "--seconds", "1", "--trace", "1")
        self.check_result(done, "per_layer", "author-loop")


if __name__ == "__main__":
    unittest.main()
