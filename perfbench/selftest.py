"""Self-tests of the benchmark (not of the program).

    python3 perfbench/selftest.py

About 20 seconds. The end-to-end cases run the command in a temporary
copy of the checkout under perfbench/out, so the committed references
are never touched.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(cwd, workload, seed=0, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=180)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_match_the_spec(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        e2e = [m["name"] for m in spec["end_to_end"]]
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, list(run.END_TO_END))
        self.assertEqual(layers, run.per_layer_names())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(W.WORKLOADS))
        for name in e2e + list(layers):
            self.assertTrue(NAME.fullmatch(name), name)


class Inputs(unittest.TestCase):
    def test_engine_inputs_are_deterministic_per_seed(self):
        def docs(seed):
            return [c.doc for c in W.prepare_engine_eval(seed)]
        self.assertEqual(docs(5), docs(5))
        self.assertNotEqual(docs(5), docs(6))

    def test_task_lists_are_deterministic_per_seed(self):
        a, _ = W.build_tasks("closed-forms", 5)
        b, _ = W.build_tasks("closed-forms", 5)
        self.assertEqual(a, b)
        self.assertEqual(len(a), 187)

    def test_another_seed_changes_values_but_no_status(self):
        base = W.prepare_suite("closed-forms", W.DEFAULT_SEED)
        other = W.prepare_suite("closed-forms", 7)
        from hankelpf.harness import run_check
        a = [run_check(p) for p in base.tasks]
        b = [run_check(p) for p in other.tasks]
        self.assertEqual([r.status for r in a], [r.status for r in b])
        self.assertEqual([r.status for r in a],
                         [base.ref_status[i][2] for i in base.index])
        self.assertTrue(any((x.lhs, x.rhs) != (y.lhs, y.rhs)
                            for x, y in zip(a, b)))


class EndToEnd(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=run.OUT)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), self.tmp)
        shutil.copytree(HERE, os.path.join(self.tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_without_the_program_it_fails_and_prints_no_result(self):
        done = _run(self.tmp, "closed-forms")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")

    def _corrupt(self, name, edit):
        shutil.copytree(os.path.join(ROOT, "src"),
                        os.path.join(self.tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(self.tmp, "perfbench", "refs", name)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def _assert_fails(self, workload):
        done = _run(self.tmp, workload)
        self.assertEqual(done.returncode, 1, done.stderr)
        result = json.loads(done.stdout.decode().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_a_corrupted_engine_value_fails_the_run(self):
        def edit(doc):
            doc["hyperpfaffian-int-4.2.8"] += "1"
        self._corrupt("engine-eval-seed0.json", edit)
        self._assert_fails("engine-eval")

    def test_a_corrupted_status_fails_the_run(self):
        def edit(doc):
            i = next(k for k, row in enumerate(doc) if row[0] == "selberg")
            doc[i][2] = "counterexample"
        self._corrupt("statuses.json", edit)
        self._assert_fails("closed-forms")


if __name__ == "__main__":
    unittest.main()
