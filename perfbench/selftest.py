"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/selftest.py      (or: python3 perfbench/selftest.py)

Kept out of the default pytest collection so that the repository's test
suite does not start benchmark children.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from inputs import MeshSpec, WorkloadInputs, mesh_inputs  # noqa: E402

TINY_VERIFY = ["verify", "-n", "1", "-r", "1", "--format", "json", "--suite", "dims", "--suite", "whitney"]
TINY_MESHES = (MeshSpec("tri", 2, 1, "full", 1, 1), MeshSpec("tet", 3, 1, "minus", 1, 1))


def cli_output(argv: list[str]) -> tuple[int, str]:
    from feec import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class TinyWorkload(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.workdir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def inputs(self, kind: str, specs=TINY_MESHES, seed: int = 5) -> WorkloadInputs:
        inputs = mesh_inputs(kind, specs, seed)
        for name, text in inputs.files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        return inputs

    def runner(self) -> run.Runner:
        return run.Runner(self.workdir, time.monotonic(), "mesh-certify", 5)


class MetricsNamed(TinyWorkload):
    def test_every_metric_is_emitted_with_its_unit(self):
        spec = run.load_spec()
        inputs = self.inputs("decompose")
        for traced, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            samples, setup = run.collect(self.runner(), inputs, 0, "selftest" if traced else None)
            result = run.result_line(spec, traced, samples, setup)
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
            for m in wanted:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"])
                self.assertIsInstance(got["value"], (int, float))
        layers = result["metrics"]
        self.assertEqual(layers["mesh.load.calls"]["value"], 2)
        self.assertGreater(layers["linalg.rank.calls"]["value"], 0)
        self.assertGreater(layers["assemble.verify_single_valued.pairs"]["value"], 0)


class CorruptedOutputsFail(TinyWorkload):
    def test_verify_flipped_verdict(self):
        code, text = cli_output(TINY_VERIFY)
        golden = " ".join(TINY_VERIFY)
        self.assertEqual(checks.check_verify(golden, code, text), 0)
        flipped = text.replace('"passed": true', '"passed": false', 1)
        self.assertEqual(checks.check_verify(golden, code, flipped), 7)
        self.assertEqual(checks.check_verify(golden, 1, text), 7)

    def test_decompose_flipped_verdict_and_wrong_total(self):
        inputs = self.inputs("decompose")
        req = inputs.requests[0]
        code, text = cli_output(["decompose", "--mesh", str(self.workdir / req["mesh"]),
                                 "--family", req["family"], "-r", str(req["r"]),
                                 "-k", str(req["k"]), "--format", "json"])
        self.assertEqual(checks.check_decompose(code, text, req["expected"]), 0)
        payload = json.loads(text)
        payload["verified"]["direct_sum"] = False
        self.assertEqual(checks.check_decompose(code, json.dumps(payload), req["expected"]), 1)
        self.assertEqual(checks.check_decompose(code, text, req["expected"] + 1), 1)
        self.assertEqual(checks.check_decompose(1, text, req["expected"]), 1)

    def test_peel_wrong_component(self):
        from feec import assemble, mesh
        from feec.spaces import Family

        req = self.inputs("peel", (MeshSpec("tri", 2, 2, "minus", 2, 1),)).requests[0]
        coefficients = [int(x) for x in (self.workdir / req["coefficients"]).read_text().split()]
        t = mesh.load(str(self.workdir / req["mesh"]))
        elements = assemble.assemble_basis(t, Family.MINUS, 2, 1)
        # silence one face entirely
        quiet = elements[0].face.vertices
        coefficients = [0 if el.face.vertices == quiet else c for el, c in zip(elements, coefficients)]
        member = child.build_member(elements, coefficients)
        components = assemble.decompose(t, Family.MINUS, 2, 1, member)
        self.assertEqual(checks.check_peel(elements, coefficients, components), 0)
        self.assertNotIn(quiet, components)

        face, form = next(iter(components.items()))
        self.assertEqual(checks.check_peel(elements, coefficients, {**components, face: 2 * form}), 1)
        self.assertEqual(checks.check_peel(elements, coefficients, {**components, quiet: form}), 1)
        missing = {f: w for f, w in components.items() if f != face}
        self.assertEqual(checks.check_peel(elements, coefficients, missing), 1)


class ColdProcesses(TinyWorkload):
    def test_a_filled_cache_is_seen_and_fails_the_gate(self):
        from feec import FaceRef, Family, dof, dual_extend, one

        self.addCleanup(dof._solver_cache.clear)
        dual_extend(Family.FULL, one(0), FaceRef(1, (0,)), FaceRef.full(1), 1, 0)
        sizes = child.cache_sizes()
        self.assertGreater(sizes["dof._solver_cache"], 0)
        req = self.inputs("decompose").requests[0]
        self.assertEqual(run.gate(req, {"caches_before": sizes}), (1, 1))

    def test_requests_do_not_share_a_process(self):
        inputs = self.inputs("peel")
        runner = self.runner()
        first = run.run_sample(runner, inputs, None)
        second = run.run_sample(runner, inputs, None)
        pids = first["pid"] + second["pid"]
        self.assertEqual(len(set(pids)), len(pids))
        for sample in (first, second):
            self.assertTrue(sample["complete"])
            self.assertEqual(sample["failed"], 0)
            for caches in sample["caches_before"]:
                self.assertIn("dof._solver_cache", caches)
                self.assertFalse(any(caches.values()))


if __name__ == "__main__":
    unittest.main()
