"""The feec benchmark: cold-process workloads, output gates, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mesh-certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS

Every request runs in a fresh interpreter started after the previous one
has exited (closed loop, one client), so no module-level cache survives from
one request to the next.  The last line of stdout is the result JSON; the
line before it records the seed, the input properties and the machine.  The
full record, with every sample, is also written under `.perfbench/results`.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import VERIFY_GOLDEN, check_decompose, check_verify
from inputs import WORKLOADS, WorkloadInputs, workload_inputs
from reference import reference_s, scaled

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 11
# A run must end within 180 s; stop starting samples that could cross this.
BUDGET_S = 165.0
COUNT_RATIOS = {
    "linalg.rank.nonzero_ratio": ("linalg.rank.nonzero", "linalg.rank.entries"),
    "dof.dual_extend.live_moment_ratio": ("dof.dual_extend.live_moments", "dof.dual_extend.moments"),
    "spaces.basis_forms.repeat_ratio": ("spaces.basis_forms.repeats", "spaces.basis_forms.lookups"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version()}


class Runner:
    """Starts the cold children, one at a time, and never leaves one running."""

    def __init__(self, workdir: Path, started: float, workload: str, seed: int):
        self.workdir = workdir
        self.started = started
        self.workload = workload
        self.seed = seed
        self.env = dict(os.environ)
        self.env.pop("FEEC_MAX_DEGREE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.started)

    def child(self, *args: str) -> tuple[int, str, float]:
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return -1, "", time.monotonic() - t0
        return proc.returncode, proc.stdout, time.monotonic() - t0

    def setup_probes(self, count: int) -> list[tuple[float, list[float]]] | None:
        """Wall times of set-up-only children, each with the reference kernel times around it."""
        refs = [reference_s()]
        walls = []
        for _ in range(count):
            code, _, wall = self.child("setup", "--workload", self.workload, "--seed", str(self.seed))
            if code != 0:
                return None
            walls.append(wall)
            refs.append(reference_s())
        return [(wall, refs[i:i + 2]) for i, wall in enumerate(walls)]

    def request(self, req: dict, run_id: str | None) -> dict | None:
        args = ["request", "--request", json.dumps(req), "--workdir", str(self.workdir)]
        if run_id:
            args += ["--trace", run_id]
        code, stdout, _ = self.child(*args)
        if code != 0 or not stdout.strip():
            return None
        return json.loads(stdout.strip().splitlines()[-1])


def gate(req: dict, out: dict | None) -> tuple[int, int]:
    """(attempted, failed) for one request's output."""
    attempted = VERIFY_GOLDEN[req["golden"]][1] if "golden" in req else 1
    if out is None or any(out["caches_before"].values()):
        return attempted, attempted
    if "golden" in req:
        return attempted, check_verify(req["golden"], out["exit_code"], out["stdout"])
    if req["kind"] == "decompose":
        return attempted, check_decompose(out["exit_code"], out["stdout"], req["expected"])
    return attempted, out["failed"]


def run_sample(runner: Runner, inputs: WorkloadInputs, run_id: str | None) -> dict:
    """Each request of the workload once, each in its own cold child, then the gates."""
    requests = inputs.requests
    outs = [runner.request(req, run_id) for req in requests]
    attempted = failed = 0
    for req, out in zip(requests, outs):
        a, f = gate(req, out)
        attempted += a
        failed += f
    complete = all(out is not None for out in outs)
    return {
        "op_s": [out["op_s"] if out else None for out in outs],
        "scaled_s": [scaled(out["op_s"], out["refs"]) if out else None for out in outs],
        "refs": [out["refs"] if out else None for out in outs],
        "rss_kb": [out["rss_kb"] if out else None for out in outs],
        "pid": [out["pid"] if out else None for out in outs],
        "caches_before": [out["caches_before"] if out else None for out in outs],
        "trace": [out.get("trace") if out else None for out in outs],
        "attempted": attempted,
        "failed": failed,
        "complete": complete,
    }


def collect(runner: Runner, inputs: WorkloadInputs, seconds: float, run_id: str | None
            ) -> tuple[list[dict], list[tuple[float, list[float]]]]:
    """Samples and set-up probe times of one run.

    Untraced: set-up probes, then samples until `seconds` have been measured.
    Traced: one untraced sample for the overhead ratio, then one traced sample.
    """
    if run_id:
        return [run_sample(runner, inputs, None), run_sample(runner, inputs, run_id)], []
    setup = runner.setup_probes(SETUP_PROBES)
    if setup is None:
        raise RuntimeError("set-up probe failed")
    samples: list[dict] = []
    measure_from = time.monotonic()
    while True:
        t0 = time.monotonic()
        samples.append(run_sample(runner, inputs, None))
        now = time.monotonic()
        if not samples[-1]["complete"] or now - measure_from >= seconds:
            break
        if runner.remaining() < 1.5 * (now - t0):
            break
    return samples, setup


def result_line(spec: dict, traced: bool, samples: list[dict], setup: list) -> dict:
    """The final stdout line: verdict, operation counts and every named metric with its unit."""
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    complete = all(s["complete"] for s in samples)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    if not traced:
        values = end_to_end(samples, setup, attempted, failed)
    elif complete:
        values = per_layer([m["name"] for m in wanted], samples[1], samples[0])
    else:
        values = {m["name"]: None for m in wanted}
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def end_to_end(samples: list[dict], setup: list, attempted: int, failed: int) -> dict:
    """Medians over samples; times are in reference seconds (see reference.py)."""
    done = [s for s in samples if s["complete"]]
    return {
        "setup_s": statistics.median(scaled(wall, refs) for wall, refs in setup) if setup else None,
        "request1_s": statistics.median(s["scaled_s"][0] for s in done) if done else None,
        "request2_s": statistics.median(s["scaled_s"][1] for s in done) if done else None,
        "total_s": statistics.median(sum(s["scaled_s"]) for s in done) if done else None,
        "peak_rss_mb": statistics.median(max(s["rss_kb"]) / 1024 for s in done) if done else None,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(names: list[str], traced: dict, untraced: dict) -> dict:
    """Per-layer metrics summed over the requests of one traced sample."""
    totals: dict[str, float] = {}
    for request in traced["trace"]:
        for key, value in request.items():
            totals[key] = totals.get(key, 0) + value
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = sum(traced["scaled_s"]) / sum(untraced["scaled_s"])
        elif name in COUNT_RATIOS:
            num, den = COUNT_RATIOS[name]
            values[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        else:
            values[name] = totals.get(name, 0)
    return values


def run(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "feec" / "__init__.py").is_file():
        print(f"feec sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    inputs = workload_inputs(args.workload, args.seed)
    workdir = STATE / "work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    runner = Runner(workdir, started, args.workload, args.seed)
    run_id = f"{args.workload}-{args.seed}-{time.time_ns()}" if args.trace else None
    try:
        samples, setup = collect(runner, inputs, args.seconds, run_id)
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 2
    result = result_line(spec, bool(args.trace), samples, setup)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": len(samples), "setup_probes": len(setup),
        "inputs": inputs.properties, "machine": machine(),
    }
    detail = [{k: s[k] for k in ("op_s", "scaled_s", "refs", "rss_kb", "attempted", "failed", "complete")}
              for s in samples]
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(dict(info, setup_s=setup, samples_detail=detail, result=result),
                               indent=1), encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


# -- compare mode --------------------------------------------------------------


def load_results(directory: str) -> dict[str, list[dict]]:
    """Untraced result records by workload, in the order the runs were made."""
    by_workload: dict[str, list[dict]] = {}
    paths = sorted(Path(directory).glob("*.json"), key=lambda p: int(p.stem.rsplit("-", 1)[1]))
    for path in paths:
        rec = json.loads(path.read_text(encoding="utf-8"))
        if not rec["trace"]:
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The rule for claiming a gain, else the bound check, per metric and workload."""
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        return "improved"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved"
    return "within bound"


def compare(parent_dir: str, change_dir: str) -> int:
    spec = load_spec()
    parent, change = load_results(parent_dir), load_results(change_dir)
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  verdict")
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in parent[workload]]
            cv = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            pq, cq = quartiles(pv), quartiles(cv)
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={len(v)}" for q, v in ((pq, pv), (cq, cv))]
            print(f"{workload:16s} {name:12s} {cells[0]:>34s} {cells[1]:>34s}  "
                  f"{verdict(pv, cv, m['better'], m['bound'])}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_RESULTS", "CHANGE_RESULTS"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
