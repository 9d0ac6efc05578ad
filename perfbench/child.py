"""One cold interpreter: set up, serve one request, check it, report one JSON line.

    python3 perfbench/child.py setup --workload NAME --seed N
    python3 perfbench/child.py request --request JSON --workdir DIR [--trace RUN_ID]

`setup` only pays what every request pays before its timed region: the
interpreter, the feec imports and generating the workload's inputs.  feec
must be importable (run.py puts the checkout's `src` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

from checks import check_peel, render_verify
from reference import reference_s


def cache_sizes() -> dict[str, int]:
    """Sizes of the module-level caches in feec; a cold process has them all empty."""
    sizes = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "feec" and not mod_name.startswith("feec."):
            continue
        short = mod_name.removeprefix("feec.")
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_info"):
                sizes[f"{short}.{attr}"] = value.cache_info().currsize
            elif "cache" in attr.lower() and isinstance(value, (dict, list, set)):
                sizes[f"{short}.{attr}"] = len(value)
    return sizes


def run_cli(argv: list[str]) -> tuple[int, str]:
    from feec import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def build_member(elements, coefficients: list[int]) -> dict:
    """The piecewise form sum of c_i times element i, cell by cell."""
    piecewise = {}
    for el, c in zip(elements, coefficients):
        if not c:
            continue
        for ci, w in el.restrictions.items():
            piece = c * w
            piecewise[ci] = piecewise[ci] + piece if ci in piecewise else piece
    return piecewise


def serve(req: dict, workdir: str, tracer) -> dict:
    """Run one request; the timed region covers exactly the user path."""
    from feec import assemble, mesh, verify
    from feec.spaces import Family

    out: dict = {"name": req["name"], "pid": os.getpid(), "caches_before": cache_sizes()}
    coefficients = None
    if req["kind"] == "peel":
        with open(os.path.join(workdir, req["coefficients"]), encoding="utf-8") as fh:
            coefficients = [int(x) for x in fh.read().split()]
    if req["kind"] == "decompose":
        argv = ["decompose", "--mesh", os.path.join(workdir, req["mesh"]),
                "--family", req["family"], "-r", str(req["r"]), "-k", str(req["k"]),
                "--format", "json"]
    else:
        argv = req.get("argv")

    if tracer is not None:
        tracer.install()
    ref_before = reference_s()
    t0 = time.perf_counter()
    if req["kind"] == "peel":
        family = Family(req["family"])
        t = mesh.load(os.path.join(workdir, req["mesh"]))
        elements = assemble.assemble_basis(t, family, req["r"], req["k"])
        member = build_member(elements, coefficients)
        components = assemble.decompose(t, family, req["r"], req["k"], member)
    elif req["kind"] == "suite":
        results = list(verify.SUITES[req["suite"]](**req["kwargs"]))
    else:
        code, stdout = run_cli(argv)
    out["op_s"] = time.perf_counter() - t0
    out["refs"] = [ref_before, reference_s()]
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    if req["kind"] == "peel":
        out["exit_code"] = 0
        out["failed"] = check_peel(elements, coefficients, components)
        out["elements"] = len(elements)
    elif req["kind"] == "suite":
        out["exit_code"] = 0
        out["stdout"] = render_verify([
            {"suite": r.suite, "case": r.label, "passed": r.passed, "detail": r.detail}
            for r in results
        ])
    else:
        out["exit_code"] = code
        out["stdout"] = stdout
    if tracer is not None:
        out["trace"] = tracer.totals()
        tracer.write(os.path.join(workdir, f"spans-{req['name']}.bin"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "request"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--request")
    parser.add_argument("--workdir")
    parser.add_argument("--trace", metavar="RUN_ID")
    args = parser.parse_args()

    import feec.cli  # noqa: F401  (the imports every request pays for)
    from inputs import workload_inputs

    if args.mode == "setup":
        workload_inputs(args.workload, args.seed)
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.trace)
    print(json.dumps(serve(json.loads(args.request), args.workdir, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
