"""Span tracer wrapped around feec's public functions from outside the package.

Each traced call records one span (name, start, end, parent); the run id is
stored once per span file, since one cold child serves one request.  Spans
are kept in flat arrays and written out when the request ends.  Per-layer
`calls` and `self_s` are derived from the spans afterwards: a span's self
time is its duration minus the durations of its direct children.

Wrappers replace every binding a caller actually looks up: the module
attribute, each `from ... import name` copy in other feec modules, and class
attributes for methods.  A directly recursive call is not given a span of its
own, so `combinat.multiindices.calls` counts calls from other code.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# (metric prefix, module, attribute); "Class.method" names a class attribute.
TARGETS = (
    ("forms.canonicalize", "feec.forms", "canonicalize"),
    ("forms.wedge", "feec.forms", "PolyForm.wedge"),
    ("forms.d", "feec.forms", "PolyForm.d"),
    ("forms.koszul", "feec.forms", "PolyForm.koszul"),
    ("forms.trace", "feec.forms", "PolyForm.trace"),
    ("forms.lift", "feec.forms", "PolyForm.lift"),
    ("forms.add", "feec.forms", "PolyForm.__add__"),
    ("combinat.multiindices", "feec.combinat", "multiindices"),
    ("linalg.rank", "feec.linalg", "rank"),
    ("linalg.solve", "feec.linalg", "solve"),
    ("linalg.inverse", "feec.linalg", "inverse"),
    ("dof.build_dofs", "feec.dof", "build_dofs"),
    ("dof.pairing_matrix", "feec.dof", "pairing_matrix"),
    ("dof.dual_extend", "feec.dof", "dual_extend"),
    ("spaces.enumerate_basis", "feec.spaces", "enumerate_basis"),
    ("spaces.membership", "feec.spaces", "membership"),
    ("spaces.rank_of", "feec.spaces", "rank_of"),
    ("spaces.basis_forms", "feec.spaces", "basis_forms"),
    ("extension.extend_minus_generator", "feec.extension", "extend_minus_generator"),
    ("extension.extend_full_generator", "feec.extension", "extend_full_generator"),
    ("extension.check_consistency", "feec.extension", "check_consistency"),
    ("extension.characterization_equality", "feec.extension", "characterization_equality"),
    ("mesh.load", "feec.mesh", "load"),
    ("mesh.faces", "feec.mesh", "Triangulation.faces"),
    ("assemble.assemble_basis", "feec.assemble", "assemble_basis"),
    ("assemble.verify_direct_sum", "feec.assemble", "verify_direct_sum"),
    ("assemble.decompose", "feec.assemble", "decompose"),
    ("assemble.verify_single_valued", "feec.assemble", "verify_single_valued"),
    ("cli.main", "feec.cli", "main"),
    ("render.format_generator", "feec.render", "format_generator"),
)


class Tracer:
    """Spans of one request, in flat arrays indexed by span id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._hook_id = self._name_id("trace.hook")

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        """fn with a span per call; hook(args, kwargs, result) runs in a span of its own."""
        nid = self._name_id(name)
        hook_id = self._hook_id
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_of[top] == nid:
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(nid)
            parent.append(top)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                h = len(name_of)
                name_of.append(hook_id)
                parent.append(top)
                end.append(0.0)
                start.append(clock())
                hook(args, kwargs, result)
                end[h] = clock()
            return result

        return traced

    def _rebind(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "feec" and not mod_name.startswith("feec."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every target and the verify suites; feec must already be imported."""
        hooks = _hooks(self)
        for name, mod_name, attr in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original, hooks.get(name)))
            else:
                original = getattr(owner, attr)
                self._rebind(original, self.wrap(name, original, hooks.get(name)))
        suites = sys.modules["feec.verify"].SUITES
        for suite, fn in list(suites.items()):
            self._undo.append((suites, suite, fn))
            suites[suite] = self.wrap(f"verify.{suite}", _eager(fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> dict[str, float]:
        """`<span>.calls`, `<span>.self_s` and `<span>.wall_s` for every span name, plus the counters."""
        n = len(self.name_of)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        wall_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_of[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            wall_s[nid] += dur
        out: dict[str, float] = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.wall_s"] = wall_s[nid]
        return out

    def write(self, path: str) -> None:
        """Header line (run id, names, span count) then the four arrays, native byte order."""
        with open(path, "wb") as fh:
            header = {"run_id": self.run_id, "names": self.names, "spans": len(self.name_of),
                      "arrays": ["name", "parent", "start", "end"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def _eager(suite):
    """A suite yields lazily; run it to completion inside the span."""
    def run(*args, **kwargs):
        return list(suite(*args, **kwargs))
    return run


def _matrix_shape(rows) -> tuple[int, int]:
    return len(rows), (len(rows[0]) if rows else 0)


def _hooks(tracer: Tracer) -> dict:
    """Counters recorded at the layer boundaries, keyed by metric prefix."""
    from feec import dof
    from feec.mesh import Triangulation

    build_dofs = dof.build_dofs
    faces = Triangulation.faces
    dual_signature = inspect.signature(dof.dual_extend)
    dofs_by_key: dict = {}
    seen_bases: set = set()

    def canonicalize(args, kwargs, result):
        tracer.count("forms.canonicalize.terms_out", len(result.coeffs))

    def rank(args, kwargs, result):
        rows = args[0]
        nrows, ncols = _matrix_shape(rows)
        tracer.count("linalg.rank.entries", nrows * ncols)
        tracer.count("linalg.rank.nonzero", sum(1 for row in rows for x in row if x))

    def solve(args, kwargs, result):
        nrows, ncols = _matrix_shape(args[0])
        tracer.count("linalg.solve.entries", nrows * ncols)

    def inverse(args, kwargs, result):
        nrows, ncols = _matrix_shape(args[0])
        tracer.count("linalg.inverse.entries", nrows * ncols)

    def dual_extend(args, kwargs, result):
        a = dual_signature.bind(*args, **kwargs).arguments
        key = (a["family"], a["h"].dim, a["r"], a["k"])
        dofs = dofs_by_key.get(key)
        if dofs is None:
            dofs = dofs_by_key[key] = build_dofs(*key)
        f_in_h = a["h"].to_local(a["f"])
        tracer.count("dof.dual_extend.moments", len(dofs))
        tracer.count("dof.dual_extend.live_moments", sum(1 for d in dofs if f_in_h.contains(d.face)))

    def basis_forms(args, kwargs, result):
        kind, face, r, k = args
        key = (kind, face.dim, r, k)
        tracer.count("spaces.basis_forms.lookups", 1)
        tracer.count("spaces.basis_forms.repeats", key in seen_bases)
        seen_bases.add(key)

    def single_valued(args, kwargs, result):
        t, elements, k = args
        shared = sum(len(faces(t, j)) for j in range(k, t.n))
        tracer.count("assemble.verify_single_valued.pairs", len(elements) * shared)

    return {
        "forms.canonicalize": canonicalize,
        "linalg.rank": rank,
        "linalg.solve": solve,
        "linalg.inverse": inverse,
        "dof.dual_extend": dual_extend,
        "spaces.basis_forms": basis_forms,
        "assemble.verify_single_valued": single_valued,
    }
