"""Simplicial triangulations: cells, the face lattice, and incidence data.

All connectivity is combinatorial; vertex coordinates play no role in the
barycentric algebra and are not stored.  Cells keep their vertex ids sorted,
and a face's local indices inside a cell follow that sorted order, so traces
taken on a shared face from different cells use the same coordinate labels
automatically.  The face lattice is built one level at a time, on the first
request for that level: work of form order k reads only the faces of
dimension >= k.

Mesh files are line oriented::

    simplicial-mesh v1 dim=<n> vertices=<V> cells=<C>
    <n+1 vertex ids>          # one line per cell, '#' starts a comment

Ids are base-10 non-negative integers.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .forms import FaceRef


class MeshFormatError(ValueError):
    """Raised for malformed mesh descriptions; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _is_id(token: str) -> bool:
    # ASCII decimal digits only; str.isdigit alone would admit other scripts and superscripts
    return token.isascii() and token.isdigit()


def _number(lineno: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:  # longer than the interpreter's integer-string limit
        raise MeshFormatError(lineno, f"number of {len(token)} digits is too long") from None


class GlobalFace(NamedTuple):
    """A face of the mesh with its (cell, local face) incidence list."""

    vertices: tuple[int, ...]
    incidence: tuple[tuple[int, FaceRef], ...]

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


class Triangulation:
    """Sorted cells over vertex ids 0..num_vertices - 1; immutable by convention, equal by value."""

    def __init__(self, n: int, num_vertices: int, cells: tuple[tuple[int, ...], ...]) -> None:
        seen = set()
        for cell in cells:
            if len(set(cell)) != n + 1:
                raise ValueError(f"cell {cell} must have {n + 1} distinct vertices")
            if tuple(sorted(cell)) != cell:
                raise ValueError(f"cell {cell} must be sorted")
            if cell[0] < 0 or cell[-1] >= num_vertices:
                raise ValueError(f"cell {cell} uses ids outside 0..{num_vertices - 1}")
            if cell in seen:
                raise ValueError(f"cell {cell} appears twice")
            seen.add(cell)
        self.n, self.num_vertices, self.cells = n, num_vertices, cells
        self._levels: dict[int, tuple[GlobalFace, ...]] = {}
        self._classes: dict[tuple[int, ...], tuple[tuple[int, FaceRef], ...]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangulation):
            return NotImplemented
        return (self.n, self.num_vertices, self.cells) == (other.n, other.num_vertices, other.cells)

    def __hash__(self) -> int:
        return hash((self.n, self.num_vertices, self.cells))

    def faces(self, j: int) -> list[GlobalFace]:
        """All distinct j-faces with incidence data, ordered by vertex tuple.

        Level j is built on its first request, once per triangulation: one
        vertex picker per local j-face, with the cells in the outer loop so
        that each incidence list follows cell order.
        """
        if j < 0 or j > self.n:
            raise ValueError(f"face dimension {j} outside 0..{self.n}")
        if j not in self._levels:
            found: dict = {}
            pickers = [(itemgetter(*fr.indices), fr) for fr in FaceRef.full(self.n).subfaces(j)]
            for ci, cell in enumerate(self.cells):
                for pick, fr in pickers:
                    found.setdefault(pick(cell), []).append((ci, fr))
            # a one-index picker returns a bare vertex id, which sorts like its 1-tuple
            self._levels[j] = tuple(GlobalFace(key if j else (key,), tuple(found[key])) for key in sorted(found))
        return list(self._levels[j])

    def all_faces(self) -> list[GlobalFace]:
        """The whole face lattice, by increasing dimension then vertex tuple."""
        return [f for j in range(self.n + 1) for f in self.faces(j)]

    def classes(self, face: GlobalFace) -> tuple[tuple[int, FaceRef], ...]:
        """The first (cell, local face) of each class of the face's cells, in incidence order.

        A class is joined by chains of cells, each consecutive pair sharing an
        immediate coface (the face plus one vertex); a facet's cells share
        none, and a face with an empty link, a cell, is its own class.  The
        walk is a union-find over the cells' outer vertices, so its cost grows
        about linearly with the incidence.  Each face is walked once per
        triangulation, when first asked for.
        """
        if face.vertices not in self._classes:
            self._classes[face.vertices] = self._walk_classes(face)
        return self._classes[face.vertices]

    def _walk_classes(self, face: GlobalFace) -> tuple[tuple[int, FaceRef], ...]:
        if face.dim == self.n - 1:
            return face.incidence
        parent = list(range(len(face.incidence)))  # each class's root is its first position

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        inner = set(face.vertices)
        owner: dict[int, int] = {}  # outer vertex (one per immediate coface): first position holding it
        for pos, (ci, _) in enumerate(face.incidence):
            for v in self.cells[ci]:
                if v not in inner:
                    a, b = root(pos), root(owner.setdefault(v, pos))
                    parent[max(a, b)] = min(a, b)
        return tuple(inc for pos, inc in enumerate(face.incidence) if parent[pos] == pos)


def loads(text: str) -> Triangulation:
    """Parse a mesh description from a string."""
    header = None
    cells: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    meta: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if parts[:2] != ["simplicial-mesh", "v1"]:
                raise MeshFormatError(lineno, "expected header 'simplicial-mesh v1 ...'")
            for item in parts[2:]:
                key, _, value = item.partition("=")
                if key not in ("dim", "vertices", "cells") or not _is_id(value):
                    raise MeshFormatError(lineno, f"bad header field {item!r}")
                if key in meta:
                    raise MeshFormatError(lineno, f"repeated header field {key!r}")
                meta[key] = _number(lineno, value)
            missing = {"dim", "vertices", "cells"} - meta.keys()
            if missing:
                raise MeshFormatError(lineno, f"header missing {sorted(missing)}")
            if meta["dim"] > 12:  # the cost of one cell climbs steeply with its dimension
                raise MeshFormatError(lineno, f"dim={meta['dim']} is above the supported 12")
            header = lineno
            continue
        fields = line.split()
        if len(fields) != meta["dim"] + 1 or not all(_is_id(f) for f in fields):
            raise MeshFormatError(
                lineno, f"expected {meta['dim'] + 1} non-negative vertex ids"
            )
        ids = tuple(sorted(_number(lineno, f) for f in fields))
        if len(set(ids)) != len(ids):
            raise MeshFormatError(lineno, f"repeated vertex id in cell {ids}")
        if ids[-1] >= meta["vertices"]:
            raise MeshFormatError(lineno, f"vertex id {ids[-1]} out of range")
        if ids in seen:
            raise MeshFormatError(lineno, f"cell {ids} appears twice")
        seen.add(ids)
        cells.append(ids)
    if header is None:
        raise MeshFormatError(1, "empty mesh description")
    if len(cells) != meta["cells"]:
        raise MeshFormatError(
            header, f"header promises {meta['cells']} cells, found {len(cells)}"
        )
    return Triangulation(meta["dim"], meta["vertices"], tuple(cells))


def load(path: str) -> Triangulation:
    """Parse a mesh description from a file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise MeshFormatError(1, f"not a text file: {err}") from err
    return loads(text)


def from_cells(n: int, cells: list[tuple[int, ...]]) -> Triangulation:
    """Build a triangulation from cell vertex tuples, sorting each cell."""
    sorted_cells = tuple(tuple(sorted(c)) for c in cells)
    nv = 1 + max((max(c) for c in sorted_cells), default=-1)
    return Triangulation(n, nv, sorted_cells)
