import random
import re
import time
from collections import Counter
from itertools import combinations

import pytest

from feec import Family, assemble_basis, verify_direct_sum, verify_single_valued
from feec.cli import main
from feec.forms import FaceRef
from feec.mesh import MeshFormatError, Triangulation, from_cells, load, loads
from feec.verify import builtin_meshes, suite_decomposition
from helpers import non_manifold_meshes, shuffled_grid

TWO_TRIANGLES = """\
# two triangles sharing an edge
simplicial-mesh v1 dim=2 vertices=4 cells=2
0 1 2
1 2 3
"""


def test_loads_two_triangles():
    t = loads(TWO_TRIANGLES)
    assert t.n == 2 and t.num_vertices == 4
    assert t.cells == ((0, 1, 2), (1, 2, 3))
    assert [len(t.faces(j)) for j in range(3)] == [4, 5, 2]


def test_single_tetrahedron_lattice():
    t = from_cells(3, [(0, 1, 2, 3)])
    assert [len(t.faces(j)) for j in range(4)] == [4, 6, 4, 1]
    assert len(t.all_faces()) == 15


def test_cells_sharing_one_vertex():
    t = from_cells(2, [(0, 1, 2), (0, 3, 4)])
    assert len(t.faces(0)) == 5
    assert len(t.faces(1)) == 6


def test_shared_edge_incidence():
    t = loads(TWO_TRIANGLES)
    edges = {f.vertices: f for f in t.faces(1)}
    shared = edges[(1, 2)]
    assert len(shared.incidence) == 2
    # the local references recover the same global tuple from both sides
    for ci, fr in shared.incidence:
        cell = t.cells[ci]
        assert tuple(cell[v] for v in fr.indices) == (1, 2)
    assert all(len(edges[e].incidence) == 1 for e in edges if e != (1, 2))


def test_fan_incidence_counts():
    t = from_cells(2, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    vertex0 = next(f for f in t.faces(0) if f.vertices == (0,))
    assert len(vertex0.incidence) == 3


def test_lattice_is_built_once_in_cell_order():
    # cells listed out of vertex order: incidence must follow the cell list
    t = from_cells(2, [(1, 2, 3), (0, 2, 3), (0, 1, 2)])
    levels = [t.faces(j) for j in range(3)]
    assert t.all_faces() == [f for level in levels for f in level]
    for level in levels:
        assert [f.vertices for f in level] == sorted(f.vertices for f in level)
        for face in level:
            cells = [ci for ci, _ in face.incidence]
            assert cells == sorted(cells)
    assert [ci for ci, _ in next(f for f in levels[0] if f.vertices == (2,)).incidence] == [0, 1, 2]
    # one lattice per triangulation: later calls share the same face objects,
    # and a caller editing its list does not change the mesh
    assert [len(level) for level in levels] == [4, 6, 3]
    levels[1].clear()
    assert all(a is b for a, b in zip(t.faces(0), levels[0]))
    assert len(t.faces(1)) == 6


def _lattice_oracle(t, j):
    """The j-faces by brute force: each cell's (j+1)-subsets of vertex positions, sorted by vertex tuple."""
    local = FaceRef.full(t.n).subfaces(j)
    found = {}
    for ci, cell in enumerate(t.cells):
        for pos, idx in enumerate(combinations(range(t.n + 1), j + 1)):
            assert local[pos].indices == idx
            found.setdefault(tuple(cell[i] for i in idx), []).append((ci, local[pos]))
    return sorted(found.items())


def test_each_level_in_any_request_order_matches_the_brute_force_oracle():
    rng = random.Random(41)
    for dim, m in ((2, 3), (3, 2), (4, 1)):
        grid = shuffled_grid(rng, dim, m)
        orders = [list(range(dim + 1)), list(range(dim, -1, -1))]
        orders.append(rng.sample(range(dim + 1), dim + 1))
        for order in orders:
            t = from_cells(dim, list(grid.cells))
            for j in order:
                got = t.faces(j)
                want = _lattice_oracle(t, j)
                assert [(f.vertices, list(f.incidence)) for f in got] == want
                # the very local-face objects, and vertex tuples even at j = 0
                assert all(a is b for f, (_, inc) in zip(got, want) for (_, a), (_, b) in zip(f.incidence, inc))
                assert all(type(f.vertices) is tuple and f.dim == j for f in got)
            assert t.all_faces() == [f for j in range(dim + 1) for f in t.faces(j)]


def test_face_count_bound():
    t = loads(TWO_TRIANGLES)
    for j in range(3):
        from math import comb

        assert len(t.cells) * comb(3, j + 1) >= len(t.faces(j))


def test_unsorted_input_is_sorted():
    t = loads("simplicial-mesh v1 dim=2 vertices=3 cells=1\n2 0 1\n")
    assert t.cells == ((0, 1, 2),)
    # meshes are values: the same cells give equal, hash-equal triangulations
    twin = from_cells(2, [(2, 1, 0)])
    assert twin == t and hash(twin) == hash(t) == hash(Triangulation(2, 3, ((0, 1, 2),)))
    assert twin != from_cells(2, [(0, 1, 3)]) and twin != Triangulation(2, 4, ((0, 1, 2),))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MeshFormatError) as err:
        loads("simplicial-mesh v1 dim=2 vertices=3 cells=1\n0 1 1\n")
    assert err.value.line == 2
    with pytest.raises(MeshFormatError):
        loads("bogus header\n")
    with pytest.raises(MeshFormatError):
        loads("simplicial-mesh v1 dim=2 vertices=3\n0 1 2\n")
    with pytest.raises(MeshFormatError) as err:
        loads("simplicial-mesh v1 dim=2 vertices=3 cells=2\n0 1 2\n")
    assert err.value.line == 1
    with pytest.raises(MeshFormatError) as err:
        loads("simplicial-mesh v1 dim=2 vertices=3 cells=1\n0 1 5\n")
    assert err.value.line == 2
    with pytest.raises(MeshFormatError) as err:
        loads("simplicial-mesh v1 dim=2 vertices=4 cells=3\n0 1 2\n# note\n1 2 3\n2 1 0\n")
    assert err.value.line == 5 and "appears twice" in str(err.value)
    # ids are ASCII base-10 only, independent of locale or script
    with pytest.raises(MeshFormatError):
        loads("simplicial-mesh v1 dim=2 vertices=4 cells=1\n0 1 ٣\n")
    with pytest.raises(MeshFormatError):
        loads("simplicial-mesh v1 dim=2 vertices=4 cells=1\n0 1 +2\n")


LONG = "9" * 5000


@pytest.mark.parametrize(
    "text, line, message",
    [
        # more digits than Python converts to int by default
        (f"simplicial-mesh v1 dim=2 vertices={LONG} cells=1\n0 1 2\n", 1, "5000 digits"),
        (f"simplicial-mesh v1 dim=2 vertices=4 cells=1\n# note\n0 1 {LONG}\n", 3, "5000 digits"),
        ("simplicial-mesh v1 dim=2 dim=3 vertices=4 cells=1\n0 1 2\n", 1, "repeated header field 'dim'"),
        # one cell's cost climbs steeply with its dimension
        (f"simplicial-mesh v1 dim=13 vertices=14 cells=1\n{' '.join(map(str, range(14)))}\n", 1, "dim=13"),
        ("# far too many dimensions\nsimplicial-mesh v1 dim=40 vertices=1 cells=0\n", 2, "dim=40"),
    ],
    ids=["long-header-field", "long-vertex-id", "repeated-header-field", "dim-13", "dim-40"],
)
def test_long_numbers_and_repeated_fields_are_mesh_errors(tmp_path, capsys, text, line, message):
    with pytest.raises(MeshFormatError) as err:
        loads(text)
    assert err.value.line == line and message in str(err.value)
    mesh = tmp_path / "bad.mesh"
    mesh.write_text(text)
    code = main(["decompose", "--mesh", str(mesh), "--family", "minus", "-r", "1", "-k", "1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"mesh error: {err.value}\n"


@pytest.mark.parametrize("token", ["١", "²", "１２", "3٣"])
@pytest.mark.parametrize("where", ["cell", "header"])
def test_digits_outside_ascii_are_not_ids(tmp_path, capsys, token, where):
    if where == "cell":
        text = f"simplicial-mesh v1 dim=2 vertices=4 cells=1\n0 1 {token}\n"
        line, message = 2, "expected 3 non-negative vertex ids"
    else:
        text = f"simplicial-mesh v1 dim=2 vertices={token} cells=1\n0 1 2\n"
        line, message = 1, f"bad header field 'vertices={token}'"
    with pytest.raises(MeshFormatError) as err:
        loads(text)
    assert err.value.line == line and str(err.value) == f"line {line}: {message}"
    mesh = tmp_path / "bad.mesh"
    mesh.write_text(text, encoding="utf-8")
    code = main(["decompose", "--mesh", str(mesh), "--family", "minus", "-r", "1", "-k", "1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and out.err == f"mesh error: {err.value}\n"


def test_validation_of_direct_construction():
    with pytest.raises(ValueError, match=re.escape("cell (0, 1, 1) must have 3 distinct vertices")):
        Triangulation(2, 3, ((0, 1, 1),))
    with pytest.raises(ValueError, match=re.escape("cell (0, 2, 1) must be sorted")):
        Triangulation(2, 3, ((0, 2, 1),))
    with pytest.raises(ValueError, match=re.escape("cell (0, 1, 2) appears twice")):
        Triangulation(2, 3, ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError, match=re.escape("cell (0, 1, 2) uses ids outside 0..1")):
        Triangulation(2, 2, ((0, 1, 2),))


def test_no_cells_is_the_empty_triangulation():
    empty = loads("simplicial-mesh v1 dim=2 vertices=0 cells=0")
    assert from_cells(2, []) == empty
    assert empty.num_vertices == 0 and empty.cells == () and empty.all_faces() == []


def test_load_from_file(tmp_path):
    p = tmp_path / "mesh.txt"
    p.write_text(TWO_TRIANGLES)
    t = load(str(p))
    assert t.cells == ((0, 1, 2), (1, 2, 3))


def _classes(t, face):
    """The components of the face's cells linked by a shared immediate coface, each as its first (cell, local face)."""
    left = list(face.incidence)
    out = []
    while left:
        component = [left.pop(0)]
        for ci, _ in component:
            outer = set(t.cells[ci]) - set(face.vertices)
            joined = [c for c in left if outer & set(t.cells[c[0]])]
            left = [c for c in left if c not in joined]
            component += joined
        out.append(component[0])
    return tuple(out)


def test_classes_follow_shared_immediate_cofaces():
    rng = random.Random(37)
    grids = [shuffled_grid(rng, 2, 2), shuffled_grid(rng, 3, 2)]
    non_manifold = non_manifold_meshes()
    for mesh in (*grids, *builtin_meshes().values(), *non_manifold):
        for face in mesh.all_faces():
            classes = mesh.classes(face)
            assert classes == _classes(mesh, face)
            assert mesh.classes(face) is classes
            if face.dim == mesh.n - 1:
                assert classes == face.incidence
            elif mesh in grids:
                # a face of a manifold below the facets has a connected link
                assert len(classes) == 1
    counts = {
        (i, face.vertices): len(mesh.classes(face))
        for i, mesh in enumerate(non_manifold) for face in mesh.all_faces() if len(face.incidence) >= 2
    }
    assert counts == {
        (0, (0,)): 2,
        (1, (0,)): 1, (1, (1,)): 1, (1, (2,)): 1,
        (1, (0, 1)): 1, (1, (0, 2)): 1, (1, (1, 2)): 1, (1, (0, 1, 2)): 3,
        (2, (0,)): 1, (2, (1,)): 1, (2, (0, 1)): 2,
        (3, (0,)): 2,
    }


def test_classes_of_a_shuffled_fan_hub_take_linear_time():
    # the hub's cells, in shuffled incidence order, link up only through long
    # chains of shared edges, so a walk that checks each cell against every
    # open class is quadratic in the fan's size
    cells = [(0, i, i + 1) for i in range(1, 20001)]
    random.Random(61).shuffle(cells)
    mesh = from_cells(2, cells)
    hub = mesh.faces(0)[0]
    start = time.perf_counter()
    classes = mesh.classes(hub)
    assert time.perf_counter() - start < 1.0
    assert classes == (hub.incidence[0],)
    # a face with an empty link, a cell, is its own class
    top = mesh.faces(2)[0]
    assert mesh.classes(top) == top.incidence


def test_certificates_walk_each_face_once_per_mesh(monkeypatch):
    walks = Counter()
    real = Triangulation._walk_classes

    def spy(self, face):
        walks[id(self), face.vertices] += 1
        return real(self, face)

    monkeypatch.setattr(Triangulation, "_walk_classes", spy)
    mesh = shuffled_grid(random.Random(41), 3, 2)
    for _ in range(2):
        for family, r, k in [(Family.MINUS, 1, 1), (Family.FULL, 2, 0)]:
            els = assemble_basis(mesh, family, r, k)
            assert verify_single_valued(mesh, els, k) is None
            assert verify_direct_sum(mesh, els, family, r, k).ok
    shared = {f.vertices for j in range(mesh.n) for f in mesh.faces(j) if len(f.incidence) >= 2}
    assert shared <= {vs for _, vs in walks} and set(walks.values()) == {1}
    # the decomposition suite certifies each built-in mesh at every r, family and k
    walks.clear()
    assert all(res.passed for res in suite_decomposition(max_r=2))
    assert walks and set(walks.values()) == {1}
