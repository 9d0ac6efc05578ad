"""Independent mini-algebra used as an oracle in the tests.

Forms are represented here with lambda_0 eliminated entirely through
lambda_0 = 1 - lambda_1 - ... - lambda_n (and d lambda_0 = -sum d lambda_i),
i.e. as honest polynomials in the remaining coordinates.  That is a second,
structurally different normal form, so agreement with the package's
homogeneous representation is a meaningful cross-check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

# representation: dict[(exponents over lambda_1..lambda_n, sigma)] -> Fraction


def _sort_sign(seq):
    vals = list(seq)
    sign = 1
    for i in range(1, len(vals)):
        j = i
        while j > 0 and vals[j - 1] > vals[j]:
            vals[j - 1], vals[j] = vals[j], vals[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and vals[j - 1] == vals[j]:
            return None
    return tuple(vals), sign


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def expand(n, raw_terms):
    """Expand raw (alpha over 0..n, sigma possibly with 0, coeff) terms."""
    acc = {}

    def add(expo, sigma, c):
        key = (expo, sigma)
        acc[key] = acc.get(key, Fraction(0)) + c
        if not acc[key]:
            del acc[key]

    def emit(expo, sigma_seq, c):
        srt = _sort_sign(sigma_seq)
        if srt is None:
            return
        sig, sign = srt
        c = c * sign
        if sig and sig[0] == 0:
            for i in range(1, n + 1):
                if i in sig[1:]:
                    continue
                emit(expo, (i,) + sig[1:], -c)
        else:
            add(expo, sig, c)

    for alpha, sigma, c in raw_terms:
        c = Fraction(c)
        # multiply out lambda_0^{alpha_0} = (1 - sum lambda_i)^{alpha_0}
        polys = {(0,) * n: c}
        for _ in range(alpha[0]):
            nxt = {}
            for expo, v in polys.items():
                key = expo
                nxt[key] = nxt.get(key, Fraction(0)) + v
                for i in range(n):
                    e = list(expo)
                    e[i] += 1
                    key = tuple(e)
                    nxt[key] = nxt.get(key, Fraction(0)) - v
            polys = nxt
        base = tuple(alpha[1:])
        for expo, v in polys.items():
            emit(_mono_mul(base, expo), tuple(sigma), v)
    return acc


def from_polyform(w):
    """Convert a package form into the oracle representation."""
    return expand(w.n, [(alpha, sigma, c) for alpha, sigma, c in w.terms()])


def oracle_equal(a, b):
    """Equality of two package forms via the oracle representation."""
    return from_polyform(a) == from_polyform(b)


def oracle_wedge(a, b):
    """Wedge product in the dehomogenized representation."""
    out = {}
    for (ea, sa), ca in a.items():
        for (eb, sb), cb in b.items():
            srt = _sort_sign(sa + sb)
            if srt is None:
                continue
            sig, sign = srt
            key = (_mono_mul(ea, eb), sig)
            out[key] = out.get(key, Fraction(0)) + ca * cb * sign
            if not out[key]:
                del out[key]
    return out


def oracle_d(a):
    """Exterior derivative in the dehomogenized representation.

    With the zeroth coordinate eliminated the variables are independent, so
    this is the plain termwise derivative.
    """
    out = {}
    for (expo, sigma), c in a.items():
        for i, e in enumerate(expo):
            if not e:
                continue
            srt = _sort_sign((i + 1,) + sigma)
            if srt is None:
                continue
            sig, sign = srt
            dropped = tuple(x - 1 if j == i else x for j, x in enumerate(expo))
            key = (dropped, sig)
            out[key] = out.get(key, Fraction(0)) + c * e * sign
            if not out[key]:
                del out[key]
    return out


def _add_into(out, key, c):
    out[key] = out.get(key, Fraction(0)) + c
    if not out[key]:
        del out[key]


def oracle_koszul(a, origin=0):
    """Contraction with the position field x - x_origin, dehomogenized.

    Vertex 0 sits at the coordinate origin and vertex i > 0 at the unit
    vector e_i, so the field's j-th component is lambda_j - [j == origin].
    """
    out = {}
    for (expo, sigma), c in a.items():
        for pos, j in enumerate(sigma):
            signed = -c if pos % 2 else c
            rest = sigma[:pos] + sigma[pos + 1 :]
            raised = tuple(e + (i + 1 == j) for i, e in enumerate(expo))
            _add_into(out, (raised, rest), signed)
            if j == origin:
                _add_into(out, (expo, rest), -signed)
    return out


def oracle_directional_derivative(a, j, l):
    """Derivative along x_j - x_l, dehomogenized (vertex 0 at the origin, vertex i at e_i)."""
    out = {}
    for (expo, sigma), c in a.items():
        for i, e in enumerate(expo):
            slope = int(i + 1 == j) - int(i + 1 == l)
            if e and slope:
                dropped = tuple(x - 1 if p == i else x for p, x in enumerate(expo))
                _add_into(out, (dropped, sigma), c * e * slope)
    return out


def oracle_trace(a, n, face):
    """Pullback onto the face with increasing vertices `face`, in its own coordinates.

    The face coordinates mu_1..mu_m map affinely to
    x = x_{v_0} + sum_p mu_p (x_{v_p} - x_{v_0}) with vertex i > 0 at e_i and
    vertex 0 at the origin; each x_j and d x_j is substituted and the
    products are expanded with oracle_wedge.
    """
    m = len(face) - 1
    zero = (0,) * m
    unit = [tuple(int(q == p) for q in range(m)) for p in range(m)]
    x, dx = {}, {}
    for j in range(1, n + 1):
        slopes = [int(face[p + 1] == j) - int(face[0] == j) for p in range(m)]
        x[j] = {(unit[p], ()): Fraction(s) for p, s in enumerate(slopes) if s}
        if face[0] == j:
            x[j][(zero, ())] = Fraction(1)
        dx[j] = {(zero, (p + 1,)): Fraction(s) for p, s in enumerate(slopes) if s}
    out = {}
    for (expo, sigma), c in a.items():
        term = {(zero, ()): c}
        for j, e in enumerate(expo, start=1):
            for _ in range(e):
                term = oracle_wedge(term, x[j])
        for j in sigma:
            term = oracle_wedge(term, dx[j])
        for key, v in term.items():
            _add_into(out, key, v)
    return out


def oracle_bary_monomial(n, alpha):
    """The Bernstein monomial lambda^alpha through the general `canonicalize` entry."""
    from feec.forms import canonicalize

    return canonicalize(n, 0, [(tuple(alpha), (), 1)])


def oracle_psi_one_form(alpha, face, i):
    """d lambda_i - (alpha_i / |alpha|) sum_{j on face} d lambda_j through `canonicalize`."""
    from feec.forms import canonicalize

    zero_alpha = (0,) * (face.n + 1)
    raw = [(zero_alpha, (i,), 1)]
    w = Fraction(alpha[i], sum(alpha))
    if w:
        raw.extend((zero_alpha, (j,), -w) for j in face.indices)
    return canonicalize(face.n, 1, raw, degree=0)


def oracle_psi_form(alpha, face, sigma):
    """The wedge of `oracle_psi_one_form` over sigma, starting from the constant 1."""
    from feec.forms import one

    w = one(face.n)
    for s in sigma:
        w = w.wedge(oracle_psi_one_form(alpha, face, s))
    return w


INTEGER_COEFFS = (-3, -2, -1, 1, 2, 3)
FRACTION_COEFFS = (Fraction(-3, 2), -1, Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2), 2)


def random_polyform(rng: random.Random, n: int, k: int, r: int, nterms: int = 3, coeffs=INTEGER_COEFFS):
    """A random canonical form with coefficients drawn from coeffs (small integers by default)."""
    from feec.forms import canonicalize

    raw = []
    for _ in range(nterms):
        cuts = sorted(rng.randint(0, r) for _ in range(n))
        alpha = []
        prev = 0
        for c in cuts:
            alpha.append(c - prev)
            prev = c
        alpha.append(r - prev)
        sigma = tuple(sorted(rng.sample(range(0, n + 1), k)))
        coeff = rng.choice(coeffs)
        raw.append((tuple(alpha), sigma, coeff))
    return canonicalize(n, k, raw, degree=r)


def _integer_row(row):
    """The row times the lcm of its denominators, as ints."""
    vals = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in vals))
    return [x.numerator * (scale // x.denominator) for x in vals]


def dense_echelon(rows, ncols):
    """Reduced row echelon form by fraction-free (Bareiss) Gauss-Jordan elimination.

    Each row is first scaled to integers.  Pivots are chosen column by column
    from the left, over the first ncols columns only; every other row r is
    replaced by (p * r - r[c] * pivot row) / p_prev, where p is the new pivot
    and p_prev the one before it (1 at the start).  Each entry is then a minor
    of the scaled matrix, so the division is exact and every intermediate
    value stays an int; each pivot row ends with the last pivot in its pivot
    column, and dividing by it gives the reduced rows as Fractions.  Rows past
    the rank are zero on the first ncols columns.  Returns the reduced rows
    and the pivot columns.
    """
    m = [_integer_row(row) for row in rows]
    pivots = []
    prev = 1
    for c in range(ncols):
        rk = len(pivots)
        piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        p = m[rk][c]
        for i in range(len(m)):
            if i != rk:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], m[rk])]
        pivots.append(c)
        prev = p
    return [[Fraction(x, prev) for x in row] for row in m], pivots


def oracle_rank(rows):
    """Rank of a dense matrix."""
    return len(dense_echelon(rows, len(rows[0]) if rows else 0)[1])


def oracle_solve(rows, rhs):
    """Solution of A x = b with free variables zero, or None when inconsistent."""
    ncols = len(rows[0]) if rows else 0
    m, pivots = dense_echelon([list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x


def oracle_inverse(rows):
    """Inverse of a square matrix, or None when singular."""
    n = len(rows)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m, pivots = dense_echelon([list(row) + e for row, e in zip(rows, eye)], n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


def oracle_pivot_inverse(vectors):
    """The reference for `feec.spaces.inverse_columns`, by dense elimination.

    The pivot keys are `dense_echelon`'s pivots over the vectors' keys in
    sorted order; returned is, for each pivot key in that order, its row of
    the `oracle_inverse` of the vectors restricted to the pivot keys, one
    Fraction per vector.  None when the vectors are dependent.
    """
    keys = sorted(set().union(*vectors))
    pivots = [keys[p] for p in dense_echelon([[v.get(key, 0) for key in keys] for v in vectors], len(keys))[1]]
    if len(pivots) < len(vectors):
        return None
    return dict(zip(pivots, oracle_inverse([[v.get(key, 0) for key in pivots] for v in vectors])))


def table_inverse(table, count):
    """A coordinate table's inverse X / D as `oracle_pivot_inverse` gives it, for `count` vectors."""
    out = {}
    for key in sorted(table.columns):
        row = [Fraction(0)] * count
        for i, a in table.columns[key]:
            row[i] = Fraction(a, table.denominator)
        out[key] = row
    return out


_pivot_inverses = {}


def rebuild_coordinates(w, forms, table):
    """Coordinates of w in the forms if their combination rebuilds w exactly, else None.

    The reference for `feec.spaces.coordinates`.  Candidate coordinates come
    from w's coefficients on the table's pivot keys, through the dense
    `oracle_inverse` of the forms restricted to those keys, not through the
    table's own inverse columns; they are accepted by rebuilding the whole
    combination and comparing every key.  A coordinate is an int when it is
    integral and a Fraction otherwise.  The oracle inverse is kept per
    square pivot block.
    """
    from feec.forms import combination

    pivots = sorted(table.columns)
    square = tuple(tuple(f.coeffs.get(key, 0) for f in forms) for key in pivots)
    inv = _pivot_inverses.get(square)
    if inv is None:
        inv = _pivot_inverses[square] = [[(j, a) for j, a in enumerate(row) if a] for row in oracle_inverse(square)]
    target = [w.coeffs.get(key, 0) for key in pivots]
    coords = [sum((a * target[j] for j, a in row if target[j]), Fraction(0)) for row in inv]
    if combination(w.n, w.k, zip(coords, forms)).coeffs != w.coeffs:
        return None
    return [c.numerator if c.denominator == 1 else c for c in coords]


_oracle_duals = {}


def oracle_dual_images(family, fr, r, k):
    """The moment images of `feec.dof.dual_images`, by the Fraction formula.

    On each simplex the dual forms are dual[i] = sum_j inverse[j][i] basis[j],
    with the `oracle_inverse` of the pairing matrix; each has moment 1 against
    functional i and 0 against every other one.  The image of the b-th basis
    form of the reference fr.dim-face, placed at fr, weights the dual forms of
    the functionals inside fr by column b of the face's own pairing matrix.
    The dual forms and pairing of each simplex are kept per argument tuple.
    """
    from feec.dof import build_dofs, pairing_matrix
    from feec.forms import FaceRef, combination
    from feec.spaces import SpaceKind, basis_forms

    def duals(m):
        key = (family, m, r, k)
        if key not in _oracle_duals:
            dofs = build_dofs(family, m, r, k)
            basis = basis_forms(SpaceKind(family), FaceRef.full(m), r, k)
            pairing = pairing_matrix(dofs, basis)
            inv = oracle_inverse(pairing)
            dual = [combination(m, k, zip((row[i] for row in inv), basis)) for i in range(len(dofs))]
            _oracle_duals[key] = dofs, dual, pairing
        return _oracle_duals[key]

    dofs, dual, _ = duals(fr.n)
    inside = [w for dof, w in zip(dofs, dual) if fr.contains(dof.face)]
    pairing = duals(fr.dim)[2]
    return tuple(combination(fr.n, k, zip(column, inside)) for column in zip(*pairing))


def peel_oracle(t, family, r, k, piecewise):
    """Per-face components of a piecewise form, by peeling face by face.

    The reference for `feec.assemble.decompose`: upward by face dimension,
    each face's trace from its first incident cell must agree with every
    other incident cell's and lie in the zero-trace space there; it is the
    face's component, and its extension into each incident cell is
    subtracted.  Whatever is left must vanish.  Raises ValueError otherwise.
    """
    from feec.extension import placed_basis
    from feec.forms import FaceRef, PolyForm, combination
    from feec.spaces import SpaceKind, membership

    n = t.n
    zero_kind = SpaceKind(family, zero_trace=True)
    current = {ci: piecewise.get(ci, PolyForm.zero(n, k)) for ci in range(len(t.cells))}
    components = {}
    for j in range(k, n + 1):
        local = FaceRef.full(j)
        for face in t.faces(j):
            c0, fr0 = face.incidence[0]
            mu = current[c0].trace(fr0)
            for ci, fri in face.incidence[1:]:
                if current[ci].trace(fri) != mu:
                    raise ValueError(f"traces on face {face.vertices} are not single-valued")
            if mu.is_zero:
                continue
            coords = membership(mu, zero_kind, local, r, k)
            if coords is None:
                raise ValueError(f"trace on face {face.vertices} leaves the zero-trace subspace")
            components[face.vertices] = mu
            for ci, fri in face.incidence:
                correction = combination(n, k, zip(coords, placed_basis(zero_kind, r, k, fri)))
                current[ci] = current[ci] - correction
    for ci, w in current.items():
        if not w.is_zero:
            raise ValueError(f"nonzero residual on cell {ci} after peeling")
    return components


def all_pairs_consistency(fam, h):
    """The compatibility law checked by brute force on every face pair (f, g) of h.

    The reference for `feec.extension.check_consistency`, which checks only
    facet pairs, one simplex dimension at a time.  Works in the local
    coordinates of h and reads the image tables through the module, so a
    patched `extension._images` is seen.  The left side is the trace onto g
    of a basis member's image on f; for disjoint f and g it must vanish.
    Otherwise the right side weights the images of f \\cap g in g by the
    coordinates on f \\cap g of the member's trace, computed once per
    (f, f \\cap g, member) by `membership`, not read from the shared table
    `spaces.trace_coordinates`.  Returns the first failure in (f, g, member)
    order.
    """
    from feec import extension
    from feec.forms import FaceRef, PolyForm, combination
    from feec.spaces import basis_forms, membership

    result, witness = extension.ConsistencyResult, extension.ConsistencyWitness
    faces = FaceRef.full(h.dim).all_subfaces()
    for f in faces:
        members = basis_forms(fam.space_kind, f, fam.r, fam.k)
        extended = extension._images(fam, f)
        restricted = {}
        for g in faces:
            fg = f.intersect(g)
            if fg is None:
                for mu, ext in zip(members, extended):
                    lhs = ext.trace(g)
                    if not lhs.is_zero:
                        zero = PolyForm.zero(g.dim, fam.k)
                        return result(False, witness(f, g, mu, lhs, zero))
                continue
            f_fg, images = f.to_local(fg), extension._images(fam, g.to_local(fg))
            for i, (mu, ext) in enumerate(zip(members, extended)):
                lhs = ext.trace(g)
                coords = restricted.get((fg, i))
                if coords is None:
                    coords = restricted[fg, i] = membership(mu.trace(f_fg), fam.space_kind, fg, fam.r, fam.k)
                rhs = combination(g.dim, fam.k, zip(coords, images))
                if lhs != rhs:
                    return result(False, witness(f, g, mu, lhs, rhs))
    return result(True)


def all_pairs_constrained_dimension(t, family, r, k):
    """Dimension of the piecewise forms with single-valued traces, matching every cell pair on every key.

    The reference for `verify_direct_sum(...).constrained_dimension`, which
    matches only the class representatives of each face, by the traces'
    coordinates in the face space's basis.  Here each shared face compares its first cell with every
    other one, one sparse row per trace key, over columns `cell * per_cell + b`
    for the whole space's basis form b on that cell.
    """
    from feec import linalg
    from feec.forms import FaceRef
    from feec.spaces import SpaceKind, basis_forms

    basis = basis_forms(SpaceKind(family), FaceRef.full(t.n), r, k)
    per_cell = len(basis)
    cell_traces = {}
    rows = []
    for j in range(k, t.n):
        for face in t.faces(j):
            (c0, fr0), *others = face.incidence
            for ci, fri in others:
                face_rows = {}
                for cell, fr, sign in ((c0, fr0, 1), (ci, fri, -1)):
                    if fr not in cell_traces:
                        cell_traces[fr] = [w.trace(fr).lift(r) for w in basis]
                    for b, tr in enumerate(cell_traces[fr]):
                        for key, c in tr.coeffs.items():
                            face_rows.setdefault(key, {})[cell * per_cell + b] = sign * c
                rows.extend(face_rows.values())
    return per_cell * len(t.cells) - linalg.rank(rows)


def pivot_key_constrained_dimension(t, family, r, k):
    """The constrained dimension from trace-matching rows at the face space's pivot keys.

    The reference for `verify_direct_sum(...).constrained_dimension`, which
    matches each face's class representatives (`Triangulation.classes`) by
    the traces' coordinates in the face space's basis.  Here the same pairs
    match the traces themselves, one sparse row per pivot key of the face
    basis at degree r, over columns `cell * per_cell + b` for the whole
    space's basis form b on that cell.  Each trace is first checked to be a
    member of the face space, without which the pivot keys would not decide
    it; the rows then differ from the coordinate rows by the face basis's
    square nonsingular pivot block, so the rank is the same.
    """
    from feec import linalg
    from feec.forms import FaceRef
    from feec.spaces import SpaceKind, _basis_table, basis_forms, membership

    kind = SpaceKind(family)
    basis = basis_forms(kind, FaceRef.full(t.n), r, k)
    per_cell = len(basis)
    cell_traces = {}

    def traces(fr):
        if fr not in cell_traces:
            full = [w.trace(fr).lift(r) for w in basis]
            assert all(membership(tr, kind, fr, r, k) is not None for tr in full)
            pivots = _basis_table(kind, fr.dim, r, k, r).columns
            cell_traces[fr] = [{key: c for key, c in tr.coeffs.items() if key in pivots} for tr in full]
        return cell_traces[fr]

    rows = []
    for j in range(k, t.n):
        for face in t.faces(j):
            (c0, fr0), *others = t.classes(face)
            for ci, fri in others:
                face_rows = {}
                for cell, fr, sign in ((c0, fr0, 1), (ci, fri, -1)):
                    for b, tr in enumerate(traces(fr)):
                        for key, c in tr.items():
                            face_rows.setdefault(key, {})[cell * per_cell + b] = sign * c
                rows.extend(face_rows.values())
    return per_cell * len(t.cells) - linalg.rank(rows)


def grid_cells(dim, m):
    """Freudenthal (2-D) or Kuhn (3-D and up) triangulation of an m^dim grid of unit cubes.

    Grid point p is vertex p[0] * side^(dim-1) + ... + p[-1], side = m + 1.
    Cubes come in lexicographic order of their lowest corner, each as dim!
    cells, one per axis order: the path from that corner that steps along the
    axes in that order.
    """
    from itertools import permutations, product

    side = m + 1

    def vid(p):
        out = 0
        for x in p:
            out = out * side + x
        return out

    cells = []
    for corner in product(range(m), repeat=dim):
        for order in permutations(range(dim)):
            p = list(corner)
            path = [vid(p)]
            for axis in order:
                p[axis] += 1
                path.append(vid(p))
            cells.append(tuple(path))
    return cells


def seeded_member(elements, rng):
    """A member of the assembled space spanned by elements, and its per-face components.

    One ``rng.randint(-3, 3)`` coefficient is drawn per element, in order.  The
    member maps each cell to the combination of the elements' restrictions
    there; the expected components map each face's vertex tuple to the
    combination of its elements' realized generators.  Returns
    ``(member, expected)``.
    """
    from feec.spaces import realize

    coeffs = [rng.randint(-3, 3) for _ in elements]
    member, expected = {}, {}
    for c, el in zip(coeffs, elements):
        if c:
            for ci, w in el.restrictions.items():
                member[ci] = member[ci] + c * w if ci in member else c * w
            piece = c * realize(el.descriptor)
            face = el.face.vertices
            expected[face] = expected[face] + piece if face in expected else piece
    return member, expected


def shuffled_grid(rng, dim, m):
    """The triangulation of :func:`grid_cells`, vertex ids shuffled first, then the cells."""
    from feec.mesh import from_cells

    ids = list(range((m + 1) ** dim))
    rng.shuffle(ids)
    cells = [tuple(ids[v] for v in cell) for cell in grid_cells(dim, m)]
    rng.shuffle(cells)
    return from_cells(dim, cells)


def non_manifold_meshes():
    """Cells meeting on a face of dimension below n - 1, or three on one facet.

    Two triangles on a vertex, three tetrahedra on a triangle, two tetrahedra
    on an edge, and two 4-simplices on a vertex.
    """
    from feec.mesh import from_cells

    return (
        from_cells(2, [(0, 1, 2), (0, 3, 4)]),
        from_cells(3, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)]),
        from_cells(3, [(0, 1, 2, 3), (0, 1, 4, 5)]),
        from_cells(4, [(0, 1, 2, 3, 4), (0, 5, 6, 7, 8)]),
    )
