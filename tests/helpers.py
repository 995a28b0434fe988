"""Shared builders and invariant checkers for the test suite."""

from __future__ import annotations

import gc
import hashlib
import math
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from itertools import combinations

import multimorse as mm
from multimorse import oracle
from multimorse.cli import main
from multimorse.complexes import ComplexError, SComplex, complex_from_closure
from multimorse.matching import MatchingError
from multimorse.oracle import OracleError
from multimorse.rings import Integers

# -- the command line ---------------------------------------------------

# command -> the flags it takes, as its branch of pipeline.run reads them
COMMAND_FLAGS = {
    "stats": (),
    "sort": ("--values", "--indexing"),
    "match": ("--values", "--variant", "--indexing", "--ring"),
    "reduce": ("--values", "--variant", "--indexing", "--ring", "--out"),
    "verify": ("--values", "--variant", "--indexing", "--ring", "--qmax",
               "--max-cells", "--seed"),
}

# -- worked examples ----------------------------------------------------

EDGE_GRADES = [(0.0, 0.0), (1.0, 1.0)]
TRIANGLE_BOUNDARY_GRADES = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
FULL_TRIANGLE_GRADES = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
PATH_GRADES = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]


def single_edge(ring=mm.GF2):
    """Cells: vertices 0, 1; edge (0,1) = 2."""
    return mm.build_simplicial(2, [[0, 1]], ring)


def triangle_boundary(ring=mm.GF2):
    """Cells: vertices 0..2; edges (0,1)=3, (0,2)=4, (1,2)=5."""
    return mm.build_simplicial(3, [[0, 1], [0, 2], [1, 2]], ring)


def full_triangle(ring=mm.GF2):
    """Cells: vertices 0..2; edges 3..5 as above; face (0,1,2)=6."""
    return mm.build_simplicial(3, [[0, 1, 2]], ring)


def path_two_edges(ring=mm.GF2):
    """Cells: vertices 0..2; edges (0,1)=3, (1,2)=4."""
    return mm.build_simplicial(3, [[0, 1], [1, 2]], ring)


def grades_of(values):
    return mm.MeasuringFunction([tuple(float(x) for x in g) for g in values])


def cell_grade(S, f, c):
    """Entry grade of a cell as the join of its vertex grades, taken one
    vertex at a time: the reference for mm.entry_grades."""
    w = S.verts[c]
    g = f[w[0]]
    for u in w[1:]:
        g = tuple(max(x, y) for x, y in zip(g, f[u]))
    return g


def sublevel_cells(grades, alpha):
    """Cells present at grade alpha."""
    return {c for c, g in grades.items() if mm.leq(g, alpha)}


def faces(S, c):
    """Primary faces of c, as a set."""
    return {t for t, _ in S.boundary(c)}


def cofaces(S, c):
    """Primary cofaces of c, as a set."""
    return set(S.coboundary(c))


def cofaces_closure(S, c):
    """All cells having c in their iterated boundary, c excluded."""
    seen = set()
    stack = [c]
    while stack:
        for s in S.coboundary(stack.pop()):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


def star_index(S):
    """mm.star_index of a complex's vertex tuples."""
    return mm.star_index(w for w in S.verts if w is not None)


def sample_complexes(S, count, cell_limit, seed):
    """mm.sample_star_submeshes of S, each sample built as a complex."""
    return [(center, complex_from_closure(cells, S.ring))
            for center, cells in mm.sample_star_submeshes(
                star_index(S), count, cell_limit, seed)]


def vertex_neighbors(S, vid):
    """Vertex numbers joined to vid by an edge."""
    edges = cofaces(S, S.cell_with_verts((vid,)))
    return {u for e in edges for u in S.verts[e] if u != vid}


def check_face_monotone(S, grades):
    """True when every cell's grade dominates all of its faces' grades,
    i.e. sublevel sets are closed under taking faces."""
    return all(mm.leq(grades[t], grades[c])
               for c in S.cells() for t, _ in S.boundary(c))


# -- random corpus ------------------------------------------------------

def random_complex(seed, n_vertices=12, n_top=8, max_size=4, ring=mm.GF2):
    """Closure of a few random simplices; dimension < max_size."""
    rng = random.Random(seed)
    tops = []
    for _ in range(n_top):
        size = rng.randint(1, min(max_size, n_vertices))
        tops.append(rng.sample(range(n_vertices), size))
    return mm.build_simplicial(n_vertices, tops, ring)


def random_grades(seed, n, k=2, levels=2):
    """Vertex grades on a small integer grid, as floats."""
    rng = random.Random(seed)
    return mm.MeasuringFunction(
        [tuple(float(rng.randint(0, levels)) for _ in range(k))
         for _ in range(n)])


# -- invariant batteries ------------------------------------------------

def assert_matching_invariants(S, f, index, P):
    """The partition laws: disjoint cover, bijection onto primary
    cofaces with unit incidence, acyclic modified Hasse diagram, and
    sublevel compatibility of the pairing over the critical grid."""
    cells = set(S.cells())
    A, B, C = set(P.matched), set(P.matched.values()), set(P.critical)
    assert A | B | C == cells
    assert not A & B and not A & C and not B & C
    assert len(P.matched) == len(A)
    assert len(set(P.matched.values())) == len(P.matched)
    for s, t in P.matched.items():
        assert t in cofaces(S, s)
        assert S.ring.is_unit(S.incidence(t, s))
    assert mm.is_acyclic(mm.modified_hasse(S, P.matched))
    grades = mm.entry_grades(S, f)
    for s, t in P.matched.items():
        assert grades[s] == grades[t]
    for alpha in mm.critical_grades(grades):
        inside = sublevel_cells(grades, alpha)
        for s, t in P.matched.items():
            if s in inside:
                assert t in inside


def assert_max_index_laws(S, index, P):
    """Vertex indices grow from faces to cofaces and the pairing keeps
    the maximum index unchanged."""
    for c in S.cells():
        top = mm.max_index(S, index, c)
        for t, _ in S.boundary(c):
            assert mm.max_index(S, index, t) <= top
    for s, t in P.matched.items():
        assert mm.max_index(S, index, s) == mm.max_index(S, index, t)


def boundary_of_chain(S, chain):
    """Boundary of a sparse chain over S's ring."""
    ring = S.ring
    out = {}
    for g, c in chain.items():
        for t, v in S.boundary(g):
            nv = ring.add(out.get(t, ring.zero), ring.mul(c, v))
            if nv == ring.zero:
                out.pop(t, None)
            else:
                out[t] = nv
    return out


def chain_sub(ring, a, b):
    out = dict(a)
    for k, v in b.items():
        nv = ring.add(out.get(k, ring.zero), ring.neg(v))
        if nv == ring.zero:
            out.pop(k, None)
        else:
            out[k] = nv
    return out


def chain_add(ring, a, b):
    out = dict(a)
    for k, v in b.items():
        nv = ring.add(out.get(k, ring.zero), v)
        if nv == ring.zero:
            out.pop(k, None)
        else:
            out[k] = nv
    return out


# -- per-step chain maps -------------------------------------------------
#
# The chain maps of one elementary reduction, read off its ReductionStep
# and the ring of the complex it was taken from. They are the reference
# that the composed maps of reduce_all are checked against.

@dataclass
class ChainMap:
    """Sparse linear map given by columns for the generators where it
    differs from the default (identity when default_identity, else 0)."""

    ring: object
    columns: dict
    default_identity: bool = False

    def image_of(self, g):
        if g in self.columns:
            return dict(self.columns[g])
        if self.default_identity:
            return {g: self.ring.one}
        return {}

    def apply(self, chain):
        out = {}
        for g, c in chain.items():
            self.ring.axpy(out, c, self.image_of(g))
        return out


def projection_map(step, ring):
    """Chain map from the pre-step complex onto the reduced one: kills
    tau, rewrites sigma over the other faces of tau, fixes the rest."""
    col = {xi: ring.neg(ring.div(b, step.pivot))
           for xi, b in step.tau_faces.items()}
    return ChainMap(ring, {step.sigma: col, step.tau: {}},
                    default_identity=True)


def inclusion_map(step, ring):
    """Chain map from the reduced complex back: each surviving coface of
    sigma picks up a tau correction, the rest is fixed."""
    cols = {
        eta: {eta: ring.one, step.tau: ring.neg(ring.div(a, step.pivot))}
        for eta, a in step.sigma_cofaces.items()
    }
    return ChainMap(ring, cols, default_identity=True)


def homotopy_map(step, ring):
    """Degree +1 map with inclusion . projection = id - (dD + Dd):
    sends sigma to tau / pivot and everything else to zero."""
    col = {step.tau: ring.div(ring.one, step.pivot)}
    return ChainMap(ring, {step.sigma: col})


def assert_step_algebra(pre, post, step):
    """Exact chain-map identities of one elementary reduction step:
    projection . inclusion = id on the reduced complex, and
    id - inclusion . projection = dD + Dd cell by cell on the old one."""
    ring = pre.ring
    pi = projection_map(step, ring)
    iota = inclusion_map(step, ring)
    D = homotopy_map(step, ring)
    for g in post.cells():
        assert pi.apply(iota.image_of(g)) == {g: ring.one}
    for g in pre.cells():
        defect = chain_sub(ring, {g: ring.one}, iota.apply(pi.image_of(g)))
        dD = boundary_of_chain(pre, D.image_of(g))
        Dd = D.apply(dict(pre.boundary(g)))
        assert defect == chain_add(ring, dD, Dd)


# -- persistent ranks ----------------------------------------------------
#
# reference_rank_table is the rank oracle as it stood before it eliminated
# each sublevel set once: it column-reduces the cycles and the boundaries
# of a sublevel set separately, rebuilds every boundary column at every
# grade, and pushes all of Z_q(alpha) through every pair (alpha, beta).

def _ref_axpy(target, c, source, fld):
    for k, v in source.items():
        nv = fld.add(target.get(k, fld.zero), fld.mul(c, v))
        if nv == fld.zero:
            target.pop(k, None)
        else:
            target[k] = nv


def _ref_scaled(vec, c, fld):
    return {k: fld.mul(c, v) for k, v in vec.items()}


class _RefEchelon:
    def __init__(self, fld, base=None):
        self.fld = fld
        self.rows = {}
        self.base = base.rows if base is not None else {}

    def insert(self, vec):
        fld = self.fld
        vec = dict(vec)
        while vec:
            p = max(vec)
            row = self.rows.get(p) or self.base.get(p)
            if row is None:
                self.rows[p] = _ref_scaled(vec, fld.inv(vec[p]), fld)
                return True
            _ref_axpy(vec, fld.neg(vec[p]), row, fld)
        return False


def _ref_independent_count(vectors, base, fld):
    ech = _RefEchelon(fld, base)
    return sum(ech.insert(v) for v in vectors)


def _ref_field_view(S, field):
    ring = S.ring
    if field is None:
        fld = ring if ring.is_field else mm.RATIONALS
    else:
        fld = field
    if not fld.is_field:
        raise OracleError("oracle: rank computations need field coefficients")
    if fld == ring:
        return fld, lambda v: v
    if isinstance(ring, Integers):
        return fld, fld.from_int
    raise OracleError(
        f"oracle: cannot view {ring.name} coefficients in {fld.name}")


def _ref_restricted_column(S, c, cell_set, fld, conv):
    col = {}
    for t, v in S.boundary(c):
        if t not in cell_set:
            raise OracleError(
                f"oracle: face {t} of cell {c} missing from sublevel set")
        w = conv(v)
        if w != fld.zero:
            col[t] = w
    return col


def _ref_by_dim(S, cell_set):
    out = {}
    for c in sorted(cell_set):
        out.setdefault(S.dim(c), []).append(c)
    return out


def _ref_cycle_basis(S, q_cells, cell_set, fld, conv):
    pivots = {}
    kernel = []
    for c in q_cells:
        vec = _ref_restricted_column(S, c, cell_set, fld, conv)
        comb = {c: fld.one}
        while vec:
            p = max(vec)
            if p not in pivots:
                inv = fld.inv(vec[p])
                pivots[p] = (_ref_scaled(vec, inv, fld),
                             _ref_scaled(comb, inv, fld))
                break
            pv, pc = pivots[p]
            s = fld.neg(vec[p])
            _ref_axpy(vec, s, pv, fld)
            _ref_axpy(comb, s, pc, fld)
        if not vec:
            kernel.append(comb)
    return kernel


def _ref_boundary_echelon(S, upper_cells, cell_set, fld, conv):
    ech = _RefEchelon(fld)
    for c in upper_cells:
        ech.insert(_ref_restricted_column(S, c, cell_set, fld, conv))
    return ech


def reference_rank_table(S, grades, field=None, q_max=None, grid=None):
    fld, conv = _ref_field_view(S, field)
    if grid is None:
        grid = mm.critical_grades(grades)
    grid = sorted(set(grid))
    q_hi = S.max_dim if q_max is None else q_max
    sublevels = {g: sublevel_cells(grades, g) for g in grid}
    buckets = {g: _ref_by_dim(S, cells) for g, cells in sublevels.items()}
    cycles = {}
    borders = {}
    table = {}
    for alpha in grid:
        for beta in grid:
            if not mm.leq(alpha, beta):
                continue
            for q in range(q_hi + 1):
                if (alpha, q) not in cycles:
                    cycles[alpha, q] = _ref_cycle_basis(
                        S, buckets[alpha].get(q, []), sublevels[alpha],
                        fld, conv)
                if (beta, q) not in borders:
                    borders[beta, q] = _ref_boundary_echelon(
                        S, buckets[beta].get(q + 1, []), sublevels[beta],
                        fld, conv)
                table[q, alpha, beta] = _ref_independent_count(
                    cycles[alpha, q], borders[beta, q], fld)
    return table


def _matrix_rank(columns, fld):
    """Rank of the matrix with the given sparse columns, by plain
    Gaussian elimination over a dense copy."""
    rows = sorted({t for col in columns for t in col})
    m = [[col.get(t, fld.zero) for t in rows] for col in columns]
    rank = 0
    for j in range(len(rows)):
        i = next((i for i in range(rank, len(m)) if m[i][j] != fld.zero),
                 None)
        if i is None:
            continue
        m[rank], m[i] = m[i], m[rank]
        inv = fld.inv(m[rank][j])
        for r in range(len(m)):
            if r != rank and m[r][j] != fld.zero:
                f = fld.mul(m[r][j], inv)
                m[r] = [fld.add(a, fld.neg(fld.mul(f, b)))
                        for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def formula_persistent_rank(S, grades, alpha, beta, q, fld):
    """rank(H_q(alpha) -> H_q(beta)) from matrix ranks alone. With A and
    B the sublevel sets, Z_q(A) meets B_q(B) in the boundaries that lie
    in the chains of A, so the rank is
    n_q(A) - rank d_q(A) - rank d_(q+1)(B) + rank of d_(q+1)(B) restricted
    to the rows of the q-cells of B outside A."""
    conv = fld.from_int if isinstance(S.ring, Integers) and fld != S.ring \
        else (lambda v: v)
    cells_a = sublevel_cells(grades, alpha)
    cells_b = sublevel_cells(grades, beta)

    def column(c, keep):
        return {t: conv(v) for t, v in S.boundary(c)
                if t in keep and conv(v) != fld.zero}

    q_a = [c for c in cells_a if S.dim(c) == q]
    up_b = [c for c in cells_b if S.dim(c) == q + 1]
    outside = {c for c in cells_b if S.dim(c) == q} - cells_a
    return (len(q_a) - _matrix_rank([column(c, cells_a) for c in q_a], fld)
            - _matrix_rank([column(c, cells_b) for c in up_b], fld)
            + _matrix_rank([column(c, outside) for c in up_b], fld))


# -- minimal size over a field --------------------------------------------

def field_floor(S, grades, fld):
    """Fewest cells a reduction of equal-grade pairs can leave over the
    field fld: len(S) - 2 * sum over grades g of the rank of the boundary
    restricted to the cells of grade g. Over a field a graded complex
    splits into a minimal part and pairs of equal grade joined by a unit,
    and the minimal part is unique up to isomorphism. Each block is ranked
    with the oracle's elimination; nothing comes from the reduction
    module. A complex over Z is read over fld = Q as it is."""
    blocks = {}
    for c in S.cells():
        blocks.setdefault(grades[c], []).append(c)
    rank = 0
    for g, cells in blocks.items():
        cols = [(c, {t: v for t, v in S.boundary(c) if grades[t] == g})
                for c in cells]
        # the faces of one dimension's columns are the cells of the one
        # below, so one elimination ranks every dimension of the block
        _, pivots = oracle._eliminate(cols, fld, False, {})
        rank += len(pivots)
    return len(S) - 2 * rank


def equal_grade_entry(S, grades):
    """A boundary entry (cell, face) of S whose two cells have the same
    grade, or None. Over a field a complex with no such entry is
    minimal: no filtration-preserving reduction keeps fewer cells.
    Reads each entry once, and nothing from the reduction module."""
    return next(((c, t) for c in S.cells() for t, _ in S.boundary(c)
                 if grades[t] == grades[c]), None)


# -- integer torsion ------------------------------------------------------

def _determinant(a):
    """Integer determinant by cofactor expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j]
               * _determinant([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])


def reference_torsion(m):
    """Invariant factors above one of an integer matrix, from its
    determinantal divisors: d_k is the gcd of all k x k minors and the
    k-th factor is d_k / d_(k-1)."""
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    out, prev = [], 1
    for k in range(1, min(n_rows, n_cols) + 1):
        d = 0
        for rs in combinations(range(n_rows), k):
            for cs in combinations(range(n_cols), k):
                d = math.gcd(d, _determinant([[m[i][j] for j in cs]
                                              for i in rs]))
        if d == 0:
            break
        if d // prev > 1:
            out.append(d // prev)
        prev = d
    return out


def wedge_with_cells(m):
    """One vertex, a circle per row of m and a 2-cell per column, the
    2-cell j attached along m[i][j] times circle i. H_1 over z is
    coker(m), so its torsion is the invariant factors of m above one."""
    S = mm.SComplex(mm.INTEGERS)
    S.add_cell(0)
    loops = [S.add_cell(1) for _ in m]
    for j in range(len(m[0]) if m else 0):
        cell = S.add_cell(2)
        for e, row in zip(loops, m):
            S.set_incidence(cell, e, row[j])
    return S


def klein_bottle(n=4, ring=mm.INTEGERS):
    """n x n grid with its sides glued as a Klein bottle: vertex
    i * n + j at (i, j); (n, j) is glued to (0, -j)."""
    def vertex(i, j):
        if i == n:
            i, j = 0, -j
        return i * n + j % n
    faces = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            faces.extend([(a, b, c), (a, c, d)])
    return mm.build_simplicial(n * n, faces, ring)


# -- reference implementations ------------------------------------------
# The complex builder and the matching as they were written before the
# one-sweep versions in the package: a checked add_cell / set_incidence
# per cell, and a complex per lower link. Tests compare the package
# against them cell for cell and time them.

def _reference_closure(simplices):
    seen = set()
    for simplex in simplices:
        w = tuple(sorted(simplex))
        if len(set(w)) != len(w):
            raise ComplexError(f"complex: repeated vertex in simplex {simplex}")
        if not w:
            raise ComplexError("complex: empty simplex")
        for mask in range(1, 1 << len(w)):
            seen.add(tuple(w[i] for i in range(len(w)) if mask >> i & 1))
    return sorted(seen, key=lambda s: (len(s), s))


def _reference_build(simplices, ring):
    """The reference complex, and the map from its tuples to its ids."""
    out = SComplex(ring)
    ids = {}
    plus, minus = ring.from_int(1), ring.from_int(-1)
    for w in _reference_closure(simplices):
        c = out.add_cell(len(w) - 1)
        out.verts[c] = w
        ids[w] = c
        for i in range(len(w)):
            if len(w) == 1:
                break
            t = ids[w[:i] + w[i + 1:]]
            out.set_incidence(c, t, plus if i % 2 == 0 else minus)
    return out, ids


def reference_complex_from_simplices(simplices, ring=mm.GF2):
    return _reference_build(simplices, ring)[0]


def _reference_admission(f, index, variant):
    if variant == "strict":
        return lambda u, v: mm.le_neq(f[u], f[v])

    def admit(u, v):
        gu, gv = f[u], f[v]
        if gu == gv:
            return index[u] < index[v]
        return mm.leq(gu, gv)
    return admit


def _reference_link_of(S, ids, vid, v_cell, admit):
    member = []
    for rho in cofaces_closure(S, v_cell):
        w = tuple(u for u in S.verts[rho] if u != vid)
        if all(admit(u, vid) for u in w):
            member.append(w)
    link, link_ids = _reference_build(member, S.ring) if member \
        else (SComplex(S.ring), {})
    to_parent = {
        lc: ids[tuple(sorted(w + (vid,)))]
        for lc, w in enumerate(link.verts)
    }
    return link, link_ids, to_parent


def _reference_match_vertex(S, ids, f, index, variant, v_cell, matched,
                            critical):
    vid = S.verts[v_cell][0]
    link, link_ids, to_parent = _reference_link_of(
        S, ids, vid, v_cell, _reference_admission(f, index, variant))
    if len(link) == 0:
        critical.add(v_cell)
        return
    sub_matched, sub_critical = _reference_partition_core(
        link, link_ids, f, index, variant)
    c0 = sorted(lc for lc in sub_critical if link.dim(lc) == 0)
    if not c0:
        raise MatchingError(
            "matching: nonempty link produced no critical vertex")
    pool = [(lc, link.verts[lc][0]) for lc in c0]
    minimal = [(lc, u) for lc, u in pool
               if not any(mm.le_neq(f[w], f[u]) for _, w in pool if w != u)]
    w0_cell, _ = min(minimal, key=lambda item: index[item[1]])
    matched[v_cell] = to_parent[w0_cell]
    for lc in sorted(sub_critical):
        if lc != w0_cell:
            critical.add(to_parent[lc])
    for low, up in sub_matched.items():
        matched[to_parent[low]] = to_parent[up]


def _reference_partition_core(S, ids, f, index, variant):
    """The partition of S, whose tuples ids maps to their cell ids."""
    zero = S.cells_of_dim(0)
    zero.sort(key=lambda c: index[S.verts[c][0]])
    matched = {}
    critical = set()
    for v_cell in zero:
        _reference_match_vertex(S, ids, f, index, variant, v_cell, matched,
                                critical)
    assigned = set(matched)
    assigned.update(matched.values())
    assigned.update(critical)
    for c in S.cells():
        if c not in assigned:
            critical.add(c)
    return matched, critical


def reference_partition(S, f, index, variant="strict"):
    """(matched, critical) of the per-vertex recursion; S, f and index
    must already be valid partition inputs."""
    ids = {w: c for c, w in enumerate(S.verts) if w is not None}
    return _reference_partition_core(S, ids, f, index, variant)


# -- meshes -------------------------------------------------------------

OCTAHEDRON_VERTICES = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                       (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
OCTAHEDRON_FACES = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
                    (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]


def subdivide(vertices, faces):
    """One 1-to-4 split of every triangle, new vertices at edge
    midpoints. Vertex degrees stay bounded (at most 6 for new vertices)."""
    vertices = list(vertices)
    mids = {}

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in mids:
            ax, ay, az = vertices[a]
            bx, by, bz = vertices[b]
            vertices.append(((ax + bx) / 2, (ay + by) / 2, (az + bz) / 2))
            mids[key] = len(vertices) - 1
        return mids[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return vertices, out


def sphere_mesh(levels):
    """Octahedron subdivided `levels` times, pushed to the unit sphere
    so coordinate-derived grades are mostly distinct."""
    vertices, faces = OCTAHEDRON_VERTICES, OCTAHEDRON_FACES
    for _ in range(levels):
        vertices, faces = subdivide(vertices, faces)
    unit = []
    for x, y, z in vertices:
        n = math.sqrt(x * x + y * y + z * z)
        unit.append((x / n, y / n, z / n))
    return mm.Mesh(unit, [tuple(f) for f in faces])


def rotated_sphere_mesh(levels, seed):
    """sphere_mesh(levels) turned by a seeded uniform random rotation
    (from a unit quaternion), so its abs-xy grades are distinct."""
    mesh = sphere_mesh(levels)
    rng = random.Random(seed)
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1 - u1), math.sqrt(u1)
    w, x = a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2)
    y, z = b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3)
    rot = [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
           [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
           [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]
    vertices = [tuple(r[0] * p + r[1] * q + r[2] * s for r in rot)
                for p, q, s in mesh.vertices]
    return mm.Mesh(vertices, mesh.faces)


def grid_torus_faces(n):
    """Triangles of an n x n grid with opposite sides glued; vertex
    i * n + j sits at grid point (i, j)."""
    faces = []
    for i in range(n):
        for j in range(n):
            a = i * n + j
            b = ((i + 1) % n) * n + j
            c = ((i + 1) % n) * n + (j + 1) % n
            d = i * n + (j + 1) % n
            faces.extend([(a, b, c), (a, c, d)])
    return faces


def grid_torus(n, ring=mm.GF2):
    return mm.build_simplicial(n * n, grid_torus_faces(n), ring)


def meshes_with_solids(seed=13):
    """(vertex count, simplices) for two spheres and two tori, each
    with three 3-simplices and two 4-simplices added on random
    vertices, so links reach dimension 3."""
    rng = random.Random(seed)
    bases = [(len(m.vertices), list(m.faces))
             for m in (sphere_mesh(1), sphere_mesh(2))]
    bases += [(side * side, grid_torus_faces(side)) for side in (4, 6)]
    out = []
    for n, faces in bases:
        solids = [tuple(rng.sample(range(n), size))
                  for size in (4, 4, 4, 5, 5)]
        out.append((n, faces + solids))
    return out


def write_off(path, mesh):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for x, y, z in mesh.vertices:
            fh.write(f"{x!r} {y!r} {z!r}\n")
        for a, b, c in mesh.faces:
            fh.write(f"3 {a} {b} {c}\n")


def traced(call):
    """call() and the bytes tracemalloc counts as (result, (current,
    peak)), current taken with the result still alive. gc.collect()
    before the call empties the free lists, which would otherwise hand
    out blocks allocated before tracing began, so the figures repeat
    exactly; gc.collect() after it empties them again, so current does
    not count the temporaries the call freed into them."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        gc.collect()
        return result, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


# -- CLI transcripts ------------------------------------------------------
#
# Each case runs every command of the CLI in-process on one mesh with
# one set of flags. The meshes have coordinates that are exact on every
# platform: the subdivided octahedron uses only midpoints, square roots
# and division, which IEEE 754 rounds correctly, and the torus sits on
# an integer grid with an integer values file. Nothing here imports
# pytest, so an interpreter without it can run the cases too.

TORUS_SIDE = 6

MESHES = {
    "empty": lambda: mm.Mesh([], []),
    "sphere1": lambda: sphere_mesh(1),
    "sphere2": lambda: sphere_mesh(2),
    "torus6": lambda: mm.Mesh(
        [(float(i), float(j), 0.0)
         for i in range(TORUS_SIDE) for j in range(TORUS_SIDE)],
        grid_torus_faces(TORUS_SIDE)),
}

FLAGS = {
    "strict-lex": [],
    "weak-kahn": ["--variant", "weak", "--indexing", "kahn"],
    "z": ["--ring", "z"],
    "weak-z5": ["--variant", "weak", "--ring", "z5"],
    "q-qmax1": ["--ring", "q", "--qmax", "1"],
}

COMMANDS = [
    ["stats"],
    ["sort"],
    ["match"],
    ["reduce", "--out", "{out}"],
    ["verify"],
    ["verify", "--max-cells", "60", "--seed", "3"],
]


def _torus_values(path):
    """Integer grades with ties: vertex (i, j) gets (i % 3, (i + 2j) % 4)."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(TORUS_SIDE):
            for j in range(TORUS_SIDE):
                fh.write(f"{i % 3} {(i + 2 * j) % 4}\n")


def transcript_digests(mesh_name, flag_name, tmp_path):
    """sha256 of every command's argv (without paths), stdout, stderr,
    exit status and written file, in COMMANDS order, and the sha256 of
    each command's own parts, as (command, digest) pairs. tmp_path is
    an empty directory, as a pathlib.Path."""
    mesh_path = str(tmp_path / "mesh.off")
    write_off(mesh_path, MESHES[mesh_name]())
    flags = list(FLAGS[flag_name])
    if mesh_name.startswith("torus"):
        values_path = str(tmp_path / "values.txt")
        _torus_values(values_path)
        flags += ["--values", values_path]
    out_path = tmp_path / "reduced.txt"
    h = hashlib.sha256()
    per_command = []
    for command in COMMANDS:
        if out_path.exists():
            out_path.unlink()
        args = [a.format(out=out_path) for a in command]
        # each command gets only the flags it takes
        takes = COMMAND_FLAGS[command[0]]
        taken = [x for flag, value in zip(flags[::2], flags[1::2])
                 if flag in takes for x in (flag, value)]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(args[:1] + [mesh_path] + args[1:] + taken)
        written = out_path.read_bytes() if out_path.exists() else b""
        own = hashlib.sha256()
        for part in (" ".join(command).encode(), out.getvalue().encode(),
                     err.getvalue().encode(), str(status).encode(), written):
            for digest in (h, own):
                digest.update(len(part).to_bytes(8, "big"))
                digest.update(part)
        per_command.append((" ".join(command), own.hexdigest()))
    return h.hexdigest(), per_command
