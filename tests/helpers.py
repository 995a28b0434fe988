"""Shared builders and invariant checkers for the test suite."""

from __future__ import annotations

import math
import random
from itertools import combinations

import multimorse as mm
from multimorse.complexes import ComplexError, SimplicialComplex
from multimorse.matching import MatchingError

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
    A, B, C = P.lower, P.upper, set(P.critical)
    assert A | B | C == cells
    assert not A & B and not A & C and not B & C
    assert len(P.matched) == len(A)
    assert len(set(P.matched.values())) == len(P.matched)
    for s, t in P.matched.items():
        assert t in S.primary_cofaces(s)
        assert S.ring.is_unit(S.incidence(t, s))
    assert mm.is_acyclic(mm.modified_hasse(S, P.matched))
    grades = mm.entry_grades(S, f)
    for s, t in P.matched.items():
        assert grades[s] == grades[t]
    for alpha in mm.critical_grades(grades):
        inside = mm.sublevel_cells(grades, alpha)
        for s, t in P.matched.items():
            if s in inside:
                assert t in inside


def assert_max_index_laws(S, index, P):
    """Vertex indices grow from faces to cofaces and the pairing keeps
    the maximum index unchanged."""
    for c in S.cells():
        top = mm.max_index(S, index, c)
        for t in S.primary_faces(c):
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
        nv = ring.sub(out.get(k, ring.zero), v)
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


def assert_step_algebra(pre, post, step):
    """Exact chain-map identities of one elementary reduction step:
    projection . inclusion = id on the reduced complex, and
    id - inclusion . projection = dD + Dd cell by cell on the old one."""
    ring = pre.ring
    pi = mm.projection_map(step)
    iota = mm.inclusion_map(step)
    D = mm.homotopy_map(step)
    for g in post.cells():
        assert pi.apply(iota.image_of(g)) == {g: ring.one}
    for g in pre.cells():
        defect = chain_sub(ring, {g: ring.one}, iota.apply(pi.image_of(g)))
        dD = boundary_of_chain(pre, D.image_of(g))
        Dd = D.apply(dict(pre.boundary(g)))
        assert defect == chain_add(ring, dD, Dd)


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


def klein_bottle(n=4):
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
    return mm.build_simplicial(n * n, faces, mm.INTEGERS)


# -- reference implementations ------------------------------------------
# The complex builder and the matching as they were written before the
# one-sweep versions in the package: a checked add_simplex_cell /
# set_incidence per cell, and a SimplicialComplex per lower link. Tests
# compare the package against them cell for cell and time them.

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


def reference_complex_from_simplices(simplices, ring=mm.GF2):
    out = SimplicialComplex(ring)
    plus, minus = ring.from_int(1), ring.from_int(-1)
    for w in _reference_closure(simplices):
        c = out.add_simplex_cell(w)
        for i in range(len(w)):
            if len(w) == 1:
                break
            t = out.cell_by_verts[w[:i] + w[i + 1:]]
            out.set_incidence(c, t, plus if i % 2 == 0 else minus)
    return out


def _reference_admission(f, index, variant):
    if variant == "strict":
        return lambda u, v: mm.le_neq(f[u], f[v])

    def admit(u, v):
        gu, gv = f[u], f[v]
        if gu == gv:
            return index[u] < index[v]
        return mm.leq(gu, gv)
    return admit


def _reference_link_of(S, vid, v_cell, admit):
    member = []
    for rho in S.cofaces_closure(v_cell):
        w = tuple(u for u in S.verts[rho] if u != vid)
        if all(admit(u, vid) for u in w):
            member.append(w)
    link = reference_complex_from_simplices(member, S.ring) if member \
        else SimplicialComplex(S.ring)
    to_parent = {
        lc: S.cell_by_verts[tuple(sorted(w + (vid,)))]
        for lc, w in link.verts.items()
    }
    return link, to_parent


def _reference_match_vertex(S, f, index, variant, v_cell, matched, critical):
    vid = S.verts[v_cell][0]
    link, to_parent = _reference_link_of(
        S, vid, v_cell, _reference_admission(f, index, variant))
    if len(link) == 0:
        critical.add(v_cell)
        return
    sub_matched, sub_critical = _reference_partition_core(
        link, f, index, variant)
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


def _reference_partition_core(S, f, index, variant):
    zero = S.cells_of_dim(0)
    zero.sort(key=lambda c: index[S.verts[c][0]])
    matched = {}
    critical = set()
    for v_cell in zero:
        _reference_match_vertex(S, f, index, variant, v_cell, matched,
                                critical)
    assigned = set(matched)
    assigned.update(matched.values())
    assigned.update(critical)
    for c in S.cells():
        if c not in assigned:
            critical.add(c)
    return matched, critical


def reference_lower_link(S, f, v):
    """(link complex, to_parent) of the strict lower link of vertex v."""
    return _reference_link_of(S, v, S.cell_with_verts((v,)),
                              _reference_admission(f, None, "strict"))


def reference_partition(S, f, index, variant="strict"):
    """(matched, critical) of the per-vertex recursion; S, f and index
    must already be valid partition inputs."""
    return _reference_partition_core(S, f, index, variant)


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
