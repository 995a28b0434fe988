"""Mesh, grade, and reduced-complex file input and output.

Meshes come in as ASCII OFF (canonical) or OBJ (v/f lines only);
triangles only. Vertex grades come from a preset on the coordinates or
from a values file with one line of k numbers per vertex. A reduced
complex is written as a small text format: a header with the grade arity
and cell count, one line per cell (id, dimension, grade components),
then the boundary entries. Grades survive a write/read round trip
bit-exactly because floats are printed in shortest-repr form.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from .complexes import ComplexError, SComplex, build_simplicial
from .filtration import Grade, GradeError, MeasuringFunction
from .rings import GF2, CoefficientRing


class MeshFormatError(ValueError):
    """Raised for malformed mesh, values, or reduced-complex files."""


class Mesh:
    """Triangle mesh: 3D vertex coordinates and vertex-index triples."""

    def __init__(self, vertices: List[Tuple[float, float, float]],
                 faces: List[Tuple[int, int, int]]):
        self.vertices = vertices
        self.faces = faces


def _numbered_lines(text: str) -> List[Tuple[int, str]]:
    """Non-blank lines with comments stripped, with their 1-based line
    numbers in the file."""
    out = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((number, line))
    return out


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as e:
        raise MeshFormatError(f"mesh: cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise MeshFormatError(
            f"mesh: {path}: byte {e.object[e.start]:#04x} at offset "
            f"{e.start} is not ASCII") from None


def _parse_off(numbered: List[Tuple[int, str]], name: str) -> Mesh:
    if not numbered:
        raise MeshFormatError(f"mesh: {name}: empty file")
    head = numbered[0][1].split()
    if head[0] != "OFF":
        raise MeshFormatError(f"mesh: {name}: missing OFF header")
    if len(head) > 1:
        at, counts, body = numbered[0][0], head[1:], numbered[1:]
    else:
        if len(numbered) < 2:
            raise MeshFormatError(f"mesh: {name}: missing count line")
        (at, text), body = numbered[1], numbered[2:]
        counts = text.split()
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (IndexError, ValueError):
        nv = nf = -1
    if nv < 0 or nf < 0:
        raise MeshFormatError(f"mesh: {name}: bad count line {at}")
    if len(body) < nv + nf:
        raise MeshFormatError(
            f"mesh: {name}: expected {nv} vertices and {nf} faces")
    vertices = []
    for number, line in body[:nv]:
        parts = line.split()
        try:
            vertices.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except (IndexError, ValueError):
            raise MeshFormatError(
                f"mesh: {name}: bad vertex line {number}") from None
    faces = []
    ints = list(range(nv))
    for number, line in body[nv:nv + nf]:
        try:    # most face lines are "3 a b c"
            n, a, b, c = map(int, line.split())
            idx: Tuple[int, ...] = (a, b, c)
        except ValueError:
            parts = line.split()
            try:
                n = int(parts[0])
                idx = tuple(map(int, parts[1:1 + n]))
            except (IndexError, ValueError):
                raise MeshFormatError(
                    f"mesh: {name}: bad face line {number}") from None
        faces.append(_checked_triangle(idx, n, ints, name, number))
    return Mesh(vertices, faces)


def _checked_triangle(idx: Tuple[int, ...], n: int, ints: List[int],
                      name: str, number: int, first: int = 0
                      ) -> Tuple[int, int, int]:
    """Check a face's vertex indices, numbered from first as in the
    file (and so in the messages), and return them numbered from 0.
    ints is list(range(vertex count)), made once per mesh: a vertex
    number is returned as its entry there, so the faces hold one int
    object per vertex rather than one per corner."""
    last = len(ints) + first
    if n == 3 and len(idx) == 3:
        a, b, c = idx
        if a != b != c != a and first <= a < last and first <= b < last \
                and first <= c < last:
            return (ints[a - first], ints[b - first], ints[c - first])
    where = f"mesh: {name}: line {number}"
    if n != 3 or len(idx) != 3:
        raise MeshFormatError(f"{where}: non-triangle face {idx}")
    if len(set(idx)) != 3:
        raise MeshFormatError(f"{where}: degenerate face {idx}")
    bad = next(v for v in idx if not first <= v < last)
    raise MeshFormatError(f"{where}: index out of range ({bad})")


def _parse_obj(numbered: List[Tuple[int, str]], name: str) -> Mesh:
    vertices: List[Tuple[float, float, float]] = []
    raw_faces: List[Tuple[int, Tuple[int, ...]]] = []
    for number, line in numbered:
        parts = line.split()
        if parts[0] == "v":
            try:
                vertices.append(
                    (float(parts[1]), float(parts[2]), float(parts[3])))
            except (IndexError, ValueError):
                raise MeshFormatError(f"mesh: {name}: line {number}: "
                                      f"bad vertex line {line!r}") from None
        elif parts[0] == "f":
            idx = []
            for ref in parts[1:]:
                try:
                    v = int(ref.split("/", 1)[0])
                except ValueError:
                    raise MeshFormatError(
                        f"mesh: {name}: line {number}: "
                        f"bad face reference {ref!r}") from None
                # -1 is the last vertex read so far; one reaching before
                # the first is kept as written, to be reported so
                idx.append(len(vertices) + 1 + v if -len(vertices) <= v < 0
                           else v)
            raw_faces.append((number, tuple(idx)))
        # every other OBJ directive (vt, vn, usemtl, ...) is ignored
    # OBJ counts vertices from 1, and a face may precede its vertices
    ints = list(range(len(vertices)))
    faces = [_checked_triangle(idx, len(idx), ints, name, number, 1)
             for number, idx in raw_faces]
    return Mesh(vertices, faces)


def read_mesh(path: str) -> Mesh:
    """Parse an OFF or OBJ file, by extension with an OFF-header
    fallback."""
    numbered = _numbered_lines(_read_text(path))
    name = str(path)
    if name.lower().endswith(".obj"):
        return _parse_obj(numbered, name)
    if name.lower().endswith(".off") or \
            (numbered and numbered[0][1].split()[0] == "OFF"):
        return _parse_off(numbered, name)
    raise MeshFormatError(f"mesh: {name}: unrecognized format")


def read_values(path: str) -> MeasuringFunction:
    """Read a values file: one line per vertex, k finite numbers per
    line, k set by the first."""
    grades: List[Grade] = []
    for number, line in _numbered_lines(_read_text(path)):
        try:
            g = tuple(float(x) for x in line.split())
        except ValueError:
            raise MeshFormatError(
                f"mesh: {path}: bad values line {number}") from None
        if grades and len(g) != len(grades[0]):
            raise GradeError(f"grades: {path}: line {number} has arity "
                             f"{len(g)}, expected {len(grades[0])}")
        if not all(map(math.isfinite, g)):
            raise GradeError(
                f"grades: {path}: non-finite component on line {number}")
        grades.append(g)
    if not grades:
        raise GradeError(f"grades: {path}: no value lines")
    return MeasuringFunction(grades)


def preset_abs_xy(mesh: Mesh) -> MeasuringFunction:
    """The coordinate preset: vertex (x, y, z) gets grade (|x|, |y|)."""
    return MeasuringFunction([(abs(x), abs(y)) for x, y, _ in mesh.vertices])


def mesh_complex(mesh: Mesh, ring: CoefficientRing = GF2
                 ) -> SComplex:
    """Simplicial complex of a triangle mesh: all vertices (isolated ones
    included), all edges and triangles from the face list."""
    return build_simplicial(len(mesh.vertices), mesh.faces, ring)


def write_reduced(path: str, S: SComplex, grades: Dict[int, Grade],
                  k: int) -> None:
    """Write a reduced complex with its carried grades."""
    cells = S.cells()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"k {k}\n")
        fh.write(f"cells {len(cells)}\n")
        for c in cells:
            g = grades[c]
            if len(g) != k:
                raise MeshFormatError(
                    f"mesh: {path}: cell {c} grade arity {len(g)} != {k}")
            text = " ".join(repr(x) for x in g)
            fh.write(f"{c} {S.dim(c)} {text}\n")
        fh.write(f"boundary {sum(len(S.boundary(s)) for s in cells)}\n")
        for s in cells:
            for t, v in sorted(S.boundary(s)):
                fh.write(f"{s} {t} {S.ring.format(v)}\n")


def read_reduced(path: str, ring: CoefficientRing = GF2
                 ) -> Tuple[SComplex, Dict[int, Grade]]:
    """Read a reduced-complex file back into a complex and its grades.
    Every malformed line raises MeshFormatError naming the file and the
    line number."""
    lines = _numbered_lines(_read_text(path))
    rest = iter(lines)

    def fail(number: int, message: str) -> MeshFormatError:
        return MeshFormatError(f"mesh: {path}: line {number}: {message}")

    def take(what: str) -> Tuple[int, List[str]]:
        item = next(rest, None)
        if item is None:
            end = lines[-1][0] + 1 if lines else 1
            raise fail(end, f"file ends before the {what}")
        number, line = item
        return number, line.split()

    def count(tag: str) -> int:
        number, parts = take(f"'{tag}' line")
        if parts[0] != tag:
            raise fail(number, f"expected '{tag}' line")
        try:
            n = int(parts[1]) if len(parts) == 2 else -1
        except ValueError:
            n = -1
        if n < 0:
            raise fail(number, f"bad '{tag}' line {' '.join(parts)!r}")
        return n

    k = count("k")
    n_cells = count("cells")
    S = SComplex(ring)
    grades: Dict[int, Grade] = {}
    for i in range(n_cells):
        number, parts = take(f"cell line {i + 1} of {n_cells}")
        try:
            cid, dim = int(parts[0]), int(parts[1])
            grade = tuple(float(x) for x in parts[2:])
        except (IndexError, ValueError):
            raise fail(number, f"bad cell line {' '.join(parts)!r}") from None
        if len(grade) != k:
            raise fail(number, f"cell {cid} has {len(grade)} grade components")
        if not all(math.isfinite(x) for x in grade):
            raise fail(number, f"cell {cid} has a non-finite grade")
        try:
            S.add_cell(dim, cid)
        except ComplexError as e:
            raise fail(number, str(e)) from None
        grades[cid] = grade
    n_entries = count("boundary")
    seen: Set[Tuple[int, int]] = set()
    for i in range(n_entries):
        number, parts = take(f"boundary line {i + 1} of {n_entries}")
        try:
            s, t = int(parts[0]), int(parts[1])
            v = ring.parse(parts[2])
        except (IndexError, ValueError, ZeroDivisionError):
            raise fail(number,
                       f"bad boundary line {' '.join(parts)!r}") from None
        if (s, t) in seen:
            raise fail(number, f"repeated boundary entry for cells {s},{t}")
        seen.add((s, t))
        try:
            S.set_incidence(s, t, v)
        except ComplexError as e:
            raise fail(number, str(e)) from None
    extra = next(rest, None)
    if extra is not None:
        raise fail(extra[0], f"line past the {n_entries} boundary entries")
    try:
        S.validate()
    except ComplexError as e:
        raise MeshFormatError(f"mesh: {path}: {e}") from None
    return S, grades
