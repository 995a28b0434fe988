"""Seeded input generators for the benchmark.

Every input is built in code from the workload seed, so the benchmark
needs no data files: a randomly rotated octahedral sphere (rotating
makes the `abs-xy` grades of the CLI preset distinct and seed-dependent),
a flat-grid torus, and a values file of small integer grades with many
ties. Files are written in the formats `multimorse` reads.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

Vertex = Tuple[float, float, float]
Face = Tuple[int, int, int]

OCTAHEDRON_VERTICES: List[Vertex] = [
    (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
    (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
OCTAHEDRON_FACES: List[Face] = [
    (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
    (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]


def _subdivide(vertices: List[Vertex], faces: List[Face]
               ) -> Tuple[List[Vertex], List[Face]]:
    """One 1-to-4 split of every triangle at the edge midpoints."""
    vertices = list(vertices)
    mids: Dict[Tuple[int, int], int] = {}

    def midpoint(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        if key not in mids:
            ax, ay, az = vertices[a]
            bx, by, bz = vertices[b]
            vertices.append(((ax + bx) / 2, (ay + by) / 2, (az + bz) / 2))
            mids[key] = len(vertices) - 1
        return mids[key]

    out: List[Face] = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return vertices, out


def _random_rotation(rng: random.Random) -> List[List[float]]:
    """Uniform random rotation matrix from a unit quaternion (Shoemake)."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1 - u1), math.sqrt(u1)
    w, x = a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2)
    y, z = b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3)
    return [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]


def rotated_sphere(levels: int, seed: int) -> Tuple[List[Vertex], List[Face]]:
    """Octahedron subdivided `levels` times, projected to the unit sphere
    and rotated at random: 4**levels * 4 + 2 vertices."""
    vertices, faces = OCTAHEDRON_VERTICES, OCTAHEDRON_FACES
    for _ in range(levels):
        vertices, faces = _subdivide(vertices, faces)
    rot = _random_rotation(random.Random(seed))
    out: List[Vertex] = []
    for x, y, z in vertices:
        n = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / n, y / n, z / n
        out.append(tuple(r[0] * x + r[1] * y + r[2] * z for r in rot))
    return out, faces


def torus(n: int, major: float = 2.0, minor: float = 1.0
          ) -> Tuple[List[Vertex], List[Face]]:
    """n-by-n grid on the torus of revolution, two triangles per square:
    n*n vertices, 3*n*n edges, 2*n*n triangles. Needs n >= 3."""
    vertices: List[Vertex] = []
    for i in range(n):
        phi = 2 * math.pi * i / n
        for j in range(n):
            theta = 2 * math.pi * j / n
            r = major + minor * math.cos(theta)
            vertices.append((r * math.cos(phi), r * math.sin(phi),
                             minor * math.sin(theta)))
    faces: List[Face] = []
    for i in range(n):
        for j in range(n):
            a = i * n + j
            b = ((i + 1) % n) * n + j
            c = ((i + 1) % n) * n + (j + 1) % n
            d = i * n + (j + 1) % n
            faces.extend([(a, b, c), (a, c, d)])
    return vertices, faces


def tied_grades(count: int, levels: int, k: int, seed: int
                ) -> List[Tuple[int, ...]]:
    """k integer grades per vertex on the grid {0..levels-1}^k, so equal
    and comparable grades are common. Every grid point is used equally
    often (up to the remainder) and the seed shuffles them over the
    vertices: the number of comparable vertex pairs, which sets the
    comparability DAG's size, then hardly depends on the seed."""
    rng = random.Random(seed)
    grid = [tuple((i // levels ** j) % levels for j in range(k))
            for i in range(levels ** k)]
    out = grid * (count // len(grid)) + rng.sample(grid, count % len(grid))
    rng.shuffle(out)
    return out


def cell_counts(vertex_count: int, faces: List[Face]) -> List[int]:
    """Vertices, edges and triangles of the complex a mesh builds."""
    edges = {tuple(sorted(e)) for a, b, c in faces
             for e in ((a, b), (b, c), (a, c))}
    return [vertex_count, len(edges), len(faces)]


def write_off(path: str, vertices: List[Vertex], faces: List[Face]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(vertices)} {len(faces)} 0\n")
        for x, y, z in vertices:
            fh.write(f"{x!r} {y!r} {z!r}\n")
        for a, b, c in faces:
            fh.write(f"3 {a} {b} {c}\n")


def write_values(path: str, grades: List[Tuple[int, ...]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in grades:
            fh.write(" ".join(str(x) for x in g) + "\n")
