"""Seeded vertex-star sampling: the local ball growth must draw exactly
the submeshes of the ring-by-ring full-subcomplex growth it replaced,
and its cost must follow the samples, not the mesh."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import multimorse as mm

import helpers


def _reference_ball(S, center, cell_limit):
    """Ring-by-ring growth that rebuilds the induced subcomplex of the
    whole ball on every ring."""
    inside = {center}
    frontier = {center}
    sub = mm.full_subcomplex(S, inside)
    while frontier:
        ring_verts = set()
        for v in frontier:
            ring_verts |= helpers.vertex_neighbors(S, v)
        ring_verts -= inside
        if not ring_verts:
            break
        grown = mm.full_subcomplex(S, inside | ring_verts)
        if len(grown) > cell_limit:
            break
        inside |= ring_verts
        frontier = ring_verts
        sub = grown
    return sub


def _reference_samples(S, count, cell_limit, seed):
    rng = random.Random(seed)
    vids = S.vertex_ids()
    out = []
    seen = set()
    while len(out) < count and len(seen) < len(vids):
        center = rng.choice(vids)
        if center in seen:
            continue
        seen.add(center)
        out.append((center, _reference_ball(S, center, cell_limit)))
    return out


def _two_octahedra_and_a_point():
    second = [tuple(v + 6 for v in f) for f in helpers.OCTAHEDRON_FACES]
    return mm.build_simplicial(13, helpers.OCTAHEDRON_FACES + second)


def _assert_same_samples(S, count, cell_limit, seed):
    got = mm.sample_star_submeshes(helpers.star_index(S), count,
                                   cell_limit, seed)
    want = _reference_samples(S, count, cell_limit, seed)
    assert [c for c, _ in got] == [c for c, _ in want]
    for (_, cells), (_, ref) in zip(got, want):
        # the reference's cells, in its id order
        assert cells == ref.verts


MESHES = {
    "sphere2": lambda: mm.mesh_complex(helpers.sphere_mesh(2)),
    "sphere3": lambda: mm.mesh_complex(helpers.sphere_mesh(3)),
    "sphere4": lambda: mm.mesh_complex(helpers.sphere_mesh(4)),
    "torus8": lambda: helpers.grid_torus(8),
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_samples_equal_full_subcomplex_growth(name):
    S = MESHES[name]()
    # the reference rescans the whole mesh on every ring, so the larger
    # meshes draw fewer samples and grow to the whole mesh once
    large = len(S) > 1000
    for seed in range(5):
        for cell_limit in (0, 1, 5, 400):
            _assert_same_samples(S, 2 if large else 4, cell_limit, seed)
        if seed == 0 or not large:
            # a limit above the mesh grows the ball to its component
            _assert_same_samples(S, 1, len(S) + 1, seed)


def test_samples_on_disconnected_mesh_with_isolated_vertex():
    S = _two_octahedra_and_a_point()
    assert helpers.vertex_neighbors(S, 12) == set()
    for seed in range(5):
        for cell_limit in (0, 1, 5, 400, len(S) + 1):
            # more draws than vertices: every vertex becomes a center
            _assert_same_samples(S, 20, cell_limit, seed)
    whole = mm.sample_star_submeshes(helpers.star_index(S), 13, len(S) + 1,
                                     0)
    sizes = {center: len(cells) for center, cells in whole}
    assert sizes[12] == 1
    assert {sizes[v] for v in range(12)} == {26}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(0, 10 ** 6), st.integers(1, 10),
       st.sampled_from([0, 1, 3, 10, 30, 400]), st.integers(0, 10 ** 6))
def test_samples_equal_full_subcomplex_growth_on_random_complexes(
        complex_seed, n_top, cell_limit, seed):
    # random closures have what the triangle meshes above lack: dangling
    # edges, tetrahedra and isolated vertices
    S = helpers.random_complex(complex_seed, 12, n_top=n_top)
    _assert_same_samples(S, 6, cell_limit, seed)


class _CountedStar(dict):
    """A star index that counts the cells its lookups hand out."""

    reads = 0

    def __getitem__(self, v):
        cells = super().__getitem__(v)
        self.reads += len(cells)
        return cells


def test_sampling_work_follows_samples_not_mesh():
    # the deterministic companion of the timed gate below: the index
    # cells read for 20 samples of 400 cells stay flat from L=3 to L=5;
    # a walk over the whole mesh would grow 16x
    counts = {}
    for level in (3, 5):
        S = mm.mesh_complex(helpers.sphere_mesh(level))
        star = _CountedStar(helpers.star_index(S))
        mm.sample_star_submeshes(star, 20, 400, 0)
        counts[level] = star.reads
    assert counts[5] <= 1.1 * counts[3], counts


def test_sampling_time_follows_samples_not_mesh():
    # the ball grows through the star index, built once outside the
    # timer, so drawing the same number of same-size samples costs
    # about the same on a 16x larger mesh
    def best_time(S):
        star = helpers.star_index(S)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            mm.sample_star_submeshes(star, 20, 400, 0)
            best = min(best, time.perf_counter() - t0)
        return best

    small = best_time(mm.mesh_complex(helpers.sphere_mesh(3)))
    large = best_time(mm.mesh_complex(helpers.sphere_mesh(5)))
    assert large <= 2.0 * small, (
        f"sampling took {large:.3f}s on L=5 vs {small:.3f}s on L=3")
