"""Seeded vertex-star sampling: the local ball growth must draw exactly
the submeshes of the ring-by-ring full-subcomplex growth it replaced,
and its cost must follow the samples, not the mesh."""

import random
import time

import pytest

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
    got = mm.sample_star_submeshes(S, count, cell_limit, seed)
    want = _reference_samples(S, count, cell_limit, seed)
    assert [c for c, _ in got] == [c for c, _ in want]
    for (_, sub), (_, ref) in zip(got, want):
        assert sub.cells() == ref.cells()
        assert sub.verts == ref.verts
        assert sub.ring == S.ring


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
    whole = mm.sample_star_submeshes(S, 13, len(S) + 1, 0)
    sizes = {center: len(sub) for center, sub in whole}
    assert sizes[12] == 1
    assert {sizes[v] for v in range(12)} == {26}


def test_sampling_work_follows_samples_not_mesh(monkeypatch):
    # the deterministic companion of the timed gate below: the coboundary
    # calls of 20 samples of 400 cells stay flat from L=3 to L=5 (about
    # 9,300 each); a walk over the whole mesh would grow 16x
    calls = [0]
    real = mm.SComplex.coboundary

    def counted(self, c):
        calls[0] += 1
        return real(self, c)

    monkeypatch.setattr(mm.SComplex, "coboundary", counted)
    counts = {}
    for level in (3, 5):
        S = mm.mesh_complex(helpers.sphere_mesh(level))
        calls[0] = 0
        mm.sample_star_submeshes(S, 20, 400, 0)
        counts[level] = calls[0]
    assert counts[5] <= 1.1 * counts[3], counts


def test_sampling_time_follows_samples_not_mesh():
    # the ball grows through cofaces, so drawing the same number of
    # same-size samples costs about the same on a 16x larger mesh
    def best_time(S):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            mm.sample_star_submeshes(S, 20, 400, 0)
            best = min(best, time.perf_counter() - t0)
        return best

    small = best_time(mm.mesh_complex(helpers.sphere_mesh(3)))
    large = best_time(mm.mesh_complex(helpers.sphere_mesh(5)))
    assert large <= 2.0 * small, (
        f"sampling took {large:.3f}s on L=5 vs {small:.3f}s on L=3")
