import heapq
import random
import time

import multimorse as mm
from multimorse.indexing import ComparabilityDag

import helpers


def test_build_dag_examples():
    two = mm.build_dag(helpers.grades_of([(0, 0), (1, 1)]))
    assert (two.members, two.above) == ([[0], [1]], [[1], []])
    assert two.edge_count == 1
    antichain = mm.build_dag(helpers.grades_of([(1, 0), (0, 1)]))
    assert antichain.edge_count == 0
    chain = mm.build_dag(helpers.grades_of([(0, 0), (1, 0), (1, 1)]))
    assert chain.above == [[1, 2], [2], []]
    assert chain.edge_count == 3
    # one class per grade, members ascending: 2 x 2 comparable pairs
    tied = mm.build_dag(helpers.grades_of([(1, 1), (0, 0), (1, 1), (0, 0)]))
    assert tied.members == [[1, 3], [0, 2]]
    assert tied.edge_count == 4


def test_kahn_chain_and_antichain():
    chain = mm.build_dag(helpers.grades_of([(0, 0), (1, 0), (1, 1)]))
    assert mm.topo_sort_kahn(chain) == [0, 1, 2]
    antichain = mm.build_dag(helpers.grades_of([(1, 0), (0, 1), (0.5, 0.5)]))
    assert mm.topo_sort_kahn(antichain) == [0, 1, 2]
    # respects edges even against vertex-id order
    rev = mm.build_dag(helpers.grades_of([(1, 1), (0, 0)]))
    assert mm.topo_sort_kahn(rev) == [1, 0]
    # ready vertices of different classes interleave by vertex id
    mixed = mm.build_dag(helpers.grades_of([(0, 1), (2, 2), (1, 0), (0, 1)]))
    assert mm.topo_sort_kahn(mixed) == [0, 3, 1, 2]


def test_lex_examples():
    assert mm.lex_indexing(helpers.grades_of([(1, 0), (0, 1)])) == [1, 0]
    assert mm.lex_indexing(helpers.grades_of([(2, 2), (2, 2), (2, 2)])) \
        == [0, 1, 2]
    assert mm.lex_indexing(helpers.grades_of([(1, 1), (1, 0)])) == [1, 0]


def test_validate_indexing():
    f = helpers.grades_of([(0, 0), (1, 0), (1, 1)])
    assert mm.validate_indexing(f, [0, 1, 2])
    assert not mm.validate_indexing(f, [2, 1, 0])
    assert not mm.validate_indexing(f, [0, 0, 1])
    assert not mm.validate_indexing(f, [0, 1])
    anti = helpers.grades_of([(1, 0), (0, 1), (0.5, 0.5)])
    assert mm.validate_indexing(anti, [2, 0, 1])


def _pairwise_succ(f):
    """Reference digraph: every ordered vertex pair tested directly."""
    n = len(f)
    return [[w for w in range(n) if u != w and mm.le_neq(f[u], f[w])]
            for u in range(n)]


def _reference_kahn(succ):
    """Kahn's algorithm on explicit successor lists, smallest vertex id
    first among the ready set: the vertex-level construction that
    topo_sort_kahn must reproduce."""
    n = len(succ)
    indeg = [0] * n
    for ws in succ:
        for w in ws:
            indeg[w] += 1
    ready = [u for u in range(n) if indeg[u] == 0]
    heapq.heapify(ready)
    index = [-1] * n
    placed = 0
    while ready:
        u = heapq.heappop(ready)
        index[u] = placed
        placed += 1
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    assert placed == n
    return index


def _pairwise_valid(f, index):
    n = len(f)
    if sorted(index) != list(range(n)):
        return False
    return all(index[u] < index[w]
               for u, ws in enumerate(_pairwise_succ(f)) for w in ws)


def _random_tied_grades(rng, n, k, levels):
    return mm.MeasuringFunction(
        [tuple(float(rng.randint(0, levels)) for _ in range(k))
         for _ in range(n)])


def test_both_constructions_validate_on_random_grades():
    rng = random.Random(20250823)
    for _ in range(200):
        f = _random_tied_grades(rng, rng.randint(1, 40), rng.randint(1, 3), 4)
        dag = mm.build_dag(f)
        succ = _pairwise_succ(f)
        assert dag.edge_count == sum(len(ws) for ws in succ)
        index = mm.topo_sort_kahn(dag)
        assert index == _reference_kahn(succ)
        assert mm.validate_indexing(f, mm.lex_indexing(f))
        assert mm.validate_indexing(f, index)


def test_validate_indexing_matches_pairwise_reference():
    rng = random.Random(4141)
    swapped = 0
    for _ in range(300):
        n = rng.randint(1, 30)
        f = _random_tied_grades(rng, n, rng.randint(1, 4), rng.randint(1, 3))
        lex = mm.lex_indexing(f)
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        candidates = [lex, mm.topo_sort_kahn(mm.build_dag(f)), shuffled,
                      lex[:-1], [0] * n]
        comparable = [(u, w) for u, ws in enumerate(_pairwise_succ(f))
                      for w in ws]
        if comparable:
            u, w = rng.choice(comparable)
            bad = list(lex)
            bad[u], bad[w] = bad[w], bad[u]
            assert not _pairwise_valid(f, bad)
            candidates.append(bad)
            swapped += 1
        for index in candidates:
            assert mm.validate_indexing(f, index) == _pairwise_valid(f, index)
    assert swapped > 200


def _chain_dag(n):
    """n one-vertex classes, each strictly below the next one only."""
    return ComparabilityDag([[i] for i in range(n)],
                            [[i + 1] if i + 1 < n else [] for i in range(n)])


def test_kahn_scales_linearly_on_chains():
    def best_time(n):
        dag = _chain_dag(n)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            mm.topo_sort_kahn(dag)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = best_time(30000), best_time(60000)
    # linear in vertices plus class edges; allow generous scheduling noise
    assert large < 6 * small + 0.02
