import time
from fractions import Fraction

import pytest

import multimorse as mm
from multimorse.rings import RingError


def test_gf2_arithmetic():
    r = mm.GF2
    assert r.add(1, 1) == 0
    assert r.mul(1, 1) == 1
    assert r.neg(1) == 1
    assert r.from_int(-3) == 1
    assert r.inv(1) == 1
    assert r.div(1, 1) == 1
    assert r.is_unit(1) and not r.is_unit(0)
    assert r.is_field


def test_gf5_inverse_table():
    r = mm.get_ring("z5")
    for a in range(1, 5):
        assert r.mul(a, r.inv(a)) == 1
    with pytest.raises(RingError):
        r.inv(0)


def test_rationals_exact():
    r = mm.RATIONALS
    third = r.div(r.one, r.from_int(3))
    assert third == Fraction(1, 3)
    assert r.add(third, third) == Fraction(2, 3)
    assert r.parse("3/2") == Fraction(3, 2)
    assert r.format(Fraction(-7, 4)) == "-7/4"
    assert r.is_unit(Fraction(5, 9)) and not r.is_unit(Fraction(0))
    with pytest.raises(RingError):
        r.div(r.one, r.zero)
    with pytest.raises(RingError, match="0 has no inverse in q"):
        r.inv(r.zero)


def test_integers_units_and_division():
    r = mm.INTEGERS
    assert r.is_unit(1) and r.is_unit(-1) and not r.is_unit(2)
    assert r.div(6, -3) == -2
    assert r.inv(-1) == -1
    with pytest.raises(RingError):
        r.div(5, 2)
    with pytest.raises(RingError):
        r.inv(3)
    assert not r.is_field
    assert r.parse("-4") == -4


def test_get_ring_names():
    assert mm.get_ring("z2") == mm.GF2
    assert mm.get_ring("q") == mm.RATIONALS
    assert mm.get_ring("z") == mm.INTEGERS
    assert mm.get_ring("Z3").p == 3
    # Q and Z equal every instance of their own class and nothing else
    assert mm.Rationals() == mm.RATIONALS and mm.Integers() == mm.INTEGERS
    assert mm.RATIONALS != mm.INTEGERS and mm.GF2 != mm.INTEGERS
    assert mm.INTEGERS != mm.RATIONALS and mm.INTEGERS != mm.GF2
    assert len({mm.Rationals(), mm.RATIONALS, mm.Integers(), mm.INTEGERS,
                mm.PrimeField(2), mm.GF2}) == 3
    for a, b in ((mm.Rationals(), mm.RATIONALS),
                 (mm.Integers(), mm.INTEGERS), (mm.PrimeField(2), mm.GF2)):
        assert hash(a) == hash(b)
    with pytest.raises(RingError):
        mm.get_ring("z4")
    with pytest.raises(RingError):
        mm.get_ring("gf7")


@pytest.mark.parametrize("name", ["z\u00b2", "z\u0663"])
def test_get_ring_refuses_non_ascii_digits(name):
    # "z²" once raised a bare ValueError from int(), and "z٣" gave z3
    with pytest.raises(RingError, match="^ring: unknown"):
        mm.get_ring(name)


def test_prime_field_normalization():
    r = mm.get_ring("z7")
    assert r.parse("-1") == 6
    assert r.name == "z7"
    assert r == mm.PrimeField(7)
    assert r != mm.GF2


def test_prime_moduli_small():
    for p in (2, 3, 5, 7, 11, 13, 97, 7919):
        assert mm.get_ring(f"z{p}").p == p
    for n in (0, 1, 4, 6, 9, 15, 91, 561, 2047, 7917):
        with pytest.raises(RingError, match="not prime"):
            mm.PrimeField(n)


def _timed_ring(name):
    start = time.perf_counter()
    try:
        return mm.get_ring(name)
    finally:
        assert time.perf_counter() - start < 1.0


def test_large_prime_moduli_answer_quickly():
    # trial division up to sqrt(p) would take hours on these
    assert _timed_ring("z1000000000000000003").p == 10**18 + 3
    with pytest.raises(RingError, match="not prime"):
        _timed_ring("z1000000000000000001")


def test_strong_pseudoprimes_refused():
    # each fools Miller-Rabin for a prefix of the fixed bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(RingError, match="not prime"):
            mm.PrimeField(n)


def test_modulus_beyond_exact_limit_refused():
    from multimorse.rings import _MR_LIMIT
    with pytest.raises(RingError, match=f"limit {_MR_LIMIT}"):
        mm.PrimeField(_MR_LIMIT)
    with pytest.raises(RingError, match="too large"):
        mm.get_ring(f"z{2**89 - 1}")


def _axpy_by_definition(ring, target, c, source):
    """target + c * source through the ring's add and mul, zeros dropped."""
    out = dict(target)
    for k, v in source.items():
        out[k] = ring.add(out.get(k, ring.zero), ring.mul(c, v))
    return {k: v for k, v in out.items() if v != ring.zero}


def test_axpy_matches_add_and_mul():
    import random
    rng = random.Random(5)
    rings = [mm.GF2, mm.get_ring("z5"), mm.RATIONALS, mm.INTEGERS]
    for ring in rings:
        def value():
            n = rng.choice([-3, -2, -1, 1, 2, 3])
            if ring == mm.RATIONALS:
                return Fraction(n, rng.choice([1, 2, 3]))
            return ring.from_int(n)

        cancels = 0
        for _ in range(200):
            target = {k: value() for k in rng.sample(range(8), 4)}
            target = {k: v for k, v in target.items() if v != ring.zero}
            source = {k: value() for k in rng.sample(range(8), 4)}
            source = {k: v for k, v in source.items() if v != ring.zero}
            c = value()
            if rng.random() < 0.5 and source and c != ring.zero:
                # make one entry cancel: target[k] = -c * source[k]
                k = next(iter(source))
                target[k] = ring.neg(ring.mul(c, source[k]))
            want = _axpy_by_definition(ring, target, c, source)
            before = dict(source)
            got = dict(target)
            ring.axpy(got, c, source)
            assert got == want, (ring, target, c, source)
            assert all(v != ring.zero for v in got.values())
            assert source == before  # source is a separate, unchanged dict
            cancels += any(k in target and k not in got for k in source)
        assert cancels >= 50, ring


def test_axpy_drops_cancelled_keys_and_ignores_zero_scale():
    for ring in (mm.GF2, mm.get_ring("z5"), mm.RATIONALS, mm.INTEGERS):
        one = ring.one
        target = {0: one, 1: one}
        ring.axpy(target, ring.neg(one), {1: one, 2: one})
        assert target == {0: one, 2: ring.neg(one)}
        assert 1 not in target
        target = {0: one}
        ring.axpy(target, ring.zero, {0: one, 3: one})
        assert target == {0: one}
    # over z2 an even scale is zero: nothing toggles
    target = {0: 1}
    mm.GF2.axpy(target, 2, {0: 1, 5: 1})
    assert target == {0: 1}
    target = {0: 1}
    mm.GF2.axpy(target, 3, {0: 1, 5: 1})
    assert target == {5: 1}
