import time
from fractions import Fraction

import pytest

import multimorse as mm
from multimorse.rings import RingError


def test_gf2_arithmetic():
    r = mm.GF2
    assert r.add(1, 1) == 0
    assert r.sub(0, 1) == 1
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
    with pytest.raises(RingError):
        mm.get_ring("z4")
    with pytest.raises(RingError):
        mm.get_ring("gf7")


def test_prime_field_normalization():
    r = mm.get_ring("z7")
    assert r.parse("-1") == 6
    assert r.sub(2, 5) == 4
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
