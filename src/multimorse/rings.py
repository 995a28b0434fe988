"""Exact coefficient arithmetic for chain complexes.

Supported rings: Z/p for a prime p (z2 is the default everywhere), the
rationals, and the integers. All arithmetic is exact; floats never enter
coefficient math. Values are plain hashable Python objects (int for Z/p
and Z, Fraction for Q); the ring object supplies the operations.
"""

from __future__ import annotations

from fractions import Fraction


class RingError(ValueError):
    """Raised for impossible coefficient operations (inexact division,
    inverting a non-unit) and for ring mismatches between objects."""


class CoefficientRing:
    """Common interface of the supported coefficient rings. Addition and
    multiplication default to Python's own operators, which Z and Q use
    as they are."""

    name = "?"
    is_field = False
    zero: object = 0
    one: object = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def axpy(self, target: dict, c, source: dict) -> None:
        """target += c * source on sparse vectors (dicts key -> value),
        in place, dropping the entries that cancel to zero. source must
        be a different dict from target; it is left unchanged."""
        get, zero = target.get, self.zero
        for k, v in source.items():
            nv = get(k, zero) + c * v
            if nv:
                target[k] = nv
            else:
                target.pop(k, None)

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        """Multiplicative inverse of a unit."""
        raise NotImplementedError

    def div(self, a, b):
        """Exact quotient a / b; raises RingError when it does not exist."""
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    # a ring with no parameter equals any instance of its own class
    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return f"<ring {self.name}>"


# Miller-Rabin with these bases is exact for every n below the limit
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality test; raises RingError for moduli at or
    above _MR_LIMIT, where the fixed bases no longer decide."""
    if p < 2:
        return False
    if p >= _MR_LIMIT:
        raise RingError(
            f"ring: modulus {p} is too large (limit {_MR_LIMIT})")
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField(CoefficientRing):
    """Z/p for a prime p. Values are ints normalized to [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise RingError(f"ring: modulus {p} is not prime")
        self.p = p
        self.name = f"z{p}"

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def axpy(self, target: dict, c, source: dict) -> None:
        p = self.p
        if p == 2:  # every nonzero value is 1: c * source toggles keys
            if c % 2:
                for k in source:
                    if k in target:
                        del target[k]
                    else:
                        target[k] = 1
            return
        get = target.get
        for k, v in source.items():
            nv = (get(k, 0) + c * v) % p
            if nv:
                target[k] = nv
            else:
                target.pop(k, None)

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise RingError(f"ring: 0 has no inverse in {self.name}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def from_int(self, n: int):
        return n % self.p

    def parse(self, text: str):
        return int(text) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


class Rationals(CoefficientRing):
    """Q with Fraction values; parse/format use the p/q form."""

    name = "q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def is_unit(self, a) -> bool:
        return a != 0

    def inv(self, a):
        if a == 0:
            raise RingError("ring: 0 has no inverse in q")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise RingError("ring: division by zero in q")
        return Fraction(a) / b

    def from_int(self, n: int):
        return Fraction(n)

    def parse(self, text: str):
        return Fraction(text)


class Integers(CoefficientRing):
    """Z; only +1 and -1 are units, division must be exact."""

    name = "z"

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def inv(self, a):
        if a not in (1, -1):
            raise RingError(f"ring: {a} is not a unit in z")
        return a

    def div(self, a, b):
        if b == 0 or a % b != 0:
            raise RingError(f"ring: {a}/{b} is not exact in z")
        return a // b

    def from_int(self, n: int):
        return n

    def parse(self, text: str):
        return int(text)


GF2 = PrimeField(2)
RATIONALS = Rationals()
INTEGERS = Integers()

_NAMED = {"q": RATIONALS, "z": INTEGERS, "z2": GF2}


def get_ring(name: str) -> CoefficientRing:
    """Look up a ring by its command-line name: z2, z3, ... zp, q, or z."""
    key = name.strip().lower()
    if key in _NAMED:
        return _NAMED[key]
    digits = key[1:]
    # isdigit alone admits "²", which int refuses, and "٣", which it reads
    if key.startswith("z") and digits.isascii() and digits.isdigit():
        return PrimeField(int(digits))
    raise RingError(f"ring: unknown coefficient ring {name!r}")
