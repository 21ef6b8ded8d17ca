"""Exact arithmetic on finitely generated abelian groups.

Groups are kept in primary (prime-power) canonical form: a free rank
together with a sorted multiset of cyclic factors Z/p^e.  The free part
may be tagged as free over Z or over the 2-local integers Z_(2); the tag
is purely formal and only affects printing and serialization.

>>> G = FgAbelianGroup.of_orders(2, 6)
>>> print(G)
Z/2 + Z/2 + Z/3
>>> G == FgAbelianGroup.of_orders(6, 2)
True
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import chain, repeat
from math import prod

RING_Z = "Z"
RING_Z2LOCAL = "Z_(2)"

# Input bound on cyclic orders (torsion factors, Moore-space orders): below
# it isprime is exact, so whether an order is a prime power is decided, not
# guessed.
MAX_FACTOR_ORDER = 2**64

# Miller-Rabin on the prime bases up to 37 has no strong pseudoprime below
# psi_12 (Sorenson and Webster, 2015), which lies above MAX_FACTOR_ORDER.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def isprime(n: int) -> bool:
    """Deterministic Miller-Rabin: exact below psi_12, and a ValueError
    from there on rather than a probable answer."""
    if n >= _PSI_12:
        raise ValueError(f"isprime is exact only below {_PSI_12}, got {n}")
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s  # n - 1 = d * 2**s with d odd
    return all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
               for a in _MR_BASES)


def iroot(k: int, e: int) -> int:
    """The integer part of the e-th root of k >= 1, exactly (Newton from above)."""
    x = 1 << -(-k.bit_length() // e)
    while (y := ((e - 1) * x + k // x ** (e - 1)) // e) < x:
        x = y
    return x


def perfect_power(k: int) -> tuple[int, int]:
    """``(root, e)`` with root**e == k >= 1 and e as large as possible, so
    that k is a prime power exactly when the root is prime."""
    for e in range(k.bit_length() - 1, 1, -1):
        root = iroot(k, e)
        if root**e == k:
            return root, e
    return k, 1


def factorint(n: int) -> dict[int, int]:
    """The factorization {prime: exponent} of n >= 1, primes ascending:
    trial division below 1024, then a prime-power test of the cofactor,
    whose prime factors all exceed those divided out.  Any other cofactor
    raises ValueError; src factors only 2-powers and Moore orders, which
    are prime powers."""
    factors: dict[int, int] = {}
    m = n
    for p in chain((2,), range(3, 1024, 2)):
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        root, e = perfect_power(m)
        if not isprime(root):
            raise ValueError(f"cannot factor {n}: the cofactor {m} is not a prime power")
        factors[root] = e
    return factors


def merge_counts(pairs: Iterable[tuple], key: Callable | None = None) -> tuple:
    """``(item, multiplicity)`` pairs merged into one pair per distinct
    item, zeros dropped, sorted by ``key`` of the pair (by the item when
    None); a negative multiplicity raises ValueError."""
    merged: dict = {}
    for x, k in pairs:
        if k < 0:
            raise ValueError(f"negative multiplicity {k} of {x}")
        merged[x] = merged.get(x, 0) + k
    return tuple(sorted([(x, k) for x, k in merged.items() if k], key=key))


class Validated:
    """Base of a namedtuple whose ``__new__`` validates.  namedtuple's own
    ``_make``, which ``_replace`` and ``copy.replace`` call, builds the
    tuple without ``__new__``; this one goes through the constructor, so
    that no path builds a record its constructor would reject."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CyclicFactor(Validated, namedtuple("CyclicFactor", "prime exponent")):
    """The cyclic group Z/prime**exponent; a tuple, so that the hashing,
    equality and order that every merge of factors runs on are builtin."""

    __slots__ = ()

    def __new__(cls, prime: int, exponent: int):
        if not isprime(prime):
            raise ValueError(f"prime must be prime, got {prime}")
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent}")
        return super().__new__(cls, prime, exponent)

    @property
    def order(self) -> int:
        return self.prime**self.exponent

    def __str__(self):
        return f"Z/{self.order}"


class FgAbelianGroup(Validated, namedtuple("FgAbelianGroup", "free_rank pairs free_ring")):
    """A finitely generated abelian group in primary canonical form.

    The torsion is held as ``pairs``, one ``(factor, multiplicity)`` per
    distinct factor, ascending, so that every operation costs what the
    distinct factors cost.  ``counts`` takes ``(factor, multiplicity)``
    pairs and merges repeated factors.  Equal canonical forms are equal
    groups:

    >>> FgAbelianGroup.of_orders(6) == FgAbelianGroup.of_orders(2, 3)
    True
    >>> FgAbelianGroup.of_orders(8) == FgAbelianGroup.of_orders(2, 4)
    False
    >>> FgAbelianGroup(counts=[(CyclicFactor(2, 1), 1)] * 3).pairs
    ((CyclicFactor(prime=2, exponent=1), 3),)
    """

    __slots__ = ()

    def __new__(cls, free_rank: int = 0, counts: Iterable[tuple[CyclicFactor, int]] = (),
                free_ring: str = RING_Z):
        if free_rank < 0:
            raise ValueError("free_rank must be non-negative")
        if free_ring not in (RING_Z, RING_Z2LOCAL):
            raise ValueError(f"unknown free ring tag {free_ring!r}")
        # The ring tag is meaningless without a free part.
        return tuple.__new__(cls, (free_rank, merge_counts(counts),
                                   free_ring if free_rank else RING_Z))

    @classmethod
    def of_orders(cls, *orders: int, free_ring: str = RING_Z) -> "FgAbelianGroup":
        """Build a group from cyclic orders, 0 standing for Z.

        >>> print(FgAbelianGroup.of_orders(0, 12, 5))
        Z + Z/4 + Z/3 + Z/5
        """
        rank = 0
        counts: list[tuple[CyclicFactor, int]] = []
        for k in map(abs, orders):
            if k == 0:
                rank += 1
            elif k > 1:
                counts += ((CyclicFactor(p, e), 1) for p, e in factorint(k).items())
        return cls(rank, counts, free_ring)

    # ----- basic queries ------------------------------------------------

    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.free_rank > 0:
            return None
        return prod(f.order**k for f, k in self.pairs)

    # ----- operations ---------------------------------------------------

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        """Canonical-form direct sum.

        >>> A = FgAbelianGroup.of_orders(2, 8)
        >>> print(A.direct_sum(FgAbelianGroup.of_orders(4)))
        Z/2 + Z/4 + Z/8
        """
        if self.free_rank and other.free_rank and self.free_ring != other.free_ring:
            raise ValueError("cannot sum free parts over different rings")
        ring = self.free_ring if self.free_rank else other.free_ring
        return FgAbelianGroup(self.free_rank + other.free_rank, self.pairs + other.pairs, ring)

    def times(self, k: int) -> "FgAbelianGroup":
        """The direct sum of k copies.

        >>> print(FgAbelianGroup.of_orders(0, 2).times(2))
        Z^2 + Z/2 + Z/2
        """
        return FgAbelianGroup(k * self.free_rank, ((f, k * m) for f, m in self.pairs),
                              self.free_ring)

    def two_primary(self) -> "FgAbelianGroup":
        """The 2-primary subgroup (free rank discarded).

        >>> print(FgAbelianGroup.of_orders(12, 5).two_primary())
        Z/4
        """
        return FgAbelianGroup(0, ((f, k) for f, k in self.pairs if f.prime == 2))

    def two_primary_exponents(self) -> tuple[int, ...]:
        """Sorted exponents r_1 <= ... <= r_n of the 2-primary factors."""
        return tuple(chain.from_iterable(
            repeat(f.exponent, k) for f, k in self.pairs if f.prime == 2))

    # ----- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "free_ring": self.free_ring,
            "torsion": [{"prime": f.prime, "exponent": f.exponent, "multiplicity": k}
                        for f, k in self.pairs],
        }

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append(self.free_ring)
        elif self.free_rank > 1:
            parts.append(f"{self.free_ring}^{self.free_rank}")
        for f, k in self.pairs:
            parts += [str(f)] * k
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = FgAbelianGroup()

