"""Exact arithmetic on finitely generated abelian groups.

Groups are kept in primary (prime-power) canonical form: a free rank
together with a sorted multiset of cyclic factors Z/p^e.  The free part
may be tagged as free over Z or over the 2-local integers Z_(2); the tag
is purely formal and only affects printing and serialization.

>>> G = smith_normal_form([[2, 4], [4, 2]])
>>> print(G)
Z/2 + Z/2 + Z/3
>>> G == FgAbelianGroup.of_orders(2, 6)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from sympy import factorint, isprime

RING_Z = "Z"
RING_Z2LOCAL = "Z_(2)"


class FactorAbsent(ValueError):
    """Requested cyclic factor does not occur in the group."""


class NotTorsion(ValueError):
    """A torsion group was required but the argument has free rank > 0."""


@dataclass(frozen=True, order=True)
class CyclicFactor:
    """The cyclic group Z/prime**exponent."""

    prime: int
    exponent: int

    def __post_init__(self):
        if not isprime(self.prime):
            raise ValueError(f"prime must be prime, got {self.prime}")
        if self.exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {self.exponent}")

    @property
    def order(self) -> int:
        return self.prime**self.exponent

    def __str__(self):
        return f"Z/{self.order}"


@dataclass(frozen=True)
class FgAbelianGroup:
    """A finitely generated abelian group in primary canonical form.

    Equality is equality of canonical forms, so e.g.

    >>> FgAbelianGroup.of_orders(6) == FgAbelianGroup.of_orders(2, 3)
    True
    >>> FgAbelianGroup.of_orders(8) == FgAbelianGroup.of_orders(2, 4)
    False
    """

    free_rank: int = 0
    torsion: tuple[CyclicFactor, ...] = ()
    free_ring: str = RING_Z

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free_rank must be non-negative")
        if self.free_ring not in (RING_Z, RING_Z2LOCAL):
            raise ValueError(f"unknown free ring tag {self.free_ring!r}")
        object.__setattr__(self, "torsion", tuple(sorted(self.torsion)))
        if self.free_rank == 0:
            # The ring tag is meaningless without a free part.
            object.__setattr__(self, "free_ring", RING_Z)

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "FgAbelianGroup":
        return cls()

    @classmethod
    def free(cls, rank: int, ring: str = RING_Z) -> "FgAbelianGroup":
        return cls(free_rank=rank, free_ring=ring)

    @classmethod
    def cyclic(cls, order: int) -> "FgAbelianGroup":
        """Z/order (order 0 means Z, order 1 means the trivial group)."""
        return cls.of_orders(order)

    @classmethod
    def of_orders(cls, *orders: int, free_ring: str = RING_Z) -> "FgAbelianGroup":
        """Build a group from cyclic orders, 0 standing for Z.

        >>> print(FgAbelianGroup.of_orders(0, 12, 5))
        Z + Z/4 + Z/3 + Z/5
        """
        rank = 0
        factors: list[CyclicFactor] = []
        for k in orders:
            k = abs(k)
            if k == 0:
                rank += 1
            elif k == 1:
                continue
            else:
                for p, e in factorint(k).items():
                    factors.append(CyclicFactor(int(p), int(e)))
        return cls(free_rank=rank, torsion=tuple(factors), free_ring=free_ring)

    # ----- basic queries ------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_torsion(self) -> bool:
        return self.free_rank == 0

    def torsion_order(self) -> int:
        out = 1
        for f in self.torsion:
            out *= f.order
        return out

    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.free_rank > 0:
            return None
        return self.torsion_order()

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
        return FgAbelianGroup(
            free_rank=self.free_rank + other.free_rank,
            torsion=self.torsion + other.torsion,
            free_ring=ring,
        )

    def times(self, k: int) -> "FgAbelianGroup":
        """The direct sum of k copies.

        >>> print(FgAbelianGroup.of_orders(0, 2).times(2))
        Z^2 + Z/2 + Z/2
        """
        return FgAbelianGroup(k * self.free_rank, k * self.torsion, self.free_ring)

    def two_primary(self) -> "FgAbelianGroup":
        """The 2-primary subgroup (free rank discarded).

        >>> print(FgAbelianGroup.of_orders(12, 5).two_primary())
        Z/4
        """
        return FgAbelianGroup(
            torsion=tuple(f for f in self.torsion if f.prime == 2)
        )

    def two_primary_exponents(self) -> tuple[int, ...]:
        """Sorted exponents r_1 <= ... <= r_n of the 2-primary factors."""
        return tuple(sorted(f.exponent for f in self.torsion if f.prime == 2))

    def odd_primary(self) -> "FgAbelianGroup":
        """The subgroup of torsion factors at odd primes."""
        return FgAbelianGroup(
            torsion=tuple(f for f in self.torsion if f.prime != 2)
        )

    def quotient_by_factor(self, factor: CyclicFactor) -> "FgAbelianGroup":
        """Drop one occurrence of a cyclic factor.

        >>> G = FgAbelianGroup.of_orders(2, 4)
        >>> print(G.quotient_by_factor(CyclicFactor(2, 2)))
        Z/2
        """
        factors = list(self.torsion)
        try:
            factors.remove(factor)
        except ValueError:
            raise FactorAbsent(f"{factor} does not occur in {self}") from None
        return FgAbelianGroup(self.free_rank, tuple(factors), self.free_ring)

    # ----- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        torsion = []
        seen: dict[CyclicFactor, int] = {}
        for f in self.torsion:
            seen[f] = seen.get(f, 0) + 1
        for f in sorted(seen):
            torsion.append(
                {"prime": f.prime, "exponent": f.exponent, "multiplicity": seen[f]}
            )
        return {
            "free_rank": self.free_rank,
            "free_ring": self.free_ring,
            "torsion": torsion,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FgAbelianGroup":
        factors: list[CyclicFactor] = []
        for item in data.get("torsion", ()):
            mult = item.get("multiplicity", 1)
            if mult < 1:
                raise ValueError("multiplicity must be >= 1")
            factors.extend([CyclicFactor(item["prime"], item["exponent"])] * mult)
        return cls(
            free_rank=data.get("free_rank", 0),
            torsion=tuple(factors),
            free_ring=data.get("free_ring", RING_Z),
        )

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append(self.free_ring)
        elif self.free_rank > 1:
            parts.append(f"{self.free_ring}^{self.free_rank}")
        parts.extend(str(f) for f in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = FgAbelianGroup.zero()


def direct_sum(*groups: FgAbelianGroup) -> FgAbelianGroup:
    out = ZERO_GROUP
    for g in groups:
        out = out.direct_sum(g)
    return out


def smith_normal_form(rows: Sequence[Sequence[int]]) -> FgAbelianGroup:
    """Cokernel of an integer matrix, in canonical form.

    Rows index generators and columns index relations, so an m x 0
    matrix presents Z^m and diag(d_1, ..., d_k) presents (+) Z/d_i.

    >>> print(smith_normal_form([[2, 0], [0, 0]]))
    Z + Z/2
    >>> print(smith_normal_form([[], [], []]))
    Z^3
    """
    matrix = [list(map(int, row)) for row in rows]
    n_gens = len(matrix)
    width = len(matrix[0]) if matrix else 0
    if any(len(row) != width for row in matrix):
        raise ValueError("ragged matrix")
    divisors = _diagonalize(matrix)
    orders = [d for d in divisors if d != 1]
    rank = n_gens - len(divisors)
    return FgAbelianGroup.of_orders(*([0] * rank + orders))


def _diagonalize(matrix: list[list[int]]) -> list[int]:
    """Diagonalize by row/column operations; return nonzero diagonal entries.

    Exact Python-int arithmetic; the divisibility chain is not enforced
    because the primary decomposition of the cokernel does not need it.
    """
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    divisors: list[int] = []
    top = 0
    while True:
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                if matrix[i][j] != 0:
                    if pivot is None or abs(matrix[i][j]) < abs(matrix[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        matrix[top], matrix[pi] = matrix[pi], matrix[top]
        for row in matrix:
            row[top], row[pj] = row[pj], row[top]
        # Clear the pivot row and column; restart if a remainder survives,
        # since it is strictly smaller than the pivot.
        while True:
            p = matrix[top][top]
            dirty = False
            for i in range(top + 1, m):
                q = matrix[i][top] // p
                if q:
                    for j in range(top, n):
                        matrix[i][j] -= q * matrix[top][j]
                if matrix[i][top]:
                    matrix[top], matrix[i] = matrix[i], matrix[top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, n):
                q = matrix[top][j] // p
                if q:
                    for i in range(top, m):
                        matrix[i][j] -= q * matrix[i][top]
                if matrix[top][j]:
                    for row in matrix:
                        row[top], row[j] = row[j], row[top]
                    dirty = True
                    break
            if not dirty:
                break
        divisors.append(abs(matrix[top][top]))
        top += 1
    return divisors
