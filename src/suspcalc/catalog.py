"""The dictionary of elementary complexes.

Covers spheres, mod-k Moore/Peterson spaces, the four two-stage eta-type
complexes C^{n+2}_eta, C^{n+2}_r, C^{n+2,t}, C^{n+2,t}_r and the three
three-stage complexes A^{n+3}(eta^2), A^{n+3}(eta~_r), A^{n+3}(2^r eta^2),
together with their integral homology, mod-2 cohomology operations
(Sq^2, higher Bocksteins, the secondary operation Theta, the Pontryagin
square on the two-cell model), the suspension operator, and the table of
homotopy / cohomotopy groups used by the matrix method and the EHP
bookkeeping.  All group values are 2-local: free summands are tagged
Z_(2) and odd-primary torsion maps to zero.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, repeat
from typing import Iterable, Iterator

from sympy import factorint

from .abelian import (
    RING_Z2LOCAL,
    CyclicFactor,
    FgAbelianGroup,
    NotTorsion,
)

SPHERE = "sphere"
MOORE = "moore"
CHANG_ETA = "chang_eta"
CHANG_R = "chang_r"
CHANG_T = "chang_t"
CHANG_RT = "chang_rt"
A_ETA2 = "a_eta2"
A_TILDE = "a_tilde"
A_2R_ETA2 = "a_2r_eta2"

# Order of kind tags inside one bottom dimension, for canonical sorting.
_KIND_ORDER = (
    SPHERE,
    MOORE,
    CHANG_ETA,
    CHANG_R,
    CHANG_T,
    CHANG_RT,
    A_ETA2,
    A_TILDE,
    A_2R_ETA2,
)


class TableMiss(KeyError):
    """The requested (source, target) pair is outside the stored tables."""


@dataclass(frozen=True)
class ElementaryComplex:
    """One catalog entry.

    ``n`` is the dimension parameter of the standard notation: the
    superscript for S^n and P^n(k), the bottom-cell dimension for the
    C^(n+2)- and A^(n+3)-families.  ``order`` is the Moore-space order,
    ``r`` and ``t`` the 2-power exponents of the eta-type families.
    """

    kind: str
    n: int
    order: int = 0
    r: int = 0
    t: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == SPHERE and self.n < 1:
            raise ValueError("sphere dimension must be >= 1")
        if self.kind == MOORE and (self.n < 2 or self.order < 2):
            raise ValueError("Moore space needs n >= 2 and order >= 2")
        if self.kind in (CHANG_ETA, CHANG_R, CHANG_T, CHANG_RT, A_ETA2, A_TILDE, A_2R_ETA2):
            if self.n < 2:
                raise ValueError(f"{self.kind} is only defined for bottom cell n >= 2")
        if self.kind in (CHANG_R, CHANG_RT, A_TILDE, A_2R_ETA2) and self.r < 1:
            raise ValueError("exponent r must be >= 1")
        if self.kind in (CHANG_T, CHANG_RT) and self.t < 1:
            raise ValueError("exponent t must be >= 1")

    # ----- dimensions ---------------------------------------------------

    @property
    def bottom_dim(self) -> int:
        if self.kind == SPHERE:
            return self.n
        if self.kind == MOORE:
            return self.n - 1
        return self.n

    @property
    def top_dim(self) -> int:
        if self.kind == SPHERE:
            return self.n
        if self.kind == MOORE:
            return self.n
        if self.kind in (CHANG_ETA, CHANG_R, CHANG_T, CHANG_RT):
            return self.n + 2
        return self.n + 3

    def sort_key(self):
        return (
            self.bottom_dim,
            _KIND_ORDER.index(self.kind),
            self.n,
            self.order,
            self.r,
            self.t,
        )

    # ----- suspension ---------------------------------------------------

    def suspend(self) -> "ElementaryComplex":
        return ElementaryComplex(self.kind, self.n + 1, self.order, self.r, self.t)

    def desuspend(self) -> "ElementaryComplex":
        return ElementaryComplex(self.kind, self.n - 1, self.order, self.r, self.t)

    # ----- notation -------------------------------------------------------

    @property
    def notation(self) -> str:
        if self.kind == SPHERE:
            return f"S^{self.n}"
        if self.kind == MOORE:
            return f"P^{self.n}({self.order})"
        if self.kind == CHANG_ETA:
            return f"C^{self.n + 2}_eta"
        if self.kind == CHANG_R:
            return f"C^{self.n + 2}_{self.r}"
        if self.kind == CHANG_T:
            return f"C^{{{self.n + 2},{self.t}}}"
        if self.kind == CHANG_RT:
            return f"C^{{{self.n + 2},{self.t}}}_{self.r}"
        if self.kind == A_ETA2:
            return f"A^{self.n + 3}(eta^2)"
        if self.kind == A_TILDE:
            return f"A^{self.n + 3}(eta~_{self.r})"
        return f"A^{self.n + 3}(2^{self.r} eta^2)"

    def __str__(self):
        return self.notation


def sphere(n: int) -> ElementaryComplex:
    return ElementaryComplex(SPHERE, n)


def moore(n: int, order: int) -> ElementaryComplex:
    """P^n(order) = S^(n-1) with an n-cell attached by the degree map."""
    return ElementaryComplex(MOORE, n, order=order)


def chang_eta(n: int) -> ElementaryComplex:
    """C^(n+2)_eta, the n-th suspension stage of the projective plane."""
    return ElementaryComplex(CHANG_ETA, n)


def chang_r(n: int, r: int) -> ElementaryComplex:
    """C^(n+2)_r = P^(n+1)(2^r) with an (n+2)-cell attached by i eta."""
    return ElementaryComplex(CHANG_R, n, r=r)


def chang_t(n: int, t: int) -> ElementaryComplex:
    return ElementaryComplex(CHANG_T, n, t=t)


def chang_rt(n: int, r: int, t: int) -> ElementaryComplex:
    return ElementaryComplex(CHANG_RT, n, r=r, t=t)


def a_eta2(n: int) -> ElementaryComplex:
    """A^(n+3)(eta^2) = S^n with an (n+3)-cell attached by eta^2."""
    return ElementaryComplex(A_ETA2, n)


def a_tilde(n: int, r: int) -> ElementaryComplex:
    """A^(n+3)(eta~_r) = P^(n+1)(2^r) with an (n+3)-cell attached by eta~_r."""
    return ElementaryComplex(A_TILDE, n, r=r)


def a_2r_eta2(n: int, r: int) -> ElementaryComplex:
    """A^(n+3)(2^r eta^2) = P^(n+1)(2^r) with an (n+3)-cell attached by i eta^2."""
    return ElementaryComplex(A_2R_ETA2, n, r=r)


class _Copies:
    """Per-copy view of a wedge's summands: each distinct summand repeated
    by its multiplicity, in canonical order."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: tuple[tuple[ElementaryComplex, int], ...]):
        self._pairs = pairs

    def __len__(self) -> int:
        return sum(k for _, k in self._pairs)

    def __iter__(self) -> Iterator[ElementaryComplex]:
        return chain.from_iterable(repeat(x, k) for x, k in self._pairs)


@dataclass(frozen=True, init=False)
class WedgeComplex:
    """A finite multiset of elementary complexes; empty means the point.

    It is held as ``pairs``: one ``(summand, multiplicity)`` pair per
    distinct summand, in canonical order, so that its size and the cost
    of every operation on it follow the number of distinct summands, not
    of copies.  ``WedgeComplex(summands)`` takes the summands copy by
    copy, ``counts`` takes ``(summand, multiplicity)`` pairs; both may be
    given and are merged.

    >>> w = WedgeComplex.of(sphere(3), moore(4, 2)).wedge(sphere(3))
    >>> len(w.pairs), w.count(sphere(3)), len(w.summands)
    (2, 2, 3)
    >>> print(w)
    S^3 v S^3 v P^4(2)
    """

    pairs: tuple[tuple[ElementaryComplex, int], ...]

    def __init__(
        self,
        summands: Iterable[ElementaryComplex] = (),
        counts: Iterable[tuple[ElementaryComplex, int]] = (),
    ):
        copies = Counter(summands).items() if summands else ()
        object.__setattr__(self, "pairs", (*copies, *counts))
        self.__post_init__()

    def __post_init__(self):
        merged: dict[ElementaryComplex, int] = {}
        for x, k in self.pairs:
            if k < 0:
                raise ValueError(f"negative multiplicity {k} of {x}")
            merged[x] = merged.get(x, 0) + k
        object.__setattr__(
            self,
            "pairs",
            tuple(sorted(((x, k) for x, k in merged.items() if k),
                         key=lambda pair: pair[0].sort_key())),
        )

    @classmethod
    def of(cls, *summands: ElementaryComplex) -> "WedgeComplex":
        return cls(summands)

    @classmethod
    def point(cls) -> "WedgeComplex":
        return cls()

    @property
    def summands(self) -> _Copies:
        return _Copies(self.pairs)

    @property
    def is_point(self) -> bool:
        return not self.pairs

    def wedge(self, other: "WedgeComplex | ElementaryComplex") -> "WedgeComplex":
        if isinstance(other, ElementaryComplex):
            return WedgeComplex(counts=(*self.pairs, (other, 1)))
        return WedgeComplex(counts=self.pairs + other.pairs)

    def suspend(self) -> "WedgeComplex":
        return WedgeComplex(counts=((x.suspend(), k) for x, k in self.pairs))

    def desuspend(self) -> "WedgeComplex":
        return WedgeComplex(counts=((x.desuspend(), k) for x, k in self.pairs))

    def count(self, summand: ElementaryComplex) -> int:
        return next((k for x, k in self.pairs if x == summand), 0)

    @property
    def notation(self) -> str:
        if not self.pairs:
            return "*"
        return " v ".join(" v ".join(repeat(x.notation, k)) for x, k in self.pairs)

    def __str__(self):
        return self.notation

    def __iter__(self):
        return iter(self.summands)


def _distinct(x: "ElementaryComplex | WedgeComplex") -> tuple[tuple[ElementaryComplex, int], ...]:
    """The ``(summand, multiplicity)`` pairs of a wedge or a single complex."""
    return ((x, 1),) if isinstance(x, ElementaryComplex) else x.pairs


def suspend(x: "WedgeComplex | ElementaryComplex"):
    return x.suspend()


# --------------------------------------------------------------------------
# notation parsing
# --------------------------------------------------------------------------

_PATTERNS = [
    (re.compile(r"^S\^(\d+)$"), lambda m: sphere(int(m[1]))),
    (re.compile(r"^P\^(\d+)\((\d+)\)$"), lambda m: moore(int(m[1]), int(m[2]))),
    (re.compile(r"^C\^(\d+)_eta$"), lambda m: chang_eta(int(m[1]) - 2)),
    (re.compile(r"^C\^(\d+)_(\d+)$"), lambda m: chang_r(int(m[1]) - 2, int(m[2]))),
    (re.compile(r"^C\^\{(\d+),(\d+)\}$"), lambda m: chang_t(int(m[1]) - 2, int(m[2]))),
    (
        re.compile(r"^C\^\{(\d+),(\d+)\}_(\d+)$"),
        lambda m: chang_rt(int(m[1]) - 2, int(m[3]), int(m[2])),
    ),
    (re.compile(r"^A\^(\d+)\(eta\^2\)$"), lambda m: a_eta2(int(m[1]) - 3)),
    (re.compile(r"^A\^(\d+)\(eta~_(\d+)\)$"), lambda m: a_tilde(int(m[1]) - 3, int(m[2]))),
    (
        re.compile(r"^A\^(\d+)\(2\^(\d+) eta\^2\)$"),
        lambda m: a_2r_eta2(int(m[1]) - 3, int(m[2])),
    ),
]


def parse_complex(text: str) -> ElementaryComplex:
    text = text.strip()
    for pattern, build in _PATTERNS:
        m = pattern.match(text)
        if m:
            return build(m)
    raise ValueError(f"cannot parse complex notation {text!r}")


def parse_wedge(text: str) -> WedgeComplex:
    text = text.strip()
    if text in ("*", ""):
        return WedgeComplex.point()
    return WedgeComplex(parse_complex(part) for part in text.split(" v "))


# --------------------------------------------------------------------------
# homology and the mod-2 operation tables
# --------------------------------------------------------------------------

@cache
def _homology_pairs(x: ElementaryComplex) -> tuple[tuple[int, FgAbelianGroup], ...]:
    """Reduced integral homology as (degree, group) pairs."""
    z = FgAbelianGroup.free(1)
    if x.kind == SPHERE:
        return ((x.n, z),)
    if x.kind == MOORE:
        return ((x.n - 1, FgAbelianGroup.cyclic(x.order)),)
    if x.kind == CHANG_ETA:
        return ((x.n, z), (x.n + 2, z))
    if x.kind == CHANG_R:
        return ((x.n, FgAbelianGroup.cyclic(2**x.r)), (x.n + 2, z))
    if x.kind == CHANG_T:
        return ((x.n, z), (x.n + 1, FgAbelianGroup.cyclic(2**x.t)))
    if x.kind == CHANG_RT:
        return (
            (x.n, FgAbelianGroup.cyclic(2**x.r)),
            (x.n + 1, FgAbelianGroup.cyclic(2**x.t)),
        )
    if x.kind == A_ETA2:
        return ((x.n, z), (x.n + 3, z))
    # A_TILDE and A_2R_ETA2 share the homology of a Moore space plus a top cell.
    return ((x.n, FgAbelianGroup.cyclic(2**x.r)), (x.n + 3, z))


def integral_homology(x: "ElementaryComplex | WedgeComplex", i: int) -> FgAbelianGroup:
    """Reduced integral homology in degree i, additive over wedges."""
    rank = 0
    torsion: list[CyclicFactor] = []
    for summand, k in _distinct(x):
        for degree, group in _homology_pairs(summand):
            if degree == i:
                rank += k * group.free_rank
                torsion.extend(k * group.torsion)
    return FgAbelianGroup(rank, tuple(torsion))


def _mod2_basis(x: ElementaryComplex, k: int) -> int:
    """dim H^k(X; Z/2), from integral homology by universal coefficients."""
    dim = 0
    for degree, group in _homology_pairs(x):
        two_torsion = len(group.two_primary_exponents())
        if degree == k:
            dim += group.free_rank + two_torsion
        if degree == k - 1:
            dim += two_torsion
    return dim


def mod2_cohomology_dim(x: "ElementaryComplex | WedgeComplex", k: int) -> int:
    return sum(mult * _mod2_basis(s, k) for s, mult in _distinct(x))


def _sq2_block(x: ElementaryComplex, k: int) -> list[list[int]]:
    """Matrix of Sq^2: H^k(X;Z/2) -> H^(k+2)(X;Z/2) for one summand.

    Sq^2 is an isomorphism from the bottom class of every C-family
    complex, and from the degree-(n+1) class of A^(n+3)(eta~_r); it
    vanishes on everything else in the catalog (in particular on
    A^(n+3)(2^r eta^2), whose attaching map dies under the pinch map).
    """
    rows = _mod2_basis(x, k + 2)
    cols = _mod2_basis(x, k)
    block = [[0] * cols for _ in range(rows)]
    if rows == 0 or cols == 0:
        return block
    iso = False
    if x.kind in (CHANG_ETA, CHANG_R, CHANG_T, CHANG_RT) and k == x.n:
        iso = True
    if x.kind == A_TILDE and k == x.n + 1:
        iso = True
    if iso:
        block[0][0] = 1
    return block


def sq2_action(x: ElementaryComplex, k: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of Sq^2: H^k(X;Z/2) -> H^(k+2)(X;Z/2) for one complex."""
    return tuple(tuple(row) for row in _sq2_block(x, k))


def sq2_is_nonzero(x: "ElementaryComplex | WedgeComplex", k: int) -> bool:
    """Whether Sq^2 acts nontrivially from degree k; on a wedge the
    matrix is block-diagonal, so some summand's block is nonzero."""
    return any(any(map(any, _sq2_block(s, k))) for s, _ in _distinct(x))


def theta_flag(x: "ElementaryComplex | WedgeComplex") -> bool:
    """Whether the secondary operation built on Sq^3 = Sq^1 Sq^2 acts
    nontrivially; true exactly for the eta^2-attached three-cell kinds."""
    return any(s.kind in (A_ETA2, A_2R_ETA2) for s, _ in _distinct(x))


def bockstein_profile(x: "ElementaryComplex | WedgeComplex") -> tuple[tuple[int, int], ...]:
    """The nontrivial higher Bocksteins as (r, source-dimension) pairs.

    Each Z/2^r summand of H_k contributes one beta_r from degree k to
    degree k+1 in mod-2 cohomology; free homology contributes none.
    """
    pairs = []
    for s, k in _distinct(x):
        for degree, group in _homology_pairs(s):
            for r in group.two_primary_exponents():
                pairs.extend(k * [(r, degree)])
    return tuple(sorted(pairs, key=lambda p: (p[1], p[0])))


def pontryagin_square_Ct(t: int, u: int, multiple: int = 1) -> int:
    """Pontryagin square on the two-cell model C(t).

    C(t) is the cofiber of t times (i eta) on a mod-2^r Moore space of
    dimension 3; its square sends the degree-2 class x to t*y in
    Z/2^(u+1) for any coefficient exponent u >= r, and a multiple a*x to
    a^2*t*y by quadraticity.
    """
    if u < 1:
        raise ValueError("coefficient exponent u must be >= 1")
    modulus = 2 ** (u + 1)
    return (multiple * multiple * t) % modulus


def _pontryagin_coeff(x: ElementaryComplex) -> int | None:
    """Coefficient of the Pontryagin square on the degree-2 class, where
    the catalog pins it down (bottom cell 2 with a 4-cell attached by an
    eta-type map, i.e. the C(t != 0) models)."""
    if x.kind == CHANG_ETA and x.n == 2:
        return 1
    if x.kind == CHANG_R and x.n == 2:
        return 1
    return None


@dataclass(frozen=True)
class OperationProfile:
    """Mod-2 cohomology dimensions and operation data of one catalog entry."""

    complex: ElementaryComplex
    mod2_dims: tuple[tuple[int, int], ...]  # (degree, dim), nonzero only
    sq2: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]  # nonzero blocks
    bocksteins: tuple[tuple[int, int], ...]
    theta: bool
    pontryagin: int | None

    def to_json_dict(self) -> dict:
        return {
            "complex": self.complex.notation,
            "mod2_dims": {str(k): d for k, d in self.mod2_dims},
            "sq2": {str(k): [list(row) for row in m] for k, m in self.sq2},
            "bocksteins": [list(p) for p in self.bocksteins],
            "theta": self.theta,
            "pontryagin": self.pontryagin,
        }


def operation_profile(x: ElementaryComplex) -> OperationProfile:
    degrees = range(max(0, x.bottom_dim - 1), x.top_dim + 2)
    dims = tuple((k, _mod2_basis(x, k)) for k in degrees if _mod2_basis(x, k))
    sq2 = []
    for k, _ in dims:
        matrix = sq2_action(x, k)
        if any(any(row) for row in matrix):
            sq2.append((k, matrix))
    return OperationProfile(
        complex=x,
        mod2_dims=dims,
        sq2=tuple(sq2),
        bocksteins=bockstein_profile(x),
        theta=theta_flag(x),
        pontryagin=_pontryagin_coeff(x),
    )


# --------------------------------------------------------------------------
# Peterson wedges
# --------------------------------------------------------------------------

def peterson_of_group(n: int, group: FgAbelianGroup) -> WedgeComplex:
    """P^n(G) for torsion G, split into one Moore space per primary factor."""
    if group.free_rank:
        raise NotTorsion(f"{group} has free rank {group.free_rank}")
    counts = Counter(group.torsion)
    return WedgeComplex(counts=((moore(n, f.order), k) for f, k in counts.items()))


# --------------------------------------------------------------------------
# the homotopy / cohomotopy group table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MapsGroupEntry:
    """[source, target] with its generator alphabet.

    ``generators`` and ``orders`` align positionally; order 0 marks a
    Z_(2) summand.  The canonical-form group is recoverable but the
    presentation order follows the generator list.
    """

    source: ElementaryComplex
    target: ElementaryComplex
    generators: tuple[str, ...]
    orders: tuple[int, ...]

    @property
    def group(self) -> FgAbelianGroup:
        return FgAbelianGroup.of_orders(*self.orders, free_ring=RING_Z2LOCAL)

    @property
    def is_trivial(self) -> bool:
        return not self.generators

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.notation,
            "target": self.target.notation,
            "group": self.group.to_json_dict(),
            "generators": list(self.generators),
            "orders": list(self.orders),
        }


def _entry(source, target, generators=(), orders=()) -> MapsGroupEntry:
    return MapsGroupEntry(source, target, tuple(generators), tuple(orders))


def _is_two_power(k: int) -> bool:
    return k >= 2 and (k & (k - 1)) == 0


def _odd_prime_power(k: int) -> bool:
    factors = factorint(k)
    return len(factors) == 1 and 2 not in factors


def maps_group(source: ElementaryComplex, target: ElementaryComplex) -> MapsGroupEntry:
    """The tabulated group [source, target], 2-locally.

    Raises TableMiss for pairs the tables do not determine.
    """
    # Maps out of a complex into a sphere above its dimension vanish.
    if target.kind == SPHERE and source.top_dim < target.n:
        return _entry(source, target)
    if target.kind == MOORE and source.kind == SPHERE and source.n < target.n - 1:
        return _entry(source, target)

    if source.kind == SPHERE and target.kind == SPHERE:
        k, n = source.n, target.n
        if n >= 3:
            if k == n:
                return _entry(source, target, ["iota"], [0])
            if k == n + 1:
                return _entry(source, target, ["eta"], [2])
            if k == n + 2:
                return _entry(source, target, ["eta^2"], [2])
            if k == n + 3 and n == 3:
                return _entry(source, target, ["nu'"], [4])
        raise TableMiss(f"[{source}, {target}]")

    if source.kind == SPHERE and target.kind == MOORE:
        k, nM, order = source.n, target.n, target.order
        if _odd_prime_power(order):
            if k == nM - 1:
                return _entry(source, target, [f"i_{nM - 1}"], [order])
            if k in (nM, nM + 1) and nM >= 3:
                return _entry(source, target)
            raise TableMiss(f"[{source}, {target}]")
        if not _is_two_power(order):
            raise TableMiss(f"[{source}, {target}]")
        r = order.bit_length() - 1
        if k == nM - 1:
            return _entry(source, target, [f"i_{nM - 1}"], [2**r])
        if k == nM and nM == 3:
            return _entry(source, target, ["i_2 eta"], [2 ** (r + 1)])
        if k == nM and nM >= 4:
            return _entry(source, target, [f"i_{nM - 1} eta"], [2])
        if k == nM + 1 and nM >= 3:
            if r == 1:
                return _entry(source, target, ["eta~_1"], [4])
            return _entry(source, target, [f"eta~_{r}", f"i_{nM - 1} eta^2"], [2, 2])
        raise TableMiss(f"[{source}, {target}]")

    if source.kind == MOORE and target.kind == SPHERE:
        nM, order, n = source.n, source.order, target.n
        if _odd_prime_power(order):
            return _entry(source, target)
        if not _is_two_power(order):
            raise TableMiss(f"[{source}, {target}]")
        r = order.bit_length() - 1
        if nM == n and n >= 3:
            return _entry(source, target, [f"q_{n}"], [2**r])
        if nM == n + 1 and n >= 3:
            return _entry(source, target, [f"eta q_{nM}"], [2])
        if nM == n + 2 and n >= 3:
            if r == 1:
                return _entry(source, target, ["eta-_1"], [4])
            return _entry(source, target, [f"eta-_{r}", f"eta^2 q_{nM}"], [2, 2])
        raise TableMiss(f"[{source}, {target}]")

    if source.kind == CHANG_ETA and target.kind == SPHERE:
        nC, n = source.n, target.n
        if (nC, n) == (2, 2):
            return _entry(source, target)
        if (nC, n) == (3, 3):
            return _entry(source, target, ["zeta-"], [0])
        if (nC, n) == (3, 5):
            return _entry(source, target, ["q_5"], [0])
        if (nC, n) == (4, 5):
            return _entry(source, target)
        raise TableMiss(f"[{source}, {target}]")

    if source.kind == CHANG_R and target.kind == SPHERE:
        nC, n, r = source.n, target.n, source.r
        if (nC, n) == (2, 2):
            return _entry(source, target, ["eta q_3"], [2 ** (r + 1)])
        if (nC, n) == (3, 3):
            return _entry(source, target, ["eta q_4"], [2])
        if (nC, n) == (3, 5):
            return _entry(source, target, ["q_5"], [0])
        if (nC, n) == (4, 5):
            return _entry(source, target, ["q_5"], [2 ** (r + 1)])
        raise TableMiss(f"[{source}, {target}]")

    if source.kind == A_2R_ETA2 and target.kind == SPHERE:
        nA, n, r = source.n, target.n, source.r
        if (nA, n) == (2, 3):
            return _entry(source, target, ["q_3"], [2 ** (r + 1)])
        if (nA, n) == (2, 4):
            return _entry(source, target, ["eta q_5"], [2])
        if (nA, n) == (2, 5):
            return _entry(source, target, ["q_5"], [0])
        if (nA, n) == (3, 3):
            return _entry(source, target, ["nu' q_6"], [2])
        if (nA, n) == (3, 5):
            return _entry(source, target, ["eta q_6"], [2])
        raise TableMiss(f"[{source}, {target}]")

    if source.kind == A_TILDE and target.kind == SPHERE:
        nA, n, r = source.n, target.n, source.r
        if (nA, n) == (2, 3):
            if r == 1:
                return _entry(source, target)
            return _entry(source, target, ["2 q_3"], [2 ** (r - 1)])
        if (nA, n) == (2, 5):
            return _entry(source, target, ["q_5"], [0])
        if (nA, n) == (3, 5):
            return _entry(source, target)
        raise TableMiss(f"[{source}, {target}]")

    if source.kind == A_ETA2 and target.kind == SPHERE:
        nA, n = source.n, target.n
        if (nA, n) == (2, 3):
            return _entry(source, target)
        if (nA, n) == (3, 3):
            return _entry(source, target, ["nu' q_6", "xi"], [2, 0])
        if (nA, n) == (2, 5):
            return _entry(source, target, ["q_5"], [0])
        if (nA, n) == (3, 5):
            return _entry(source, target, ["eta q_6"], [2])
        raise TableMiss(f"[{source}, {target}]")

    raise TableMiss(f"[{source}, {target}]")
