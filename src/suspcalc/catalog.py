"""The dictionary of elementary complexes.

Covers spheres, Moore spaces P^n(p^e), the four two-stage eta-type
complexes C^{n+2}_eta, C^{n+2}_r, C^{n+2,t}, C^{n+2,t}_r and the three
three-stage complexes A^{n+3}(eta^2), A^{n+3}(eta~_r), A^{n+3}(2^r eta^2),
together with their integral homology, mod-2 cohomology operations
(Sq^2, higher Bocksteins, the secondary operation Theta, the Pontryagin
square on the two-cell model), the suspension operator, and the table of
homotopy / cohomotopy groups used by the matrix method and the EHP
bookkeeping.  A Moore order is a prime power, as in the paper's one
P^n(p^r) per cyclic primary summand of the torsion (a Peterson space
P^n(G) is their wedge): every constructor rejects any other order.  Maps
groups are 2-local (free summands tagged Z_(2)), so every map into or out
of P^n(p^e) for odd p is zero.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache, cached_property, lru_cache
from itertools import chain, product, repeat
from string import Formatter

from .abelian import (
    MAX_FACTOR_ORDER,
    RING_Z2LOCAL,
    ZERO_GROUP,
    CyclicFactor,
    FgAbelianGroup,
    isprime,
    merge_counts,
    perfect_power,
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

# The least value of each parameter a kind may require.
_LEAST = {"order": 2, "r": 1, "t": 1}
# The order each parameter stands for, kept below MAX_FACTOR_ORDER = 2**64
# like a torsion order: (its spelling, the bound on the parameter).
_BITS = MAX_FACTOR_ORDER.bit_length() - 1
_BOUND = {"order": ("order", MAX_FACTOR_ORDER), "r": ("2**r", _BITS), "t": ("2**t", _BITS)}


class _Kind(namedtuple("_Kind", "notation least_n homology family sq2 theta pontryagin",
                       defaults=(None, False, False))):
    """Every fact of one kind of elementary complex, relative to ``n``.

    ``notation`` is a ``str.format`` template over ``n``, ``top`` (the top
    dimension), ``order``, ``r`` and ``t``; the parameters it names besides
    ``n`` and ``top`` are the ones the kind requires.  ``homology`` is the
    reduced integral homology of the minimal cell structure as
    ``(degree offset, order)`` pairs, the order being ``"Z"`` or the
    parameter that gives the degree of the cell above (``order``, or
    ``r``/``t`` for 2^r/2^t): every cellular chain complex in the catalog
    splits into free cells and such pairs, so nothing needs diagonalizing.
    ``sq2`` is the degree offset where Sq^2 is an isomorphism (it vanishes
    everywhere else), ``theta`` whether the secondary operation on Sq^3
    acts, and ``pontryagin`` whether the n = 2 member pins down the
    Pontryagin square (coefficient 1).

    The properties below are derived from those fields on first read and
    kept, so that no ElementaryComplex call recomputes them; ``pattern``,
    which only ``parse_complex`` reads, is compiled then and not at import.
    """

    @cached_property
    def _parts(self) -> list[tuple]:
        return list(Formatter().parse(self.notation))  # (literal, field or None, ...)

    @cached_property
    def params(self) -> tuple[str, ...]:
        return tuple(p for p in _LEAST if any(f == p for _, f, _, _ in self._parts))

    @cached_property
    def unused(self) -> tuple[str, ...]:
        return tuple(p for p in _LEAST if p not in self.params)

    @cached_property
    def bottom(self) -> int:
        return min(offset for offset, _ in self.homology)

    @cached_property
    def top(self) -> int:
        return max(offset + (order != "Z") for offset, order in self.homology)

    @cached_property
    def pattern(self) -> re.Pattern:
        return re.compile("".join(
            re.escape(text) + (rf"(?P<{f}>\d+)" if f else "") for text, f, _, _ in self._parts),
            re.ASCII)  # \d is 0-9 alone, not every digit int() reads


# One row per kind, in the canonical order of kinds within a bottom dimension
# (Chang 1950; Baues, Homotopy Type and Homology, 1996).
_KINDS = {
    SPHERE: _Kind("S^{n}", 1, ((0, "Z"),), "sphere"),
    MOORE: _Kind("P^{n}({order})", 2, ((-1, "order"),), "moore"),
    CHANG_ETA: _Kind("C^{top}_eta", 2, ((0, "Z"), (2, "Z")), "chang", sq2=0, pontryagin=True),
    CHANG_R: _Kind("C^{top}_{r}", 2, ((0, "r"), (2, "Z")), "chang", sq2=0, pontryagin=True),
    CHANG_T: _Kind("C^{{{top},{t}}}", 2, ((0, "Z"), (1, "t")), "chang", sq2=0),
    CHANG_RT: _Kind("C^{{{top},{t}}}_{r}", 2, ((0, "r"), (1, "t")), "chang", sq2=0),
    A_ETA2: _Kind("A^{top}(eta^2)", 2, ((0, "Z"), (3, "Z")), "a3", theta=True),
    A_TILDE: _Kind("A^{top}(eta~_{r})", 2, ((0, "r"), (3, "Z")), "a3", sq2=1),
    A_2R_ETA2: _Kind("A^{top}(2^{r} eta^2)", 2, ((0, "r"), (3, "Z")), "a3", theta=True),
}
_RANK = {kind: i for i, kind in enumerate(_KINDS)}

# The --filter choices of the tables dump, in kind order.
FAMILIES = tuple(dict.fromkeys(row.family for row in _KINDS.values()))


class TableMiss(KeyError):
    """The requested (source, target) pair is outside the stored tables."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr


class _Frozen:
    """Base of a slotted class whose fields, named by ``_fields``, are set
    once by ``object.__setattr__`` as it is built: assigning or deleting
    an attribute afterwards raises, and the repr names every field."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ElementaryComplex(_Frozen):
    """One catalog entry.

    ``n`` is the dimension parameter of the standard notation: the
    superscript for S^n and P^n(k), the bottom-cell dimension for the
    C^(n+2)- and A^(n+3)-families.  ``order`` is the Moore-space order,
    ``r`` and ``t`` the 2-power exponents of the eta-type families.

    Every entry is interned: ``ElementaryComplex(...)``, the named
    constructors, ``suspend``/``desuspend`` and ``parse_complex`` all
    return the one object with its fields (``_interned``), so complexes
    compare and hash by identity (``is`` finds a summand in a wedge) and
    every cache keyed by them hits by identity.  Its sort key and its
    notation (the kind's template, filled in) are set once, as it is built.
    """

    # sort_key and notation are kept, not fields: every wedge sorts its
    # summands by the one and prints them by the other.
    __slots__ = ("kind", "n", "order", "r", "t", "sort_key", "notation")
    _fields = ("kind", "n", "order", "r", "t")

    def __new__(cls, kind: str, n: int, order: int = 0, r: int = 0, t: int = 0):
        return _interned(kind, n, order, r, t)

    def __reduce__(self):  # a copy or an unpickled complex is the interned one too
        return ElementaryComplex, (self.kind, self.n, self.order, self.r, self.t)

    # ----- dimensions ---------------------------------------------------

    @property
    def bottom_dim(self) -> int:
        return self.n + _KINDS[self.kind].bottom

    @property
    def top_dim(self) -> int:
        return self.n + _KINDS[self.kind].top

    @property
    def family(self) -> str:
        return _KINDS[self.kind].family

    # ----- suspension ---------------------------------------------------

    def suspend(self) -> "ElementaryComplex":
        return _interned(self.kind, self.n + 1, self.order, self.r, self.t)

    def desuspend(self) -> "ElementaryComplex":
        return _interned(self.kind, self.n - 1, self.order, self.r, self.t)

    # ----- notation -------------------------------------------------------

    def __str__(self):
        return self.notation


@lru_cache(maxsize=None, typed=True)  # typed: n = 3.0 or True must not hit n = 3
def _interned(kind: str, n: int, order: int, r: int, t: int) -> ElementaryComplex:
    """The one ``ElementaryComplex`` with these fields, built on the first
    call.  Invalid fields raise on every call: a raising call caches nothing."""
    row = _KINDS.get(kind) if type(kind) is str else None
    if row is None:
        raise ValueError(f"unknown kind {kind!r}")
    values = {"n": n, "order": order, "r": r, "t": t}
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{kind} needs an int {name}, not {value!r}")
    if n < row.least_n:
        raise ValueError(f"{kind} needs n >= {row.least_n}")
    for name in row.params:
        if values[name] < _LEAST[name]:
            raise ValueError(f"{kind} needs {name} >= {_LEAST[name]}")
    for name in row.unused:
        if values[name]:
            raise ValueError(f"{kind} takes no {name}")
    for name in row.params:
        spelling, bound = _BOUND[name]
        if values[name] >= bound:
            raise ValueError(f"{kind} needs {spelling} below 2**{_BITS}")
    if "order" in row.params and not isprime(perfect_power(order)[0]):
        raise ValueError(f"{kind} needs a prime-power order, not {order}")
    x = object.__new__(ElementaryComplex)
    for name, value in (("kind", kind), *values.items(),
                        ("sort_key", (n + row.bottom, _RANK[kind], n, order, r, t)),
                        ("notation", row.notation.format(top=n + row.top, **values))):
        object.__setattr__(x, name, value)
    return x


def sphere(n: int) -> ElementaryComplex:
    return _interned(SPHERE, n, 0, 0, 0)


def moore(n: int, order: int) -> ElementaryComplex:
    """P^n(order) = S^(n-1) with an n-cell attached by the degree map, for
    a prime-power order."""
    return _interned(MOORE, n, order, 0, 0)


def chang_eta(n: int) -> ElementaryComplex:
    """C^(n+2)_eta, the n-th suspension stage of the projective plane."""
    return _interned(CHANG_ETA, n, 0, 0, 0)


def chang_r(n: int, r: int) -> ElementaryComplex:
    """C^(n+2)_r = P^(n+1)(2^r) with an (n+2)-cell attached by i eta."""
    return _interned(CHANG_R, n, 0, r, 0)


def chang_t(n: int, t: int) -> ElementaryComplex:
    return _interned(CHANG_T, n, 0, 0, t)


def chang_rt(n: int, r: int, t: int) -> ElementaryComplex:
    return _interned(CHANG_RT, n, 0, r, t)


def a_eta2(n: int) -> ElementaryComplex:
    """A^(n+3)(eta^2) = S^n with an (n+3)-cell attached by eta^2."""
    return _interned(A_ETA2, n, 0, 0, 0)


def a_tilde(n: int, r: int) -> ElementaryComplex:
    """A^(n+3)(eta~_r) = P^(n+1)(2^r) with an (n+3)-cell attached by eta~_r."""
    return _interned(A_TILDE, n, 0, r, 0)


def a_2r_eta2(n: int, r: int) -> ElementaryComplex:
    """A^(n+3)(2^r eta^2) = P^(n+1)(2^r) with an (n+3)-cell attached by i eta^2."""
    return _interned(A_2R_ETA2, n, 0, r, 0)


def of_kind(kind: str, n: int, r: int) -> ElementaryComplex:
    """The ``kind`` complex at ``n`` with each parameter the kind takes at
    r, a Moore order at 2^r: one window over r for every kind."""
    params = _KINDS[kind].params
    value = {"order": 2**r, "r": r, "t": r}
    return _interned(kind, n, *(value[name] if name in params else 0 for name in _LEAST))


class Notation(str):
    """Text of the notation grammar alone: ``_KINDS`` templates filled
    with plain ints and joined by ``" v "``, the point ``"*"``, and W4's
    ``" v C_{g2}"`` suffix.  None of its characters is one that JSON
    escapes (no quote, backslash, control or non-ASCII character), so
    ``cli._write_json`` writes it between quotes as it is.

    Never wrap user text in it, nor a value that an in-process parser
    reads back: ``classifier.json_value`` takes a str only when its type
    is exactly ``str``.
    """

    __slots__ = ()


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


class WedgeComplex(_Frozen):
    """A finite multiset of elementary complexes; empty means the point.

    It is held as ``pairs``: one ``(summand, multiplicity)`` pair per
    distinct summand, in canonical order, so that its size and the cost
    of every operation on it follow the number of distinct summands, not
    of copies.  ``WedgeComplex(summands)`` takes the summands copy by
    copy, ``counts`` takes ``(summand, multiplicity)`` pairs; both may be
    given and are merged.

    >>> w = WedgeComplex((sphere(3), moore(4, 2))).wedge(sphere(3))
    >>> len(w.pairs), dict(w.pairs)[sphere(3)], len(w.summands)
    (2, 2, 3)
    >>> print(w)
    S^3 v S^3 v P^4(2)
    """

    __slots__ = ("pairs",)
    _fields = ("pairs",)

    def __init__(
        self,
        summands: Iterable[ElementaryComplex] = (),
        counts: Iterable[tuple[ElementaryComplex, int]] = (),
    ):
        object.__setattr__(self, "pairs", (*zip(summands, repeat(1)), *counts))
        self.__post_init__()

    # The merge and sort of the pairs given: a method of its own, which
    # perfbench/tracing.py wraps to count the summands sorted.
    def __post_init__(self):
        object.__setattr__(self, "pairs",
                           merge_counts(self.pairs, lambda pair: pair[0].sort_key))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __reduce__(self):
        return type(self), ((), self.pairs)

    @classmethod
    def _of_canonical(cls, pairs: tuple[tuple[ElementaryComplex, int], ...]) -> "WedgeComplex":
        """The wedge of ``pairs`` that are merged and in canonical order already."""
        w = object.__new__(cls)
        object.__setattr__(w, "pairs", pairs)
        return w

    @property
    def summands(self) -> _Copies:
        return _Copies(self.pairs)

    def wedge(self, other: "WedgeComplex | ElementaryComplex") -> "WedgeComplex":
        if isinstance(other, ElementaryComplex):
            return WedgeComplex(counts=(*self.pairs, (other, 1)))
        return WedgeComplex(counts=self.pairs + other.pairs)

    # Shifting n by one shifts the leading bottom_dim of every sort_key
    # alike and merges no two summands, so the pairs keep their order.
    def suspend(self) -> "WedgeComplex":
        return WedgeComplex._of_canonical(tuple((x.suspend(), k) for x, k in self.pairs))

    def desuspend(self) -> "WedgeComplex":
        return WedgeComplex._of_canonical(tuple((x.desuspend(), k) for x, k in self.pairs))

    @property
    def notation(self) -> Notation:
        if not self.pairs:
            return Notation("*")
        runs = []
        for x, k in self.pairs:
            s = x.notation
            runs.append((s + " v ") * (k - 1) + s)  # k copies, without a list of them
        return Notation(" v ".join(runs))

    def __str__(self):
        return self.notation

    def __iter__(self):
        return iter(self.summands)


def _distinct(x: "ElementaryComplex | WedgeComplex") -> tuple[tuple[ElementaryComplex, int], ...]:
    """The ``(summand, multiplicity)`` pairs of a wedge or a single complex."""
    return ((x, 1),) if isinstance(x, ElementaryComplex) else x.pairs


# --------------------------------------------------------------------------
# notation parsing
# --------------------------------------------------------------------------

@cache
def parse_complex(text: str) -> ElementaryComplex:
    """The interned complex that ``text`` spells, parsed once per text.
    Invalid notation raises on every call: a raising call caches nothing."""
    text = text.strip()
    for kind, row in _KINDS.items():
        m = row.pattern.fullmatch(text)
        if m:
            fields = {name: int(value) for name, value in m.groupdict().items()}
            n = fields.pop("top") - row.top if "top" in fields else fields.pop("n")
            return _interned(kind, n, *(fields.get(name, 0) for name in _LEAST))
    raise ValueError(f"cannot parse complex notation {text!r}")


# --------------------------------------------------------------------------
# homology and the mod-2 operation tables
# --------------------------------------------------------------------------

@cache
def _homology_pairs(x: ElementaryComplex) -> tuple[tuple[int, FgAbelianGroup], ...]:
    """Reduced integral homology as (degree, group) pairs."""
    orders = {"Z": 0, "order": x.order, "r": 2**x.r, "t": 2**x.t}
    return tuple((x.n + offset, FgAbelianGroup.of_orders(orders[order]))
                 for offset, order in _KINDS[x.kind].homology)


class _ByDegree(dict):
    """Groups by degree; a degree with no entry holds the zero group."""

    def __missing__(self, i: int) -> FgAbelianGroup:
        return ZERO_GROUP


def homology_by_degree(x: "ElementaryComplex | WedgeComplex") -> dict[int, FgAbelianGroup]:
    """Reduced integral homology in every degree, additive over wedges:
    one walk over the distinct summands.  Reading a degree with no
    homology gives the zero group."""
    ranks: dict[int, int] = {}
    counts: dict[int, list[tuple[CyclicFactor, int]]] = {}
    for summand, k in _distinct(x):
        for degree, group in _homology_pairs(summand):
            ranks[degree] = ranks.get(degree, 0) + k * group.free_rank
            counts.setdefault(degree, []).extend((f, k * m) for f, m in group.pairs)
    return _ByDegree((i, FgAbelianGroup(ranks[i], counts=counts[i])) for i in sorted(ranks))


def integral_homology(x: "ElementaryComplex | WedgeComplex", i: int) -> FgAbelianGroup:
    """Reduced integral homology in degree i, additive over wedges."""
    return homology_by_degree(x)[i]


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


def sq2_is_nonzero(x: "ElementaryComplex | WedgeComplex", k: int) -> bool:
    """Whether Sq^2 acts nontrivially from degree k: on one complex from
    n plus its kind's ``sq2`` offset alone (never on A^(n+3)(2^r eta^2),
    whose attaching map dies under the pinch map); on a wedge the matrix
    is block-diagonal, so from where some summand's block is nonzero."""
    return any(k - s.n == _KINDS[s.kind].sq2 for s, _ in _distinct(x))


def theta_flag(x: "ElementaryComplex | WedgeComplex") -> bool:
    """Whether the secondary operation built on Sq^3 = Sq^1 Sq^2 acts
    nontrivially; true exactly for the eta^2-attached three-cell kinds."""
    return any(_KINDS[s.kind].theta for s, _ in _distinct(x))


def bockstein_profile(x: "ElementaryComplex | WedgeComplex") -> tuple[tuple[int, int], ...]:
    """The nontrivial higher Bocksteins as (r, source-dimension) pairs.

    Each Z/2^r summand of H_k contributes one beta_r from degree k to
    degree k+1 in mod-2 cohomology; free homology contributes none.
    """
    counts = (((degree, f.exponent), k * m)
              for s, k in _distinct(x) for degree, group in _homology_pairs(s)
              for f, m in group.pairs if f.prime == 2)
    return tuple(chain.from_iterable(
        repeat((r, degree), k) for (degree, r), k in merge_counts(counts)))


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
    return 1 if _KINDS[x.kind].pontryagin and x.n == 2 else None


class OperationProfile(namedtuple("OperationProfile",
                                  "complex mod2_dims sq2 bocksteins theta pontryagin")):
    """Mod-2 cohomology dimensions and operation data of one catalog entry:
    ``mod2_dims`` the nonzero (degree, dim) pairs, ``sq2`` the degrees
    from which Sq^2 acts (there it is the isomorphism Z/2 -> Z/2, the
    1x1 matrix [[1]] in the dump), ``bocksteins`` the (r, degree) pairs."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "complex": self.complex.notation,
            "mod2_dims": {str(k): d for k, d in self.mod2_dims},
            "sq2": {str(k): [[1]] for k in self.sq2},
            "bocksteins": [list(p) for p in self.bocksteins],
            "theta": self.theta,
            "pontryagin": self.pontryagin,
        }


def operation_profile(x: ElementaryComplex) -> OperationProfile:
    degrees = range(max(0, x.bottom_dim - 1), x.top_dim + 2)
    dims = tuple((k, dim) for k in degrees if (dim := _mod2_basis(x, k)))
    return OperationProfile(
        complex=x,
        mod2_dims=dims,
        sq2=tuple(k for k in degrees if sq2_is_nonzero(x, k)),
        bocksteins=bockstein_profile(x),
        theta=theta_flag(x),
        pontryagin=_pontryagin_coeff(x),
    )


# --------------------------------------------------------------------------
# Peterson wedges
# --------------------------------------------------------------------------

def moore_pairs(n: int, group: FgAbelianGroup) -> tuple[tuple[ElementaryComplex, int], ...]:
    """The ``(P^n(p^e), multiplicity)`` pairs of P^n(G) for torsion G, one
    per distinct primary factor: counts for a wedge that holds them."""
    if group.free_rank:
        raise ValueError(f"{group} has free rank {group.free_rank}")
    return tuple((moore(n, f.order), k) for f, k in group.pairs)


def peterson_of_group(n: int, group: FgAbelianGroup) -> WedgeComplex:
    """P^n(G) for torsion G, split into one Moore space per primary factor."""
    return WedgeComplex(counts=moore_pairs(n, group))


# --------------------------------------------------------------------------
# the homotopy / cohomotopy group table
# --------------------------------------------------------------------------

# Generator kinds: what each tabulated generator is, independent of its
# dimensions.  The matrix method composes generators by kind.
IOTA = "iota"  # identity of a sphere
ETA = "eta"
ETA2 = "eta2"
NU_PRIME = "nu_prime"
INCL = "incl"  # i: bottom cell of a Moore space
INCL_ETA = "incl_eta"
INCL_ETA2 = "incl_eta2"
ETA_TILDE = "eta_tilde"  # coextension of eta into a mod-2^r Moore space
PINCH = "pinch"  # q: Moore space onto its top cell
ETA_PINCH = "eta_pinch"
ETA2_PINCH = "eta2_pinch"
ETA_BAR = "eta_bar"  # extension of eta over a mod-2^r Moore space
OTHER = "other"  # generators out of the Chang and A-family complexes


class MapsGroupEntry(namedtuple("MapsGroupEntry", "source target generators orders kinds")):
    """[source, target] with its generator alphabet.

    ``generators``, ``orders`` and ``kinds`` align positionally; order 0
    marks a Z_(2) summand.  The canonical-form group is recoverable but
    the presentation order follows the generator list.
    """

    # No __slots__: the instance dict keeps the group once read.
    @cached_property
    def group(self) -> FgAbelianGroup:
        """The canonical-form group, computed on first read and then kept:
        building an entry factors nothing."""
        return FgAbelianGroup.of_orders(*self.orders, free_ring=RING_Z2LOCAL)

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.notation,
            "target": self.target.notation,
            "group": self.group.to_json_dict(),
            "generators": list(self.generators),
            "orders": list(self.orders),
        }


def _entry(source, target, *rows: tuple[str, int, str]) -> MapsGroupEntry:
    """The entry whose generators are ``rows`` of (name, order, kind)."""
    generators, orders, kinds = zip(*rows) if rows else ((), (), ())
    return MapsGroupEntry(source, target, generators, orders, kinds)


# [source, target] by (source kind, target kind, source.n - target.n, and
# the target n for a fact of one dimension, else None), with the least
# target n of the row and its generators as (name, order, kind).  A name
# is a str.format template over ``bottom`` (the target's bottom cell),
# ``top`` (the source's top cell) and ``r``; an order 0 is a Z_(2)
# summand, and "k", "2k" and "k/2" scale k, the Moore order or 2^r of the
# source (Toda 1962; Baues, Homotopy Type and Homology, 1996).
_GROUPS = {
    (SPHERE, SPHERE, 0, None): (3, (("iota", 0, IOTA),)),
    (SPHERE, SPHERE, 1, None): (3, (("eta", 2, ETA),)),
    (SPHERE, SPHERE, 2, None): (3, (("eta^2", 2, ETA2),)),
    (SPHERE, SPHERE, 3, 3): (3, (("nu'", 4, NU_PRIME),)),
    (SPHERE, MOORE, -1, None): (2, (("i_{bottom}", "k", INCL),)),
    (SPHERE, MOORE, 0, 3): (3, (("i_{bottom} eta", "2k", INCL_ETA),)),
    (SPHERE, MOORE, 0, None): (4, (("i_{bottom} eta", 2, INCL_ETA),)),
    (SPHERE, MOORE, 1, None): (3, (("eta~_{r}", 2, ETA_TILDE),
                                   ("i_{bottom} eta^2", 2, INCL_ETA2))),
    (MOORE, SPHERE, 0, None): (3, (("q_{top}", "k", PINCH),)),
    (MOORE, SPHERE, 1, None): (3, (("eta q_{top}", 2, ETA_PINCH),)),
    (MOORE, SPHERE, 2, None): (3, (("eta-_{r}", 2, ETA_BAR), ("eta^2 q_{top}", 2, ETA2_PINCH))),
    # The unstable maps out of the Chang and A-family complexes.
    (CHANG_ETA, SPHERE, 0, 2): (2, ()),
    (CHANG_ETA, SPHERE, 0, 3): (3, (("zeta-", 0, OTHER),)),
    (CHANG_ETA, SPHERE, -2, 5): (5, (("q_5", 0, OTHER),)),
    (CHANG_ETA, SPHERE, -1, 5): (5, ()),
    (CHANG_R, SPHERE, 0, 2): (2, (("eta q_3", "2k", OTHER),)),
    (CHANG_R, SPHERE, 0, 3): (3, (("eta q_4", 2, OTHER),)),
    (CHANG_R, SPHERE, -2, 5): (5, (("q_5", 0, OTHER),)),
    (CHANG_R, SPHERE, -1, 5): (5, (("q_5", "2k", OTHER),)),
    (A_2R_ETA2, SPHERE, -1, 3): (3, (("q_3", "2k", OTHER),)),
    (A_2R_ETA2, SPHERE, -2, 4): (4, (("eta q_5", 2, OTHER),)),
    (A_2R_ETA2, SPHERE, -3, 5): (5, (("q_5", 0, OTHER),)),
    (A_2R_ETA2, SPHERE, 0, 3): (3, (("nu' q_6", 2, OTHER),)),
    (A_2R_ETA2, SPHERE, -2, 5): (5, (("eta q_6", 2, OTHER),)),
    (A_TILDE, SPHERE, -1, 3): (3, (("2 q_3", "k/2", OTHER),)),
    (A_TILDE, SPHERE, -3, 5): (5, (("q_5", 0, OTHER),)),
    (A_TILDE, SPHERE, -2, 5): (5, ()),
    (A_ETA2, SPHERE, -1, 3): (3, ()),
    (A_ETA2, SPHERE, 0, 3): (3, (("nu' q_6", 2, OTHER), ("xi", 0, OTHER))),
    (A_ETA2, SPHERE, -3, 5): (5, (("q_5", 0, OTHER),)),
    (A_ETA2, SPHERE, -2, 5): (5, (("eta q_6", 2, OTHER),)),
}


@cache
def maps_group(source: ElementaryComplex, target: ElementaryComplex) -> MapsGroupEntry:
    """The tabulated group [source, target], 2-locally: P^n(p^e) for odd p
    is a point, so every map into or out of it is zero.

    Raises TableMiss for pairs the tables do not determine.
    """
    pair = (source.kind, target.kind)
    # Maps into a sphere above the source's top dimension vanish, and so do
    # maps of a sphere below a Moore space's bottom cell.
    if source.top_dim < target.bottom_dim and (target.kind == SPHERE or pair == (SPHERE, MOORE)):
        return _entry(source, target)
    if source.order % 2 or target.order % 2:
        return _entry(source, target)
    d = source.n - target.n
    least, rows = _GROUPS.get((*pair, d, target.n)) or _GROUPS.get((*pair, d, None)) or (None, ())
    if least is None or target.n < least:
        raise TableMiss(f"[{source}, {target}]")
    k = source.order or target.order or 2**source.r  # an even Moore order is 2^r
    fields = {"bottom": target.bottom_dim, "top": source.top_dim, "r": k.bit_length() - 1}
    scaled = {"k": k, "2k": 2 * k, "k/2": k // 2}
    gens = [(name.format(**fields), scaled.get(size, size), kind) for name, size, kind in rows]
    if k == 2 and gens and gens[-1][2] in (INCL_ETA2, ETA2_PINCH):
        # At r = 1, i eta^2 = 2 eta~_1 and eta^2 q = 2 eta-_1: one Z/4.
        gens = [(gens[0][0], 4, gens[0][2])]
    return _entry(source, target, *(gen for gen in gens if gen[1] != 1))


# --------------------------------------------------------------------------
# the tables dump
# --------------------------------------------------------------------------

def _profiled() -> list[ElementaryComplex]:
    """The dump window: the complexes whose operation profiles are dumped,
    and among which the tabulated maps are.  It holds every kind whose
    cells lie in dimensions 2 to 6 (5 for a Moore space): at r = 1, 2, 3
    for a kind that takes r alone (a Moore space takes the order 2^r), at
    r, t = 1, 2 for a kind that takes t; and P^4(3)."""
    complexes = [moore(4, 3)]
    for kind, row in _KINDS.items():
        exponents = (1, 2) if "t" in row.params else (1, 2, 3)
        values = {"order": [2**e for e in exponents], "r": exponents, "t": exponents}
        # each parameter's values in _LEAST order, as _interned takes them; 0 if not taken
        choices = [values[p] if p in row.params else (0,) for p in _LEAST]
        for n in range(2 - row.bottom, (5 if kind == MOORE else 6) - row.top + 1):
            complexes += (_interned(kind, n, *fields) for fields in product(*choices))
    return complexes


def maps_group_rows() -> list[dict]:
    """The dump's rows of every [source, target] of the dump window that a
    ``_GROUPS`` row gives (so a sphere is on one side), but for
    A^(n+3)(eta^2) and the odd Moore space; of the latter only S^4 and S^5
    into P^4(3)."""
    window = [x for x in _profiled() if x.kind != A_ETA2 and x != moore(4, 3)]
    spheres = [x for x in window if x.kind == SPHERE]
    rows_at = {key[:3] for key in _GROUPS}  # (source kind, target kind, n difference)
    entries = [maps_group(sphere(4), moore(4, 3)), maps_group(sphere(5), moore(4, 3))]
    for src, tgt in {*product(spheres, window), *product(window, spheres)}:
        if (src.kind, tgt.kind, src.n - tgt.n) in rows_at:
            try:
                entries.append(maps_group(src, tgt))
            except TableMiss:
                pass
    rows = []
    for entry in entries:
        # A row belongs to the family of its non-sphere member.
        family = (entry.target if entry.source.kind == SPHERE else entry.source).family
        rows.append({"family": family, **entry.to_json_dict()})
    rows.sort(key=lambda row: (row["family"], row["source"], row["target"]))
    return rows


def profile_rows() -> list[dict]:
    """The dump's rows of the operation profile of every dump-window complex."""
    rows = [{"family": x.family, **operation_profile(x).to_json_dict()} for x in _profiled()]
    rows.sort(key=lambda row: (row["family"], row["complex"]))
    return rows
