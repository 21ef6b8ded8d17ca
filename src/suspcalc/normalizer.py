"""The matrix method: symbolic maps into wedges and their normal forms.

A map from a sphere into a wedge of spheres and mod-2^r Moore spaces is
stored as a column vector of components, one per wedge summand, each a
class in the tabulated group [source, summand].  Self-equivalences of
the wedge act by elementary row operations: swapping identical rows,
acting on one row by a self-equivalence of its summand, and adding a
composite g . (row j) to row i for a tabulated map g between the two
summands.  Two vectors in the same orbit have homotopy-equivalent
cofibers, so the orbit of homologically trivial attaching maps can be
normalized to a canonical representative with at most one surviving
entry, from which the cofiber is read off the catalog.

Normal-form conventions.  An odd eta~ entry dominates everything and
survives at the smallest exponent (ties broken by smallest index); an
eta entry on a sphere dominates i-eta, eta^2 and i-eta^2 and survives at
the smallest index; i-eta and i-eta^2 entries survive at the largest
exponent (ties by largest index), because the comparison map chi kills
upward in the exponent for inclusions; eta^2 survives at the smallest
index and dominates i-eta^2.  Any other nonzero entry, such as an odd
multiple of a generator that no row operation takes to +-1 times it, is
outside the normal-form range (``MapClass.kind``).

``oracle_normal_form`` ignores all of these conventions and simply
closes a small vector under every legal row operation, returning the
lexicographically least orbit element; it exists to cross-check
``normalize``.  The closure runs over integer states: each entry is an
index into the classes of its group, and a state is the mixed-radix
number of those row indices.  A move touches one row, or two, and what
it does there depends only on the source, those rows' targets and the
move: each such block is tabulated once, from ``row_op`` on every block
state, and cached, so ``row_op`` stays the only definition of a move.
Once per source and tuple of targets, the blocks are compiled into a
partition of the tuple's states into orbits, which is cached, so the
closure of a vector is a lookup of its state's orbit.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Mapping
from functools import cache
from itertools import product
from math import prod

from .abelian import Validated
from .catalog import (
    ETA,
    ETA2,
    ETA2_PINCH,
    ETA_BAR,
    ETA_PINCH,
    ETA_TILDE,
    INCL,
    INCL_ETA,
    INCL_ETA2,
    IOTA,
    MOORE,
    NU_PRIME,
    OTHER,
    PINCH,
    SPHERE,
    ElementaryComplex,
    MapsGroupEntry,
    TableMiss,
    WedgeComplex,
    a_2r_eta2,
    a_eta2,
    a_tilde,
    chang_eta,
    chang_r,
    maps_group,
    parse_complex,
    sphere,
)
from .classifier import json_fields, json_value


class IllegalOp(ValueError):
    """The requested row operation is not in the move alphabet."""


ZERO = "zero"  # the kind of a zero class


def _moore_exponent(x: ElementaryComplex) -> int:
    if x.kind != MOORE or x.order % 2:  # an even prime power is 2^r
        raise ValueError(f"{x} is not a mod-2^r Moore space")
    return x.order.bit_length() - 1


class MapClass(Validated, namedtuple("MapClass", "entry coeffs")):
    """A homotopy class in the tabulated group ``entry`` = [source, target],
    as coefficients on its generator basis, each reduced modulo its order."""

    __slots__ = ()

    def __new__(cls, entry: MapsGroupEntry, coeffs: tuple[int, ...]):
        orders = entry.orders
        if len(coeffs) != len(orders):
            raise ValueError(
                f"expected {len(orders)} coefficients for [{entry.source}, {entry.target}]"
            )
        return tuple.__new__(cls, (entry, tuple(c % o if o else c for c, o in zip(coeffs, orders))))

    @property
    def source(self) -> ElementaryComplex:
        return self.entry.source

    @property
    def target(self) -> ElementaryComplex:
        return self.entry.target

    @classmethod
    def of(cls, source, target, coefficients: dict[str, int]) -> "MapClass":
        """Build from a generator-name -> coefficient mapping."""
        entry = maps_group(source, target)
        unknown = set(coefficients) - set(entry.generators)
        if unknown:
            raise ValueError(f"unknown generators {sorted(unknown)} for [{source}, {target}]")
        return cls(entry, tuple(coefficients.get(g, 0) for g in entry.generators))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def add(self, other: "MapClass") -> "MapClass":
        if self.entry != other.entry:
            raise ValueError("cannot add classes in different groups")
        return MapClass(self.entry, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, k: int) -> "MapClass":
        return MapClass(self.entry, tuple(k * c for c in self.coeffs))

    def coefficients(self) -> dict[str, int]:
        return {g: c for g, c in zip(self.entry.generators, self.coeffs) if c}

    # ----- semantic classification ---------------------------------------

    def kind(self) -> str:
        """zero, the _SURVIVORS kind of a class ``normalize`` keeps, or other."""
        if self.is_zero:
            return ZERO
        kinds, c = self.entry.kinds, self.coeffs
        if kinds[0] == ETA_TILDE:
            # every even class is a multiple of i eta^2 (= 2 eta~_1 at r = 1)
            return ETA_TILDE if c[0] % 2 else INCL_ETA2
        live = [(k, x, o) for k, x, o in zip(kinds, c, self.entry.orders) if x]
        if len(live) == 1:
            kind, x, order = live[0]
            if kind in _SURVIVORS and x in (1, order - 1):  # 1, or -1 where neg takes it
                return kind
        return OTHER

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for g, c in zip(self.entry.generators, self.coeffs):
            if c == 0:
                continue
            parts.append(g if c == 1 else f"{c}({g})")
        return " + ".join(parts)


# --------------------------------------------------------------------------
# generator symbols and the relation engine
# --------------------------------------------------------------------------

# Transfer kinds: maps between two wedge summands usable in row operations.
# A transfer that is a tabulated generator carries that generator's kind
# (``catalog.ETA``, ``catalog.PINCH``, ...); these five are not generators.
DEG = "deg"
CHI = "chi"
INCL_PINCH = "incl_pinch"
INCL_ETA_PINCH = "incl_eta_pinch"
INCL_ETA_BAR = "incl_eta_bar"


class GeneratorSymbol(namedtuple("GeneratorSymbol", "kind source target")):
    """A generator or structural map with its (co)domain, printed by kind.

    ``kind`` covers the identity ``deg`` of a sphere, the Hopf classes eta,
    eta^2, nu', the Moore-space structure maps i, q, eta~_r, eta-_r, the
    comparison maps chi^r_s and the composite transfers built from them.
    """

    __slots__ = ()

    def __str__(self):
        return f"{self.kind}: {self.source} -> {self.target}"


def _contribution(entry: MapsGroupEntry, kind: str, coeff: int, acc: list[int]) -> None:
    """Accumulate coeff * (the generator of ``kind``) into acc, on the
    generator basis of ``entry``."""
    if kind == INCL_ETA2 and entry.kinds == (ETA_TILDE,):
        # With r = 1 the group is Z/4 on eta~_1 and i eta^2 = 2 eta~_1.
        acc[0] += 2 * coeff
        return
    if kind not in entry.kinds:
        raise TableMiss(f"no generator of kind {kind} in target group")
    acc[entry.kinds.index(kind)] += coeff


def _pure_entry(entry: MapsGroupEntry, kind: str, coeff: int = 1) -> MapClass:
    """``coeff`` times the generator of the given kind in ``entry``'s group."""
    acc = [0] * len(entry.orders)
    _contribution(entry, kind, coeff, acc)
    return MapClass(entry, tuple(acc))


# Transfers through the pinch map q send eta~_r to their image (q eta~_r =
# eta) and kill i, i eta and i eta^2, which q sends to zero.
_THROUGH_PINCH = {
    PINCH: (ETA, 1),
    ETA_PINCH: (ETA2, 1),
    ETA2_PINCH: (NU_PRIME, 2),
    INCL_PINCH: (INCL_ETA, 1),
    INCL_ETA_PINCH: (INCL_ETA2, 1),
}

# The composition law: (transfer kind, generator kind) -> (image kind,
# multiple) for a transfer left-composed with one sphere-sourced
# generator; image None means the composite is zero, and pairs left out
# are not tabulated.  chi^r_s multiplies by a power of 2 that depends on
# r and s (apply_transfer).
_COMPOSITION: dict[tuple[str, str], tuple[str | None, int]] = {
    **{(DEG, kind): (kind, 1) for kind in (IOTA, ETA, ETA2, NU_PRIME)},
    (ETA, IOTA): (ETA, 1),
    (ETA, ETA): (ETA2, 1),
    (ETA, ETA2): (NU_PRIME, 2),  # eta^3 = 2 nu'
    (ETA2, IOTA): (ETA2, 1),
    (ETA2, ETA): (NU_PRIME, 2),
    (INCL, IOTA): (INCL, 1),
    (INCL, ETA): (INCL_ETA, 1),
    (INCL, ETA2): (INCL_ETA2, 1),
    (INCL_ETA, IOTA): (INCL_ETA, 1),
    (INCL_ETA, ETA): (INCL_ETA2, 1),
    (INCL_ETA2, IOTA): (INCL_ETA2, 1),
    (ETA_BAR, INCL): (ETA, 1),  # eta-_r i = eta
    (ETA_BAR, INCL_ETA): (ETA2, 1),
    (ETA_BAR, ETA_TILDE): (NU_PRIME, 1),  # nu' = eta-_1 eta~_1, tabulated for r = 1 only
    (ETA_BAR, INCL_ETA2): (NU_PRIME, 2),
    (INCL_ETA_BAR, INCL): (INCL_ETA, 1),
    (INCL_ETA_BAR, INCL_ETA): (INCL_ETA2, 1),
    (CHI, INCL): (INCL, 1),
    (CHI, INCL_ETA): (INCL_ETA, 1),
    (CHI, INCL_ETA2): (INCL_ETA2, 1),
    (CHI, ETA_TILDE): (ETA_TILDE, 1),
    **{(q, ETA_TILDE): image for q, image in _THROUGH_PINCH.items()},
    **{(q, kind): (None, 0) for q in _THROUGH_PINCH for kind in (INCL, INCL_ETA, INCL_ETA2)},
}


def apply_transfer(transfer: GeneratorSymbol, x: MapClass) -> MapClass:
    """Left-compose a transfer map with a sphere-sourced class."""
    if transfer.source != x.target:
        raise ValueError(f"{transfer} cannot follow a class into {x.target}")
    src, out_target = x.source, transfer.target
    if src.kind != SPHERE:
        raise TableMiss("only sphere-sourced classes can be pushed along transfers")
    out_entry = maps_group(src, out_target)
    acc = [0] * len(out_entry.orders)
    for gen_kind, coeff in zip(x.entry.kinds, x.coeffs):
        if coeff == 0:
            continue
        if (transfer.kind, gen_kind) not in _COMPOSITION:
            raise TableMiss(f"{transfer.kind} . {gen_kind} is not tabulated")
        image, multiple = _COMPOSITION[transfer.kind, gen_kind]
        if (transfer.kind, gen_kind) == (ETA_BAR, ETA_TILDE) and _moore_exponent(x.target) > 1:
            raise TableMiss("eta-_r . eta~_r is only tabulated for r = 1")
        if transfer.kind == CHI:
            # chi^r_s i = 2^(s-r) i for r <= s and chi^r_s eta~_r = 2^(r-s) eta~_s
            # for s <= r; both are unit multiples the other way.
            r, s = _moore_exponent(transfer.source), _moore_exponent(transfer.target)
            multiple *= 2 ** max(r - s if gen_kind == ETA_TILDE else s - r, 0)
        if image is not None:
            _contribution(out_entry, image, multiple * coeff, acc)
    return MapClass(out_entry, tuple(acc))


def _symbol_as_class(symbol: GeneratorSymbol) -> MapClass | None:
    """View a sphere-sourced symbol as the unit class of its group, ``deg``
    as the identity."""
    if symbol.source.kind != SPHERE:
        return None
    kind = IOTA if symbol.kind == DEG else symbol.kind
    return _pure_entry(maps_group(symbol.source, symbol.target), kind)


def compose_relation(left: GeneratorSymbol, right: GeneratorSymbol) -> MapClass:
    """Normal form of left . right via the stored relation formulas."""
    if left.source != right.target:
        raise ValueError(f"{left} cannot follow {right}")
    as_class = _symbol_as_class(right)
    if as_class is not None:
        return apply_transfer(left, as_class)
    if right.kind == CHI and left.kind in (PINCH, ETA_PINCH):
        # q chi^r_s = 2^(r-s) q for r >= s, q for r <= s; likewise after eta.
        r = _moore_exponent(right.source)
        s = _moore_exponent(right.target)
        factor = 2 ** (r - s) if r >= s else 1
        return _pure_entry(maps_group(right.source, left.target), left.kind, factor)
    raise ValueError(f"no relation stored for {left.kind} . {right.kind}")


# --------------------------------------------------------------------------
# map vectors and row operations
# --------------------------------------------------------------------------

class MapVector(Validated, namedtuple("MapVector", "source targets entries theta_remainder")):
    """A column vector of components of a map from a sphere into a wedge.

    ``theta_remainder`` marks a symbolically unresolved Whitehead-product
    term; vectors carrying it are outside the normalizable regime.
    """

    __slots__ = ()

    def __new__(cls, source: ElementaryComplex, targets: tuple[ElementaryComplex, ...],
                entries: tuple[MapClass, ...], theta_remainder: bool = False):
        if len(targets) != len(entries):
            raise ValueError("one entry per target required")
        for target, entry in zip(targets, entries):
            # complexes are interned: one complex is one object
            if entry.source is not source or entry.target is not target:
                raise ValueError(f"entry {entry} does not live in [{source}, {target}]")
        return tuple.__new__(cls, (source, targets, entries, theta_remainder))

    @classmethod
    def of(cls, source: ElementaryComplex, components: list[tuple[ElementaryComplex, dict[str, int]]],
           theta_remainder: bool = False) -> "MapVector":
        targets = tuple(t for t, _ in components)
        entries = tuple(MapClass.of(source, t, c) for t, c in components)
        return cls(source, targets, entries, theta_remainder)

    def with_entry(self, i: int, entry: MapClass) -> "MapVector":
        entries = list(self.entries)
        entries[i] = entry
        return self._replace(entries=tuple(entries))

    def key(self) -> tuple:
        return tuple(e.coeffs for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.notation,
            "entries": [
                {"target": t.notation, "coefficients": e.coefficients()}
                for t, e in zip(self.targets, self.entries)
            ],
            "theta_remainder": self.theta_remainder,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MapVector":
        json_fields(data, "vector", ("source", "entries"), ("theta_remainder",))
        source = parse_complex(json_value(data, "source", str, "vector"))
        components = []
        for i, item in enumerate(json_value(data, "entries", list, "vector")):
            where = f"entries[{i}]"
            json_fields(item, where, ("target",), ("coefficients",))
            coefficients = json_value(item, "coefficients", dict, where, {})
            for name in coefficients:
                json_value(coefficients, name, int, f"{where}.coefficients")
            target = parse_complex(json_value(item, "target", str, where))
            components.append((target, coefficients))
        theta_remainder = json_value(data, "theta_remainder", bool, "vector", False)
        return cls.of(source, components, theta_remainder)


SwapRows = namedtuple("SwapRows", "i j")
# row[dst] += g . row[src], for the transfer g of ``kind`` from the target
# of row src to the target of row dst.
AddRow = namedtuple("AddRow", "dst src kind")
# Act on one row by a self-equivalence of its target summand: ``op`` is
# "neg" or "unit_plus_i_eta_q".
ActBySelfEquiv = namedtuple("ActBySelfEquiv", "row op")


# The move alphabet: (source kind, target kind, target.n - source.n) ->
# the kinds of the tabulated maps between two wedge summands usable in row
# additions.  Moore summands must have even order, and a sphere target
# below its source needs n >= 3 (_move_kinds).
_MOVES: dict[tuple[str, str, int], tuple[str, ...]] = {
    (SPHERE, SPHERE, 0): (DEG,),
    (SPHERE, SPHERE, -1): (ETA,),
    (SPHERE, SPHERE, -2): (ETA2,),
    (SPHERE, MOORE, 1): (INCL,),
    (SPHERE, MOORE, 0): (INCL_ETA,),
    (SPHERE, MOORE, -1): (INCL_ETA2,),
    (MOORE, SPHERE, 0): (PINCH,),
    (MOORE, SPHERE, -1): (ETA_PINCH,),
    (MOORE, SPHERE, -2): (ETA_BAR, ETA2_PINCH),
    (MOORE, MOORE, 0): (CHI, INCL_ETA_PINCH),
    (MOORE, MOORE, 1): (INCL_PINCH,),
    (MOORE, MOORE, -1): (INCL_ETA_BAR,),
}


def _move_kinds(src: ElementaryComplex, dst: ElementaryComplex) -> tuple[str, ...]:
    offset = dst.n - src.n
    if src.order % 2 or dst.order % 2:
        return ()
    if dst.kind == SPHERE and offset < 0 and dst.n < 3:
        return ()
    return _MOVES.get((src.kind, dst.kind, offset), ())


def self_equivalences(target: ElementaryComplex) -> tuple[str, ...]:
    if target.kind == MOORE:
        return ("neg", "unit_plus_i_eta_q")
    return ("neg",)


def _apply_self_equiv(entry: MapClass, op: str) -> MapClass:
    """``op``, one of ``self_equivalences(entry.target)``, on ``entry``."""
    if op == "neg":
        return entry.scale(-1)
    transfer = GeneratorSymbol(INCL_ETA_PINCH, entry.target, entry.target)
    return entry.add(apply_transfer(transfer, entry))


def row_op(v: MapVector, op) -> MapVector:
    """Apply one elementary operation; the cofiber homotopy type is preserved."""
    if isinstance(op, SwapRows):
        i, j = op.i, op.j
        if not (0 <= i < len(v.targets) and 0 <= j < len(v.targets)):
            raise IllegalOp("row index out of range")
        if v.targets[i] != v.targets[j]:
            raise IllegalOp("can only swap rows with identical targets")
        entries = list(v.entries)
        entries[i], entries[j] = entries[j], entries[i]
        return v._replace(entries=tuple(entries))
    if isinstance(op, AddRow):
        if op.dst == op.src:
            raise IllegalOp("use ActBySelfEquiv for diagonal moves")
        if not (0 <= op.dst < len(v.targets) and 0 <= op.src < len(v.targets)):
            raise IllegalOp("row index out of range")
        g = GeneratorSymbol(op.kind, v.targets[op.src], v.targets[op.dst])
        if g.kind not in _move_kinds(g.source, g.target):
            raise IllegalOp(f"{g.kind} is not in the move alphabet")
        try:
            image = apply_transfer(g, v.entries[op.src])
        except TableMiss as err:
            raise IllegalOp(str(err)) from None
        return v.with_entry(op.dst, v.entries[op.dst].add(image))
    if isinstance(op, ActBySelfEquiv):
        if not 0 <= op.row < len(v.targets):
            raise IllegalOp("row index out of range")
        if op.op not in self_equivalences(v.targets[op.row]):
            raise IllegalOp(f"{op.op!r} is not a self-equivalence of {v.targets[op.row]}")
        return v.with_entry(op.row, _apply_self_equiv(v.entries[op.row], op.op))
    raise IllegalOp(f"unknown operation {op!r}")


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------

# The normal-form survivors in dominance order: kind -> (whether the
# highest rather than the lowest (exponent, index) wins, the catalog
# constructor of the cofiber summand that replaces its target).  The
# constructor takes the target's bottom cell and the exponents of
# _exponent; a sphere target has none, so its index alone decides.
_SURVIVORS = {
    ETA_TILDE: (False, a_tilde),
    ETA: (False, chang_eta),
    INCL_ETA: (True, chang_r),
    ETA2: (False, a_eta2),
    INCL_ETA2: (True, a_2r_eta2),
}


def _exponent(x: ElementaryComplex) -> tuple[int, ...]:
    """(r,) for P^n(2^r), () for a sphere."""
    return (_moore_exponent(x),) if x.kind == MOORE else ()


def normalize(v: MapVector) -> MapVector:
    """Canonical orbit representative with at most one nonzero entry: the
    unit generator of the first _SURVIVORS kind present, at its winning
    (exponent, index), or the zero vector."""
    if v.theta_remainder:
        raise ValueError("vector carries an unresolved Whitehead-product remainder")
    if v.source.kind != SPHERE:
        raise ValueError("only sphere-sourced vectors are normalized")
    kinds = [e.kind() for e in v.entries]
    if OTHER in kinds:
        entry = v.entries[kinds.index(OTHER)]
        raise ValueError(
            f"entry {entry} in [{v.source}, {entry.target}] is outside the normal-form range")
    entries = [MapClass(e.entry, (0,) * len(e.coeffs)) for e in v.entries]
    for kind, (highest, _) in _SURVIVORS.items():
        slots = [(_exponent(v.targets[i]), i) for i, k in enumerate(kinds) if k == kind]
        if slots:
            _, i = max(slots) if highest else min(slots)
            entries[i] = _pure_entry(v.entries[i].entry, kind)
            break
    return MapVector(v.source, v.targets, tuple(entries))


def cofiber(v: MapVector) -> WedgeComplex:
    """Cofiber of a normal-form vector, as a wedge of catalog entries.

    Untouched targets pass through; the single attached cell converts its
    target by the attaching-map kind; a zero vector contributes one extra
    sphere above the source.
    """
    live = [(i, e) for i, e in enumerate(v.entries) if not e.is_zero]
    if len(live) > 1:
        raise ValueError("cofiber needs at most one nonzero entry")
    summands = list(v.targets)
    if not live:
        summands.append(sphere(v.source.n + 1))
        return WedgeComplex(tuple(summands))
    i, entry = live[0]
    kind = entry.kind()
    target = v.targets[i]
    if kind not in _SURVIVORS:
        raise ValueError(f"entry {entry} in [{v.source}, {target}] has no catalog cofiber")
    _, construct = _SURVIVORS[kind]
    summands[i] = construct(target.bottom_dim, *_exponent(target))
    return WedgeComplex(tuple(summands))


# --------------------------------------------------------------------------
# brute-force orbit oracle
# --------------------------------------------------------------------------

def _all_moves(targets: tuple[ElementaryComplex, ...]):
    """Every elementary operation on a vector into ``targets``."""
    n = len(targets)
    moves = []
    for dst in range(n):
        for src in range(n):
            if dst == src:
                continue
            for kind in _move_kinds(targets[src], targets[dst]):
                moves.append(AddRow(dst, src, kind))
    for i in range(n):
        for op in self_equivalences(targets[i]):
            moves.append(ActBySelfEquiv(i, op))
    for i in range(n):
        for j in range(i + 1, n):
            if targets[i] == targets[j]:
                moves.append(SwapRows(i, j))
    return moves


@cache
def _elements(source: ElementaryComplex, target: ElementaryComplex) -> tuple[tuple[int, ...], ...]:
    """The classes of [source, target] as reduced coefficient tuples, in
    ``itertools.product`` order over the entry orders: a class's row index
    is its place here, and the zero class has index 0.  Cached, so that
    the orbit keys of all target tuples share one copy per target."""
    return tuple(product(*(range(o) for o in maps_group(source, target).orders)))


@cache
def _block(source: ElementaryComplex, targets: tuple[ElementaryComplex, ...],
           move) -> tuple[int | None, ...]:
    """``move`` on the vector from ``source`` into ``targets`` alone, read
    off ``row_op`` on every block state: entry k is the index of the image
    of block state k, or None where ``row_op`` rejects it.  Block states
    are the tuples of the rows' indices into ``_elements``, numbered in
    ``itertools.product`` order."""
    entries = [maps_group(source, t) for t in targets]
    states = list(product(*(_elements(source, t) for t in targets)))
    index = {key: k for k, key in enumerate(states)}
    table = []
    for key in states:
        w = MapVector(source, targets, tuple(MapClass(e, c) for e, c in zip(entries, key)))
        try:
            table.append(index[row_op(w, move).key()])
        except IllegalOp:
            table.append(None)
    return tuple(table)


@cache
def _compiled(source: ElementaryComplex, targets: tuple[ElementaryComplex, ...]):
    """What the oracle needs for any vector from ``source`` into
    ``targets``, built once per such pair: each row's place, each row's
    ``_elements``, and the states split into orbits.  Raises ValueError
    (caching nothing) past the oracle's bounds: more than 4 targets, an
    infinite entry group, or a total entry-group order above 2^12; and,
    naming the move, for a move whose block does not permute the states
    where it is legal.

    A state is the mixed-radix number of the rows' indices into
    ``_elements``, row 0 most significant: row i's index is
    ``state // stride % size`` for its place (stride, size).  A move
    neither reads nor changes a row outside the one or two it touches, so
    it fixes every other row and is legal exactly where its ``_block``
    state is (a transfer that cannot follow a map from a non-sphere source
    is illegal everywhere, the zero state included).  So its block, as
    offsets on whole states, moves a state with row indices d by
    ``delta[d[hi] * radix + d[lo]]``, for the rows hi and lo it touches.

    Each move permutes the states where it is legal, and that set is
    closed under the move, so some power of the move is its inverse: a
    state reaches every state that reaches it, the orbits partition the
    states, and one walk from any member finds its whole orbit.  Each
    block is checked for that premise.  ``labels[state]`` numbers the
    orbit of each state, and ``members[label]`` lists that orbit's keys in
    state order, which is key order, since ``_elements`` lists each row's
    classes in ``product`` order and row 0 is the most significant digit."""
    if len(targets) > 4:
        raise ValueError("oracle supports at most 4 targets")
    total = 1
    for t in targets:
        order = maps_group(source, t).group.order()
        if order is None:
            raise ValueError(f"entry group [{source}, {t}] is infinite")
        total *= order
    if total > 2**12:
        raise ValueError(f"total entry-group order {total} exceeds 2^12")
    rows = tuple(_elements(source, t) for t in targets)
    sizes = [len(r) for r in rows]
    places = tuple((prod(sizes[i + 1:]), n) for i, n in enumerate(sizes))
    steps = [range(0, n * s, s) for s, n in places]  # per row index
    moves = []
    for move in _all_moves(targets):
        if isinstance(move, AddRow):
            at, local = (move.src, move.dst), AddRow(1, 0, move.kind)
        elif isinstance(move, SwapRows):
            at, local = (move.i, move.j), SwapRows(0, 1)
        else:
            at, local = (move.row,), ActBySelfEquiv(0, move.op)
        block = _block(source, tuple(targets[i] for i in at), local)
        legal = [k for k, image in enumerate(block) if image is not None]
        if sorted(block[k] for k in legal) != legal:
            raise ValueError(f"{move} does not permute the states where it is legal")
        # the offset of each block state, in the block's product order
        offsets = list(map(sum, product(*(steps[i] for i in at))))
        delta = tuple(None if k is None else offsets[k] - o for k, o in zip(block, offsets))
        if any(delta):  # leave out moves that fix every state
            moves.append((at[0], at[-1], sizes[at[-1]] if len(at) > 1 else 0, delta))
    keys = list(product(*rows))  # in state order
    digits = list(product(*map(range, sizes)))  # each state's row indices
    labels = array("H", [total]) * total  # total <= 2^12 marks a state not reached yet
    members = []
    for first in range(total):
        if labels[first] < total:
            continue
        states = [first]
        labels[first] = len(members)
        for state in states:  # a worklist that grows while it is read
            d = digits[state]
            for hi, lo, radix, delta in moves:
                # a step is None where the move is illegal, 0 where it fixes the state
                if (step := delta[d[hi] * radix + d[lo]]) and labels[state + step] == total:
                    labels[state + step] = len(members)
                    states.append(state + step)
        members.append(tuple([keys[state] for state in sorted(states)]))
    return places, rows, labels, tuple(members)


class Orbit(Mapping):
    """The orbit of a vector under row operations, read-only, keyed like
    ``MapVector.key()`` in key order, so the least member comes first.  A
    member vector is built, through the ``MapClass`` and ``MapVector``
    constructors, only when it is looked up."""

    def __init__(self, v: MapVector, keys: tuple[tuple, ...]):
        self._v = v
        self._keys = keys  # sorted

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    def __contains__(self, key) -> bool:
        keys = self._keys
        try:
            i = bisect_left(keys, key)
        except TypeError:  # not comparable with a key, so not one
            return False
        return i < len(keys) and keys[i] == key

    def __getitem__(self, key) -> MapVector:
        if key not in self:
            raise KeyError(key)
        v = self._v
        entries = tuple(MapClass(e.entry, coeffs) for e, coeffs in zip(v.entries, key))
        return MapVector(v.source, v.targets, entries, v.theta_remainder)


def orbit(v: MapVector) -> Orbit:
    """Closure of v under all legal row operations, keyed by coefficients.

    ``_compiled`` splits the states of every vector into v's targets into
    orbits once per source and targets, so the closure is the orbit of
    v's state, looked up: its members' keys, in key order.  Members are
    built as vectors only when looked up.
    """
    places, rows, labels, members = _compiled(v.source, v.targets)
    start = sum(r.index(e.coeffs) * s for r, e, (s, _) in zip(rows, v.entries, places))
    return Orbit(v, members[labels[start]])


def oracle_normal_form(v: MapVector) -> MapVector:
    """Lexicographically least element of the row-operation orbit, the
    only member built as a vector."""
    reachable = orbit(v)
    return reachable[min(reachable)]
