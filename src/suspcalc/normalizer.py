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
index and dominates i-eta^2.

``oracle_normal_form`` ignores all of these conventions and simply
closes a small vector under every legal row operation, returning the
lexicographically least orbit element; it exists to cross-check
``normalize``.  The closure runs over integer states: each entry is an
index into the classes of its group, and a state is the mixed-radix
number of those row indices.  A move touches one row, or two, and what
it does there depends only on the source, those rows' targets and the
move: each such block is tabulated once, from ``row_op`` on every block
state, and cached, so ``row_op`` stays the only definition of a move.
The offset tables of every move on one source and tuple of targets are
compiled from those blocks once, and cached as well.
"""

from __future__ import annotations

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
    moore,
    parse_complex,
    sphere,
)
from .classifier import json_fields, json_value


class NotComposable(ValueError):
    """The two symbols have mismatched source/target."""


class IllegalOp(ValueError):
    """The requested row operation is not in the move alphabet."""


class NotNormalForm(ValueError):
    """cofiber() needs a vector with at most one nonzero entry."""


class UnsupportedVector(ValueError):
    """The vector carries entries outside the normalizable range."""


class TooLarge(ValueError):
    """The oracle bounds (<= 4 targets, entry-group order <= 2^12) are exceeded."""


ZERO = "zero"  # the kind of a zero class


def _moore_exponent(x: ElementaryComplex) -> int:
    if x.kind != MOORE or x.order < 2 or x.order & (x.order - 1):
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

    def neg(self) -> "MapClass":
        return self.scale(-1)

    def coefficients(self) -> dict[str, int]:
        return {g: c for g, c in zip(self.entry.generators, self.coeffs) if c}

    # ----- semantic classification ---------------------------------------

    def kind(self) -> str:
        """One of zero/eta/eta2/i-eta/i-eta2/eta~/iota/incl/other."""
        if self.is_zero:
            return ZERO
        kinds, c = self.entry.kinds, self.coeffs
        if kinds[0] == ETA_TILDE:
            # eta~_r and i eta^2 on two Z/2's for r >= 2; for r = 1 one Z/4
            # on eta~_1 with i eta^2 = 2 eta~_1.
            z = c[0]
            w = c[1] if len(c) > 1 else z >> 1
            if z % 2:
                return ETA_TILDE
            return INCL_ETA2 if w % 2 else ZERO
        live = [k for k, x in zip(kinds, c) if x]
        if len(live) == 1 and live[0] in (ETA, ETA2, INCL_ETA, IOTA, INCL):
            if live[0] == INCL_ETA and c[0] % 2 == 0:
                return OTHER
            return live[0]
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


class GeneratorSymbol(namedtuple("GeneratorSymbol", "kind source target deg", defaults=(1,))):
    """A generator or structural map with its (co)domain, printed by kind.

    ``kind`` covers the identity and degree maps, the Hopf classes eta,
    eta^2, nu', the Moore-space structure maps i, q, eta~_r, eta-_r, the
    comparison maps chi^r_s and the composite transfers built from them.
    ``deg`` is the degree of a degree map.
    """

    __slots__ = ()

    def __str__(self):
        label = f"{DEG} {self.deg}" if self.kind == DEG else self.kind
        return f"{label}: {self.source} -> {self.target}"


def sym_eta(n: int) -> GeneratorSymbol:
    """eta: S^(n+1) -> S^n."""
    return GeneratorSymbol(ETA, sphere(n + 1), sphere(n))


def sym_eta2(n: int) -> GeneratorSymbol:
    """eta^2: S^(n+2) -> S^n."""
    return GeneratorSymbol(ETA2, sphere(n + 2), sphere(n))


def sym_incl(nM: int, order: int) -> GeneratorSymbol:
    """i: S^(nM-1) -> P^nM(order)."""
    return GeneratorSymbol(INCL, sphere(nM - 1), moore(nM, order))


def sym_eta_tilde(nM: int, r: int) -> GeneratorSymbol:
    """eta~_r: S^(nM+1) -> P^nM(2^r)."""
    return GeneratorSymbol(ETA_TILDE, sphere(nM + 1), moore(nM, 2**r))


def sym_eta_bar(nM: int, r: int) -> GeneratorSymbol:
    """eta-_r: P^nM(2^r) -> S^(nM-2)."""
    return GeneratorSymbol(ETA_BAR, moore(nM, 2**r), sphere(nM - 2))


def sym_pinch(nM: int, order: int) -> GeneratorSymbol:
    """q: P^nM(order) -> S^nM."""
    return GeneratorSymbol(PINCH, moore(nM, order), sphere(nM))


def sym_chi(nM: int, r: int, s: int) -> GeneratorSymbol:
    """chi^r_s: P^nM(2^r) -> P^nM(2^s)."""
    return GeneratorSymbol(CHI, moore(nM, 2**r), moore(nM, 2**s))


def _contribution(entry: MapsGroupEntry, kind: str, coeff: int, acc: list[int]) -> None:
    """Accumulate coeff * (the generator of ``kind``) into acc, on the
    generator basis of ``entry``."""
    if coeff == 0:
        return
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
# are not tabulated.  Degree maps keep the generator's kind; chi^r_s
# multiplies by a power of 2 that depends on r and s (apply_transfer).
_COMPOSITION: dict[tuple[str, str], tuple[str | None, int]] = {
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
        raise NotComposable(f"{transfer} cannot follow a class into {x.target}")
    src, out_target = x.source, transfer.target
    if src.kind != SPHERE:
        raise TableMiss("only sphere-sourced classes can be pushed along transfers")
    out_entry = maps_group(src, out_target)
    acc = [0] * len(out_entry.orders)
    for gen_kind, coeff in zip(x.entry.kinds, x.coeffs):
        if coeff == 0:
            continue
        if transfer.kind == DEG:
            if gen_kind == NU_PRIME and transfer.deg not in (0, 1):
                raise TableMiss("degree maps do not act linearly on nu'")
            image, multiple = gen_kind, transfer.deg
        elif (transfer.kind, gen_kind) in _COMPOSITION:
            image, multiple = _COMPOSITION[transfer.kind, gen_kind]
        else:
            raise TableMiss(f"{transfer.kind} . {gen_kind} is not tabulated")
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
    """View a sphere-sourced symbol as the unit class of its group, a
    degree map as that multiple of the identity."""
    if symbol.source.kind != SPHERE:
        return None
    kind, coeff = (IOTA, symbol.deg) if symbol.kind == DEG else (symbol.kind, 1)
    return _pure_entry(maps_group(symbol.source, symbol.target), kind, coeff)


def compose_relation(left: GeneratorSymbol, right: GeneratorSymbol) -> MapClass:
    """Normal form of left . right via the stored relation formulas."""
    if left.source != right.target:
        raise NotComposable(f"{left} cannot follow {right}")
    as_class = _symbol_as_class(right)
    if as_class is not None:
        return apply_transfer(left, as_class)
    if right.kind == CHI and left.kind in (PINCH, ETA_PINCH):
        # q chi^r_s = 2^(r-s) q for r >= s, q for r <= s; likewise after eta.
        r = _moore_exponent(right.source)
        s = _moore_exponent(right.target)
        factor = 2 ** (r - s) if r >= s else 1
        return _pure_entry(maps_group(right.source, left.target), left.kind, factor)
    raise NotComposable(f"no relation stored for {left.kind} . {right.kind}")


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

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

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


class _Move:
    """Base of the move records: a move equals only a move of its own
    type.  Moves are keys of the ``_block`` cache, where tuple equality
    would let a move meet any record or tuple with the same fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class SwapRows(_Move, namedtuple("SwapRows", "i j")):
    __slots__ = ()


class AddRow(_Move, namedtuple("AddRow", "dst src transfer")):
    """row[dst] += transfer . row[src]."""

    __slots__ = ()


class ActBySelfEquiv(_Move, namedtuple("ActBySelfEquiv", "row op")):
    """Act on one row by a self-equivalence of its target summand: ``op``
    is "neg" or "unit_plus_i_eta_q"."""

    __slots__ = ()


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
    if any(x.kind == MOORE and x.order % 2 for x in (src, dst)):
        return ()
    if dst.kind == SPHERE and offset < 0 and dst.n < 3:
        return ()
    return _MOVES.get((src.kind, dst.kind, offset), ())


def transfer_alphabet(src: ElementaryComplex, dst: ElementaryComplex) -> tuple[GeneratorSymbol, ...]:
    """Tabulated maps src -> dst usable for row additions."""
    return tuple(GeneratorSymbol(kind, src, dst) for kind in _move_kinds(src, dst))


def self_equivalences(target: ElementaryComplex) -> tuple[str, ...]:
    if target.kind == SPHERE:
        return ("neg",)
    if target.kind == MOORE and not target.order % 2:
        return ("neg", "unit_plus_i_eta_q")
    return ("neg",)


def _apply_self_equiv(entry: MapClass, op: str) -> MapClass:
    if op == "neg":
        return entry.neg()
    if op == "unit_plus_i_eta_q":
        transfer = GeneratorSymbol(INCL_ETA_PINCH, entry.target, entry.target)
        return entry.add(apply_transfer(transfer, entry))
    raise IllegalOp(f"unknown self-equivalence {op!r}")


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
        g = op.transfer
        if (g.source, g.target) != (v.targets[op.src], v.targets[op.dst]):
            raise IllegalOp(f"{g} does not map row {op.src} to row {op.dst}")
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


def _classify_rows(v: MapVector) -> list[str]:
    kinds = []
    for entry in v.entries:
        k = entry.kind()
        if k != ZERO and k not in _SURVIVORS:
            raise UnsupportedVector(
                f"entry {entry} in [{v.source}, {entry.target}] is outside the normal-form range"
            )
        kinds.append(k)
    return kinds


def normalize(v: MapVector) -> MapVector:
    """Canonical orbit representative with at most one nonzero entry: the
    unit generator of the first _SURVIVORS kind present, at its winning
    (exponent, index), or the zero vector."""
    if v.theta_remainder:
        raise UnsupportedVector("vector carries an unresolved Whitehead-product remainder")
    if v.source.kind != SPHERE:
        raise UnsupportedVector("only sphere-sourced vectors are normalized")
    kinds = _classify_rows(v)
    out = v._replace(entries=tuple(MapClass(e.entry, (0,) * len(e.coeffs)) for e in v.entries))
    for kind, (highest, _) in _SURVIVORS.items():
        slots = [(_exponent(v.targets[i]), i) for i, k in enumerate(kinds) if k == kind]
        if slots:
            _, i = max(slots) if highest else min(slots)
            return out.with_entry(i, _pure_entry(v.entries[i].entry, kind))
    return out


def cofiber(v: MapVector) -> WedgeComplex:
    """Cofiber of a normal-form vector, as a wedge of catalog entries.

    Untouched targets pass through; the single attached cell converts its
    target by the attaching-map kind; a zero vector contributes one extra
    sphere above the source.
    """
    live = [(i, e) for i, e in enumerate(v.entries) if not e.is_zero]
    if len(live) > 1:
        raise NotNormalForm("cofiber needs at most one nonzero entry")
    summands = list(v.targets)
    if not live:
        summands.append(sphere(v.source.n + 1))
        return WedgeComplex(tuple(summands))
    i, entry = live[0]
    kind = entry.kind()
    target = v.targets[i]
    if kind not in _SURVIVORS:
        raise UnsupportedVector(f"no catalog cofiber for a {kind} entry on {target}")
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
            for g in transfer_alphabet(targets[src], targets[dst]):
                moves.append(AddRow(dst, src, g))
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
    is its place here, and the zero class has index 0."""
    return tuple(product(*(range(o) for o in maps_group(source, target).orders)))


def _rows(move) -> tuple[tuple[int, ...], object]:
    """The rows a move reads or writes, and the move on just those rows."""
    if isinstance(move, AddRow):
        return (move.src, move.dst), AddRow(1, 0, move.transfer)
    if isinstance(move, SwapRows):
        return (move.i, move.j), SwapRows(0, 1)
    return (move.row,), ActBySelfEquiv(0, move.op)


@cache
def _block(source: ElementaryComplex, targets: tuple[ElementaryComplex, ...],
           move) -> tuple[int | None, ...]:
    """``move`` on the vector from ``source`` into ``targets`` alone, read
    off ``row_op`` on every block state: entry k is the index of the image
    of block state k, or None where ``row_op`` rejects it.  Block states
    are the tuples of the rows' indices into ``_elements``, numbered in
    ``itertools.product`` order.

    A move neither reads nor changes a row outside its block, so on a whole
    vector it fixes every other row and is legal exactly where its block
    state is: a transfer that cannot follow a map from a non-sphere source
    is None everywhere, the zero state included.
    """
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


def _move_tables(source: ElementaryComplex, targets: tuple[ElementaryComplex, ...],
                 moves) -> tuple[list[tuple[int, int]], list[tuple]]:
    """Each move as an offset table on integer states, assembled from the
    cached ``_block`` of the rows it touches.

    A state is the mixed-radix number of the rows' indices into
    ``_elements``, row 0 most significant: row i's index is
    ``state // stride % size`` for its place (stride, size), returned
    first.  A move becomes (hi, lo, radix, delta): on a state with row
    indices d, its image is the state plus ``delta[d[hi] * radix + d[lo]]``,
    and it is illegal where that entry is None.
    """
    sizes = [len(_elements(source, t)) for t in targets]
    strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    steps = [range(0, n * s, s) for n, s in zip(sizes, strides)]  # per row index
    tables = []
    for move in moves:
        rows, local = _rows(move)
        table = _block(source, tuple(targets[i] for i in rows), local)
        # the offset of each block state, in the block's product order
        offsets = list(map(sum, product(*(steps[i] for i in rows))))
        delta = tuple(None if k is None else offsets[k] - at for k, at in zip(table, offsets))
        hi, lo = rows[0], rows[-1]
        tables.append((hi, lo, sizes[lo] if len(rows) > 1 else 0, delta))
    return list(zip(strides, sizes)), tables


@cache
def _compiled(source: ElementaryComplex, targets: tuple[ElementaryComplex, ...]):
    """What the oracle's closure needs for any vector from ``source`` into
    ``targets``, built once per such pair: the places of ``_move_tables``,
    its tables of the moves that change some state, and each row's
    ``_elements``.  Raises TooLarge (caching nothing) past the oracle's
    bounds."""
    if len(targets) > 4:
        raise TooLarge("oracle supports at most 4 targets")
    total = 1
    for t in targets:
        order = maps_group(source, t).group.order()
        if order is None:
            raise TooLarge(f"entry group [{source}, {t}] is infinite")
        total *= order
    if total > 2**12:
        raise TooLarge(f"total entry-group order {total} exceeds 2^12")
    places, tables = _move_tables(source, targets, _all_moves(targets))
    moves = tuple(m for m in tables if any(m[3]))  # drop moves that fix every state
    return tuple(places), moves, tuple(_elements(source, t) for t in targets)


class Orbit(Mapping):
    """The orbit of a vector under row operations, read-only, keyed like
    ``MapVector.key()`` in the order the closure reached its members,
    ``v.key()`` first.  A member vector is built, through the ``MapClass``
    and ``MapVector`` constructors, only when it is looked up."""

    def __init__(self, v: MapVector, keys):
        self._v = v
        self._keys = dict.fromkeys(keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __getitem__(self, key) -> MapVector:
        if key not in self._keys:
            raise KeyError(key)
        v = self._v
        entries = tuple(MapClass(e.entry, coeffs) for e, coeffs in zip(v.entries, key))
        return MapVector(v.source, v.targets, entries, v.theta_remainder)


def orbit(v: MapVector) -> Orbit:
    """Closure of v under all legal row operations, keyed by coefficients.

    The moves of ``_all_moves`` come as offset tables compiled once per
    source and targets (``_compiled``); the closure then runs over integer
    states, and each reached state's row indices, read through
    ``_elements``, are a member's key.  Members are built as vectors only
    when looked up.
    """
    places, moves, rows = _compiled(v.source, v.targets)
    start = sum(r.index(e.coeffs) * s for r, e, (s, _) in zip(rows, v.entries, places))
    states, seen = [start], {start}
    for state in states:  # a worklist that grows while it is read
        d = [state // s % n for s, n in places]
        for hi, lo, radix, delta in moves:
            step = delta[d[hi] * radix + d[lo]]
            if step:  # None where the move is illegal, 0 where it fixes the state
                image = state + step
                if image not in seen:
                    seen.add(image)
                    states.append(image)
    return Orbit(v, (tuple([r[state // s % n] for r, (s, n) in zip(rows, places)])
                     for state in states))


def oracle_normal_form(v: MapVector) -> MapVector:
    """Lexicographically least element of the row-operation orbit, the
    only member built as a vector."""
    reachable = orbit(v)
    return reachable[min(reachable)]
