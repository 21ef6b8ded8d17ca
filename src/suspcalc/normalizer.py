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
``normalize``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

from .catalog import (
    MOORE,
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


# --------------------------------------------------------------------------
# semantic kinds of the tabulated generators
# --------------------------------------------------------------------------

ZERO = "zero"
IOTA = "iota"
ETA = "eta"
ETA2 = "eta2"
NU_PRIME = "nu_prime"
INCL = "incl"
INCL_ETA = "incl_eta"
INCL_ETA2 = "incl_eta2"
ETA_TILDE = "eta_tilde"
OTHER = "other"


def _gen_kinds(source: ElementaryComplex, target: ElementaryComplex) -> tuple[str, ...]:
    """Semantic kind of each generator of [source, target], positionally."""
    entry = maps_group(source, target)
    if source.kind == SPHERE and target.kind == SPHERE:
        table = {0: IOTA, 1: ETA, 2: ETA2, 3: NU_PRIME}
        return tuple(table[source.n - target.n] for _ in entry.generators)
    if source.kind == SPHERE and target.kind == MOORE:
        gap = source.n - (target.n - 1)
        if gap == 0:
            return tuple(INCL for _ in entry.generators)
        if gap == 1:
            return tuple(INCL_ETA for _ in entry.generators)
        if gap == 2:
            kinds = [ETA_TILDE, INCL_ETA2]
            return tuple(kinds[: len(entry.generators)])
    return tuple(OTHER for _ in entry.generators)


def _moore_exponent(x: ElementaryComplex) -> int:
    if x.kind != MOORE or x.order < 2 or x.order & (x.order - 1):
        raise ValueError(f"{x} is not a mod-2^r Moore space")
    return x.order.bit_length() - 1


@dataclass(frozen=True)
class MapClass:
    """A homotopy class in [source, target], as coefficients on the
    tabulated generator basis, each reduced modulo its order."""

    source: ElementaryComplex
    target: ElementaryComplex
    coeffs: tuple[int, ...]

    def __post_init__(self):
        entry = self.table_entry
        if len(self.coeffs) != len(entry.orders):
            raise ValueError(
                f"expected {len(entry.orders)} coefficients for [{self.source}, {self.target}]"
            )
        reduced = tuple(
            c % o if o else c for c, o in zip(self.coeffs, entry.orders)
        )
        object.__setattr__(self, "coeffs", reduced)

    @property
    def table_entry(self) -> MapsGroupEntry:
        return maps_group(self.source, self.target)

    @classmethod
    def zero(cls, source, target) -> "MapClass":
        return cls(source, target, (0,) * len(maps_group(source, target).orders))

    @classmethod
    def of(cls, source, target, coefficients: dict[str, int]) -> "MapClass":
        """Build from a generator-name -> coefficient mapping."""
        entry = maps_group(source, target)
        unknown = set(coefficients) - set(entry.generators)
        if unknown:
            raise ValueError(f"unknown generators {sorted(unknown)} for [{source}, {target}]")
        coeffs = tuple(coefficients.get(g, 0) for g in entry.generators)
        return cls(source, target, coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def add(self, other: "MapClass") -> "MapClass":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("cannot add classes in different groups")
        return MapClass(
            self.source, self.target, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, k: int) -> "MapClass":
        return MapClass(self.source, self.target, tuple(k * c for c in self.coeffs))

    def neg(self) -> "MapClass":
        return self.scale(-1)

    def coefficients(self) -> dict[str, int]:
        entry = self.table_entry
        return {g: c for g, c in zip(entry.generators, self.coeffs) if c}

    # ----- semantic classification ---------------------------------------

    def kind(self) -> str:
        """One of zero/eta/eta2/i-eta/i-eta2/eta~/iota/incl/other."""
        if self.is_zero:
            return ZERO
        kinds = _gen_kinds(self.source, self.target)
        if kinds and kinds[0] == ETA_TILDE:
            r = _moore_exponent(self.target)
            if r == 1:
                c = self.coeffs[0] % 4
                if c % 2 == 1:
                    return ETA_TILDE
                if c == 2:
                    return INCL_ETA2
                return ZERO
            z = self.coeffs[0] % 2
            w = self.coeffs[1] % 2 if len(self.coeffs) > 1 else 0
            if z:
                return ETA_TILDE
            if w:
                return INCL_ETA2
            return ZERO
        live = [k for k, c in zip(kinds, self.coeffs) if c]
        if len(live) == 1 and live[0] in (ETA, ETA2, INCL_ETA, IOTA, INCL):
            if live[0] == INCL_ETA and self.coeffs[0] % 2 == 0:
                return OTHER
            return live[0]
        return OTHER

    def __str__(self):
        if self.is_zero:
            return "0"
        entry = self.table_entry
        parts = []
        for g, c in zip(entry.generators, self.coeffs):
            if c == 0:
                continue
            parts.append(g if c == 1 else f"{c}({g})")
        return " + ".join(parts)


# --------------------------------------------------------------------------
# generator symbols and the relation engine
# --------------------------------------------------------------------------

# Transfer kinds: maps between two wedge summands usable in row operations.
T_DEG = "deg"
T_ETA = "eta"
T_ETA2 = "eta2"
T_INCL = "incl"
T_INCL_ETA = "incl_eta"
T_INCL_ETA2 = "incl_eta2"
T_PINCH = "pinch"
T_ETA_PINCH = "eta_pinch"
T_ETA2_PINCH = "eta2_pinch"
T_ETA_BAR = "eta_bar"
T_CHI = "chi"
T_INCL_PINCH = "incl_pinch"
T_INCL_ETA_PINCH = "incl_eta_pinch"
T_INCL_ETA_BAR = "incl_eta_bar"


@dataclass(frozen=True)
class GeneratorSymbol:
    """A named generator or structural map with its (co)domain.

    ``kind`` covers the identity and degree maps, the Hopf classes eta,
    eta^2, nu', the Moore-space structure maps i, q, eta~_r, eta-_r, the
    comparison maps chi^r_s and the composite transfers built from them.
    """

    kind: str
    source: ElementaryComplex
    target: ElementaryComplex
    deg: int = 1  # payload for degree maps

    @property
    def name(self) -> str:
        if self.kind == T_DEG:
            return "iota" if self.deg == 1 else f"deg {self.deg}"
        if self.kind == T_ETA:
            return "eta"
        if self.kind == T_ETA2:
            return "eta^2"
        if self.kind == NU_PRIME:
            return "nu'"
        if self.kind == T_INCL:
            return f"i_{self.source.n}"
        if self.kind == T_INCL_ETA:
            return f"i_{self.target.n - 1} eta"
        if self.kind == T_INCL_ETA2:
            return f"i_{self.target.n - 1} eta^2"
        if self.kind == ETA_TILDE:
            return f"eta~_{_moore_exponent(self.target)}"
        if self.kind == T_ETA_BAR:
            return f"eta-_{_moore_exponent(self.source)}"
        if self.kind == T_PINCH:
            return f"q_{self.source.n}"
        if self.kind == T_ETA_PINCH:
            return f"eta q_{self.source.n}"
        if self.kind == T_ETA2_PINCH:
            return f"eta^2 q_{self.source.n}"
        if self.kind == T_CHI:
            return f"chi^{_moore_exponent(self.source)}_{_moore_exponent(self.target)}"
        if self.kind == T_INCL_PINCH:
            return f"i_{self.target.n - 1} q_{self.source.n}"
        if self.kind == T_INCL_ETA_PINCH:
            return f"i_{self.target.n - 1} eta q_{self.source.n}"
        if self.kind == T_INCL_ETA_BAR:
            return f"i_{self.target.n - 1} eta-_{_moore_exponent(self.source)}"
        return self.kind

    def __str__(self):
        return f"{self.name}: {self.source} -> {self.target}"


def sym_eta(n: int) -> GeneratorSymbol:
    """eta: S^(n+1) -> S^n."""
    return GeneratorSymbol(T_ETA, sphere(n + 1), sphere(n))


def sym_eta2(n: int) -> GeneratorSymbol:
    """eta^2: S^(n+2) -> S^n."""
    return GeneratorSymbol(T_ETA2, sphere(n + 2), sphere(n))


def sym_incl(nM: int, order: int) -> GeneratorSymbol:
    """i: S^(nM-1) -> P^nM(order)."""
    return GeneratorSymbol(T_INCL, sphere(nM - 1), moore(nM, order))


def sym_eta_tilde(nM: int, r: int) -> GeneratorSymbol:
    """eta~_r: S^(nM+1) -> P^nM(2^r)."""
    return GeneratorSymbol(ETA_TILDE, sphere(nM + 1), moore(nM, 2**r))


def sym_eta_bar(nM: int, r: int) -> GeneratorSymbol:
    """eta-_r: P^nM(2^r) -> S^(nM-2)."""
    return GeneratorSymbol(T_ETA_BAR, moore(nM, 2**r), sphere(nM - 2))


def sym_pinch(nM: int, order: int) -> GeneratorSymbol:
    """q: P^nM(order) -> S^nM."""
    return GeneratorSymbol(T_PINCH, moore(nM, order), sphere(nM))


def sym_chi(nM: int, r: int, s: int) -> GeneratorSymbol:
    """chi^r_s: P^nM(2^r) -> P^nM(2^s)."""
    return GeneratorSymbol(T_CHI, moore(nM, 2**r), moore(nM, 2**s))


def _contribution(target: ElementaryComplex, out_kind: str, coeff: int,
                  acc: list[int], kinds: tuple[str, ...]) -> None:
    """Accumulate coeff * (generator of semantic kind out_kind) into acc."""
    if coeff == 0 or out_kind == ZERO:
        return
    if target.kind == MOORE and out_kind == INCL_ETA2 and _moore_exponent(target) == 1:
        # With r = 1 the group is Z/4 on eta~_1 and i eta^2 = 2 eta~_1.
        idx = kinds.index(ETA_TILDE)
        acc[idx] += 2 * coeff
        return
    if out_kind not in kinds:
        raise TableMiss(f"no generator of kind {out_kind} in target group")
    acc[kinds.index(out_kind)] += coeff


def apply_transfer(transfer: GeneratorSymbol, entry: MapClass) -> MapClass:
    """Left-compose a transfer map with a sphere-sourced class."""
    if transfer.source != entry.target:
        raise NotComposable(f"{transfer} cannot follow a class into {entry.target}")
    src, out_target = entry.source, transfer.target
    if src.kind != SPHERE:
        raise TableMiss("only sphere-sourced classes can be pushed along transfers")
    out_entry = maps_group(src, out_target)
    out_kinds = _gen_kinds(src, out_target)
    acc = [0] * len(out_entry.orders)
    in_kinds = _gen_kinds(src, entry.target)
    tk = transfer.kind
    for gen_kind, coeff in zip(in_kinds, entry.coeffs):
        if coeff == 0:
            continue
        if tk == T_DEG:
            if gen_kind == NU_PRIME and transfer.deg not in (0, 1):
                raise TableMiss("degree maps do not act linearly on nu'")
            _contribution(out_target, gen_kind, transfer.deg * coeff, acc, out_kinds)
        elif tk == T_ETA:
            image = {IOTA: ETA, ETA: ETA2}.get(gen_kind)
            if image is not None:
                _contribution(out_target, image, coeff, acc, out_kinds)
            elif gen_kind == ETA2 and out_target == sphere(3):
                _contribution(out_target, NU_PRIME, 2 * coeff, acc, out_kinds)
            else:
                raise TableMiss(f"eta . {gen_kind} is not tabulated")
        elif tk == T_ETA2:
            if gen_kind == IOTA:
                _contribution(out_target, ETA2, coeff, acc, out_kinds)
            elif gen_kind == ETA and out_target == sphere(3):
                _contribution(out_target, NU_PRIME, 2 * coeff, acc, out_kinds)
            else:
                raise TableMiss(f"eta^2 . {gen_kind} is not tabulated")
        elif tk == T_INCL:
            image = {IOTA: INCL, ETA: INCL_ETA, ETA2: INCL_ETA2}.get(gen_kind)
            if image is None:
                raise TableMiss(f"i . {gen_kind} is not tabulated")
            _contribution(out_target, image, coeff, acc, out_kinds)
        elif tk == T_INCL_ETA:
            image = {IOTA: INCL_ETA, ETA: INCL_ETA2}.get(gen_kind)
            if image is None:
                raise TableMiss(f"i eta . {gen_kind} is not tabulated")
            _contribution(out_target, image, coeff, acc, out_kinds)
        elif tk == T_INCL_ETA2:
            if gen_kind != IOTA:
                raise TableMiss(f"i eta^2 . {gen_kind} is not tabulated")
            _contribution(out_target, INCL_ETA2, coeff, acc, out_kinds)
        elif tk == T_PINCH:
            if gen_kind == ETA_TILDE:
                _contribution(out_target, ETA, coeff, acc, out_kinds)
            # q kills i, i eta, i eta^2
        elif tk == T_ETA_PINCH:
            if gen_kind == ETA_TILDE:
                _contribution(out_target, ETA2, coeff, acc, out_kinds)
        elif tk == T_ETA2_PINCH:
            if gen_kind == ETA_TILDE:
                if out_target != sphere(3):
                    raise TableMiss("eta^3 is only tabulated into S^3")
                _contribution(out_target, NU_PRIME, 2 * coeff, acc, out_kinds)
        elif tk == T_ETA_BAR:
            r = _moore_exponent(transfer.source)
            if gen_kind == INCL:
                _contribution(out_target, ETA, coeff, acc, out_kinds)
            elif gen_kind == INCL_ETA:
                _contribution(out_target, ETA2, coeff, acc, out_kinds)
            elif gen_kind == ETA_TILDE:
                if r != 1:
                    raise TableMiss("eta-_r . eta~_r is only tabulated for r = 1")
                _contribution(out_target, NU_PRIME, coeff, acc, out_kinds)
            elif gen_kind == INCL_ETA2:
                if out_target != sphere(3):
                    raise TableMiss("eta^3 is only tabulated into S^3")
                _contribution(out_target, NU_PRIME, 2 * coeff, acc, out_kinds)
            else:
                raise TableMiss(f"eta- . {gen_kind} is not tabulated")
        elif tk == T_CHI:
            r = _moore_exponent(transfer.source)
            s = _moore_exponent(transfer.target)
            factor = 1 if r >= s else 2 ** (s - r)
            if gen_kind in (INCL, INCL_ETA, INCL_ETA2):
                _contribution(out_target, gen_kind, factor * coeff, acc, out_kinds)
            elif gen_kind == ETA_TILDE:
                # chi^r_s eta~_r = eta~_s for s >= r and 2^(r-s) eta~_s for s <= r.
                tilde_factor = 1 if s >= r else 2 ** (r - s)
                _contribution(out_target, ETA_TILDE, tilde_factor * coeff, acc, out_kinds)
            else:
                raise TableMiss(f"chi . {gen_kind} is not tabulated")
        elif tk == T_INCL_PINCH:
            if gen_kind == ETA_TILDE:
                _contribution(out_target, INCL_ETA, coeff, acc, out_kinds)
        elif tk == T_INCL_ETA_PINCH:
            if gen_kind == ETA_TILDE:
                _contribution(out_target, INCL_ETA2, coeff, acc, out_kinds)
        elif tk == T_INCL_ETA_BAR:
            if gen_kind == INCL:
                _contribution(out_target, INCL_ETA, coeff, acc, out_kinds)
            elif gen_kind == INCL_ETA:
                _contribution(out_target, INCL_ETA2, coeff, acc, out_kinds)
            elif gen_kind == INCL_ETA2:
                pass  # i eta^3 vanishes below the tabulated range
            else:
                raise TableMiss(f"i eta- . {gen_kind} is not tabulated")
        else:
            raise TableMiss(f"unknown transfer kind {tk}")
    return MapClass(src, out_target, tuple(acc))


_UNIT_KINDS = {
    T_DEG: IOTA,
    T_ETA: ETA,
    T_ETA2: ETA2,
    T_INCL: INCL,
    T_INCL_ETA: INCL_ETA,
    T_INCL_ETA2: INCL_ETA2,
    ETA_TILDE: ETA_TILDE,
}


def _symbol_as_class(symbol: GeneratorSymbol) -> MapClass | None:
    """View a sphere-sourced symbol as the unit class of its group."""
    if symbol.source.kind != SPHERE:
        return None
    sem = _UNIT_KINDS.get(symbol.kind)
    if sem is None:
        return None
    entry = maps_group(symbol.source, symbol.target)
    kinds = _gen_kinds(symbol.source, symbol.target)
    acc = [0] * len(entry.orders)
    coeff = symbol.deg if symbol.kind == T_DEG else 1
    _contribution(symbol.target, sem, coeff, acc, kinds)
    return MapClass(symbol.source, symbol.target, tuple(acc))


def compose_relation(left: GeneratorSymbol, right: GeneratorSymbol) -> MapClass:
    """Normal form of left . right via the stored relation formulas."""
    if left.source != right.target:
        raise NotComposable(f"{left} cannot follow {right}")
    as_class = _symbol_as_class(right)
    if as_class is not None:
        return apply_transfer(left, as_class)
    if right.kind == T_CHI and left.kind in (T_PINCH, T_ETA_PINCH):
        # q chi^r_s = 2^(r-s) q for r >= s, q for r <= s; likewise after eta.
        r = _moore_exponent(right.source)
        s = _moore_exponent(right.target)
        factor = 2 ** (r - s) if r >= s else 1
        name = f"q_{right.source.n}" if left.kind == T_PINCH else f"eta q_{right.source.n}"
        return MapClass.of(right.source, left.target, {name: factor})
    raise NotComposable(f"no relation stored for {left.name} . {right.name}")


# --------------------------------------------------------------------------
# map vectors and row operations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MapVector:
    """A column vector of components of a map from a sphere into a wedge.

    ``theta_remainder`` marks a symbolically unresolved Whitehead-product
    term; vectors carrying it are outside the normalizable regime.
    """

    source: ElementaryComplex
    targets: tuple[ElementaryComplex, ...]
    entries: tuple[MapClass, ...]
    theta_remainder: bool = False

    def __post_init__(self):
        if len(self.targets) != len(self.entries):
            raise ValueError("one entry per target required")
        for target, entry in zip(self.targets, self.entries):
            if entry.source != self.source or entry.target != target:
                raise ValueError(f"entry {entry} does not live in [{self.source}, {target}]")

    @classmethod
    def of(cls, source: ElementaryComplex, components: list[tuple[ElementaryComplex, dict[str, int]]],
           theta_remainder: bool = False) -> "MapVector":
        targets = tuple(t for t, _ in components)
        entries = tuple(MapClass.of(source, t, c) for t, c in components)
        return cls(source, targets, entries, theta_remainder)

    @classmethod
    def zero(cls, source: ElementaryComplex, targets: tuple[ElementaryComplex, ...]) -> "MapVector":
        return cls(source, targets, tuple(MapClass.zero(source, t) for t in targets))

    def with_entry(self, i: int, entry: MapClass) -> "MapVector":
        entries = list(self.entries)
        entries[i] = entry
        return replace(self, entries=tuple(entries))

    def key(self) -> tuple:
        return tuple(e.coeffs for e in self.entries)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def pretty(self) -> str:
        rows = [f"  {e} : {self.source} -> {t}" for t, e in zip(self.targets, self.entries)]
        return "(\n" + "\n".join(rows) + "\n)"

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


@dataclass(frozen=True)
class SwapRows:
    i: int
    j: int


@dataclass(frozen=True)
class AddRow:
    """row[dst] += transfer . row[src]."""

    dst: int
    src: int
    transfer: GeneratorSymbol


@dataclass(frozen=True)
class ActBySelfEquiv:
    """Act on one row by a self-equivalence of its target summand."""

    row: int
    op: str  # "neg" or "unit_plus_i_eta_q"


def transfer_alphabet(src: ElementaryComplex, dst: ElementaryComplex) -> tuple[GeneratorSymbol, ...]:
    """Tabulated maps src -> dst usable for row additions."""
    out: list[GeneratorSymbol] = []
    if src.kind == SPHERE and dst.kind == SPHERE:
        if dst.n == src.n:
            out.append(GeneratorSymbol(T_DEG, src, dst, 1))
        elif dst.n == src.n - 1 and dst.n >= 3:
            out.append(GeneratorSymbol(T_ETA, src, dst))
        elif dst.n == src.n - 2 and dst.n >= 3:
            out.append(GeneratorSymbol(T_ETA2, src, dst))
    elif src.kind == SPHERE and dst.kind == MOORE and not dst.order % 2:
        if src.n == dst.n - 1:
            out.append(GeneratorSymbol(T_INCL, src, dst))
        elif src.n == dst.n:
            out.append(GeneratorSymbol(T_INCL_ETA, src, dst))
        elif src.n == dst.n + 1:
            out.append(GeneratorSymbol(T_INCL_ETA2, src, dst))
    elif src.kind == MOORE and dst.kind == SPHERE and not src.order % 2:
        if dst.n == src.n:
            out.append(GeneratorSymbol(T_PINCH, src, dst))
        elif dst.n == src.n - 1 and dst.n >= 3:
            out.append(GeneratorSymbol(T_ETA_PINCH, src, dst))
        elif dst.n == src.n - 2 and dst.n >= 3:
            out.append(GeneratorSymbol(T_ETA_BAR, src, dst))
            out.append(GeneratorSymbol(T_ETA2_PINCH, src, dst))
    elif src.kind == MOORE and dst.kind == MOORE and not src.order % 2 and not dst.order % 2:
        if dst.n == src.n:
            out.append(GeneratorSymbol(T_CHI, src, dst))
            out.append(GeneratorSymbol(T_INCL_ETA_PINCH, src, dst))
        elif dst.n == src.n + 1:
            out.append(GeneratorSymbol(T_INCL_PINCH, src, dst))
        elif dst.n == src.n - 1:
            out.append(GeneratorSymbol(T_INCL_ETA_BAR, src, dst))
    return tuple(out)


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
        transfer = GeneratorSymbol(T_INCL_ETA_PINCH, entry.target, entry.target)
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
        return replace(v, entries=tuple(entries))
    if isinstance(op, AddRow):
        if op.dst == op.src:
            raise IllegalOp("use ActBySelfEquiv for diagonal moves")
        if not (0 <= op.dst < len(v.targets) and 0 <= op.src < len(v.targets)):
            raise IllegalOp("row index out of range")
        g = op.transfer
        if (g.source, g.target) != (v.targets[op.src], v.targets[op.dst]):
            raise IllegalOp(f"{g} does not map row {op.src} to row {op.dst}")
        legal = transfer_alphabet(g.source, g.target)
        if not any(h.kind == g.kind for h in legal):
            raise IllegalOp(f"{g.name} is not in the move alphabet")
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

def _classify_rows(v: MapVector) -> list[str]:
    kinds = []
    for entry in v.entries:
        k = entry.kind()
        if k in (IOTA, INCL, OTHER):
            raise UnsupportedVector(
                f"entry {entry} in [{v.source}, {entry.target}] is outside the normal-form range"
            )
        kinds.append(k)
    return kinds


def _pure_entry(source, target, kind: str) -> MapClass:
    """The canonical single-generator entry of the given semantic kind."""
    entry = maps_group(source, target)
    kinds = _gen_kinds(source, target)
    acc = [0] * len(entry.orders)
    _contribution(target, kind, 1, acc, kinds)
    return MapClass(source, target, tuple(acc))


def normalize(v: MapVector) -> MapVector:
    """Canonical orbit representative with at most one nonzero entry.

    Survivor selection: an odd eta~ at minimal (exponent, index); else an
    eta at minimal index; else an i-eta at maximal (exponent, index);
    else an eta^2 at minimal index; else an i-eta^2 at maximal
    (exponent, index); else the zero vector.
    """
    if v.theta_remainder:
        raise UnsupportedVector("vector carries an unresolved Whitehead-product remainder")
    if v.source.kind != SPHERE:
        raise UnsupportedVector("only sphere-sourced vectors are normalized")
    kinds = _classify_rows(v)

    def slots(kind):
        return [i for i, k in enumerate(kinds) if k == kind]

    survivor = None
    survivor_kind = None
    if slots(ETA_TILDE):
        survivor = min(slots(ETA_TILDE), key=lambda i: (_moore_exponent(v.targets[i]), i))
        survivor_kind = ETA_TILDE
    elif slots(ETA):
        survivor = min(slots(ETA))
        survivor_kind = ETA
    elif slots(INCL_ETA):
        survivor = max(slots(INCL_ETA), key=lambda i: (_moore_exponent(v.targets[i]), i))
        survivor_kind = INCL_ETA
    elif slots(ETA2):
        survivor = min(slots(ETA2))
        survivor_kind = ETA2
    elif slots(INCL_ETA2):
        survivor = max(slots(INCL_ETA2), key=lambda i: (_moore_exponent(v.targets[i]), i))
        survivor_kind = INCL_ETA2
    out = MapVector.zero(v.source, v.targets)
    if survivor is not None:
        out = out.with_entry(survivor, _pure_entry(v.source, v.targets[survivor], survivor_kind))
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
    if kind == ETA and target.kind == SPHERE:
        summands[i] = chang_eta(target.n)
    elif kind == ETA2 and target.kind == SPHERE:
        summands[i] = a_eta2(target.n)
    elif kind == INCL_ETA and target.kind == MOORE:
        summands[i] = chang_r(target.n - 1, _moore_exponent(target))
    elif kind == INCL_ETA2 and target.kind == MOORE:
        summands[i] = a_2r_eta2(target.n - 1, _moore_exponent(target))
    elif kind == ETA_TILDE and target.kind == MOORE:
        summands[i] = a_tilde(target.n - 1, _moore_exponent(target))
    else:
        raise UnsupportedVector(f"no catalog cofiber for a {kind} entry on {target}")
    return WedgeComplex(tuple(summands))


# --------------------------------------------------------------------------
# brute-force orbit oracle
# --------------------------------------------------------------------------

def _entry_group_order(source, target) -> int | None:
    orders = maps_group(source, target).orders
    if any(o == 0 for o in orders):
        return None
    total = 1
    for o in orders:
        total *= o
    return total


def _all_moves(v: MapVector):
    n = len(v.targets)
    moves = []
    for dst in range(n):
        for src in range(n):
            if dst == src:
                continue
            for g in transfer_alphabet(v.targets[src], v.targets[dst]):
                moves.append(AddRow(dst, src, g))
    for i in range(n):
        for op in self_equivalences(v.targets[i]):
            moves.append(ActBySelfEquiv(i, op))
    for i in range(n):
        for j in range(i + 1, n):
            if v.targets[i] == v.targets[j]:
                moves.append(SwapRows(i, j))
    return moves


def orbit(v: MapVector) -> dict[tuple, MapVector]:
    """Closure of v under all legal row operations, keyed by coefficients."""
    if len(v.targets) > 4:
        raise TooLarge("oracle supports at most 4 targets")
    total = 1
    for t in v.targets:
        order = _entry_group_order(v.source, t)
        if order is None:
            raise TooLarge(f"entry group [{v.source}, {t}] is infinite")
        total *= order
    if total > 2**12:
        raise TooLarge(f"total entry-group order {total} exceeds 2^12")
    moves = _all_moves(v)
    seed = os.environ.get("SUSPCALC_SEED")
    if seed is not None:
        # Exploration order is irrelevant to the result; the seed only
        # shuffles the queue to make that easy to demonstrate.
        random.Random(seed).shuffle(moves)
    seen: dict[tuple, MapVector] = {v.key(): v}
    frontier = [v]
    while frontier:
        current = frontier.pop()
        for move in moves:
            try:
                image = row_op(current, move)
            except IllegalOp:
                continue
            key = image.key()
            if key not in seen:
                seen[key] = image
                frontier.append(image)
    return seen


def oracle_normal_form(v: MapVector) -> MapVector:
    """Lexicographically least element of the row-operation orbit."""
    reachable = orbit(v)
    return reachable[min(reachable)]
