"""The calculator's records: immutable, equal and hashed by their fields,
printed as dataclasses print, and never built around their validation.

Value records are namedtuple subclasses whose ``__new__`` validates;
``ElementaryComplex`` (interned, compared by identity) and ``WedgeComplex``
are slotted classes.
"""

import copy
import dataclasses
import pickle

import pytest

from suspcalc import catalog, cli, ehp
from suspcalc.abelian import CyclicFactor, FgAbelianGroup
from suspcalc.catalog import (
    CHANG_R,
    ElementaryComplex,
    WedgeComplex,
    chang_r,
    chang_rt,
    maps_group,
    moore,
    operation_profile,
    sphere,
)
from suspcalc.classifier import (
    InvalidInvariants,
    ManifoldInvariants,
    Sq2Case,
    ThetaAction,
    classify_double_suspension,
    validate_roundtrip,
)
from suspcalc.normalizer import (
    DEG,
    ActBySelfEquiv,
    AddRow,
    GeneratorSymbol,
    MapVector,
    SwapRows,
)

INV = ManifoldInvariants(1, 2, FgAbelianGroup.of_orders(2, 8), False, ThetaAction("trivial"),
                         Sq2Case("B", 2), False, "sample")
REPORT = classify_double_suspension(INV)
KIND = catalog._KINDS[CHANG_R]
ENTRY = maps_group(sphere(5), moore(4, 4))
# Values kept in the instance dict on first read, which copies must carry.
assert REPORT.stages and KIND.pattern and ENTRY.group
VECTOR = MapVector.of(sphere(5), [(sphere(4), {"eta": 1}), (moore(4, 4), {"eta~_2": 1})])
TRANSFER = GeneratorSymbol(DEG, sphere(3), sphere(3), 3)

# Each record with the fields its dataclass had, in order.  _Kind's
# derived values (params, top, pattern, ...) are properties, not fields.
RECORDS = [
    (CyclicFactor(2, 3), "prime exponent"),
    (FgAbelianGroup.of_orders(0, 2, 12), "free_rank pairs free_ring"),
    (KIND, "notation least_n homology family sq2 theta pontryagin"),
    (chang_rt(3, 2, 1), "kind n order r t"),
    (WedgeComplex.of(sphere(3), sphere(3), moore(4, 2)), "pairs"),
    (operation_profile(chang_r(2, 1)), "complex mod2_dims sq2 bocksteins theta pontryagin"),
    (ENTRY, "source target generators orders kinds"),
    (ThetaAction("nontrivial", 1), "action j0"),
    (Sq2Case("B", 1), "case index"),
    (INV, "m d torsion spin theta sq2_case postnikov_trivial label"),
    (REPORT.sigma, "reason"),
    (REPORT.stages, "w3 w4 w4_symbolic sigma_w4"),
    (validate_roundtrip(INV, REPORT)[0], "name passed detail"),
    (REPORT, "invariants branch sigma2 sigma top notes"),
    (cli.Batch(False, [(INV, REPORT)], True), "single reports declined"),
    (ehp.hopf_table(chang_r(4, 2)), "summand domain_group codomain_group cokernel "
                                    "kernel_trivial rule"),
    (ehp.is_E_surjective(REPORT), "surjective justification"),
    (ehp.fiber_of_E(True, REPORT), "empty coker cardinality"),
    (VECTOR.entries[1], "entry coeffs"),
    (TRANSFER, "kind source target deg"),
    (VECTOR, "source targets entries theta_remainder"),
    (SwapRows(0, 1), "i j"),
    (AddRow(1, 0, TRANSFER), "dst src transfer"),
    (ActBySelfEquiv(0, "neg"), "row op"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


def rebuild(x):
    """``x`` built again from its fields, through its public constructor."""
    if isinstance(x, ElementaryComplex):
        return ElementaryComplex(x.kind, x.n, x.order, x.r, x.t)
    if isinstance(x, WedgeComplex):
        return WedgeComplex(counts=x.pairs)
    if isinstance(x, FgAbelianGroup):
        return FgAbelianGroup(x.free_rank, free_ring=x.free_ring, counts=x.pairs)
    return type(x)(*(getattr(x, name) for name in x._fields))


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, fields):
    for name in fields.split():
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(record, fields):
    again = rebuild(record)
    assert again == record and not again != record
    try:
        expected = hash(record)
    except TypeError:  # a list field (Batch.reports) makes the record unhashable
        with pytest.raises(TypeError):
            hash(again)
    else:
        assert hash(again) == expected
    if isinstance(record, ElementaryComplex):
        assert again is record  # interned
        assert record != chang_rt(3, 2, 2)
    else:
        assert record != () and record != object()


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(record, fields):
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(record) and other == record
        assert all(getattr(other, name) == getattr(record, name) for name in fields.split())
        if isinstance(record, ElementaryComplex):
            assert other is record


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(record, fields):
    names = fields.split()
    as_dataclass = dataclasses.make_dataclass(type(record).__qualname__, names)
    assert repr(record) == repr(as_dataclass(*(getattr(record, name) for name in names)))


def test_replace_builds_through_the_validating_constructor():
    # Each record whose constructor validates or normalizes: _replace and
    # _make (and copy.replace, where the interpreter has it) run it.
    group = FgAbelianGroup.of_orders(2)
    with pytest.raises(ValueError):
        group._replace(free_rank=-1)
    with pytest.raises(ValueError):
        group._replace(free_ring="Q")
    merged = group._replace(pairs=((CyclicFactor(2, 1), 1), (CyclicFactor(2, 1), 2)))
    assert merged == FgAbelianGroup.of_orders(2, 2, 2)
    assert merged == FgAbelianGroup._make((0, ((CyclicFactor(2, 1), 3),), "Z"))
    assert FgAbelianGroup.of_orders(2)._replace(free_ring="Z_(2)").free_ring == "Z"

    with pytest.raises(ValueError):
        CyclicFactor(2, 1)._replace(prime=4)
    with pytest.raises(ValueError):
        CyclicFactor._make((2, 0))
    with pytest.raises(InvalidInvariants):
        ThetaAction("trivial")._replace(action="nontrivial")
    with pytest.raises(InvalidInvariants):
        Sq2Case("A")._replace(case="B")
    with pytest.raises(InvalidInvariants):
        INV._replace(d=-1)
    with pytest.raises(InvalidInvariants):
        INV._replace(torsion=FgAbelianGroup.free(1))
    assert INV._replace(label=None).two_exponents == INV.two_exponents

    z4 = VECTOR.entries[1]
    assert z4._replace(coeffs=(5, 3)).coeffs == (1, 1)  # reduced like a new class
    with pytest.raises(ValueError):
        z4._replace(coeffs=(1,))
    with pytest.raises(ValueError):
        VECTOR._replace(targets=VECTOR.targets[:1])
    with pytest.raises(ValueError):
        VECTOR._replace(entries=VECTOR.entries[::-1])
    with pytest.raises(ValueError):
        VECTOR.with_entry(0, z4)  # a class of [S^5, P^4(4)] in the S^4 row

    replace = getattr(copy, "replace", None)
    if replace is not None:  # Python 3.13 and later
        with pytest.raises(ValueError):
            replace(group, free_rank=-1)
        with pytest.raises(ValueError):
            replace(VECTOR, entries=VECTOR.entries[::-1])


def test_moves_of_different_types_never_compare_equal():
    moves = [SwapRows(0, 1), ActBySelfEquiv(0, 1), AddRow(0, 1, TRANSFER)]
    lookalikes = [(0, 1), (0, 1), (0, 1, TRANSFER)]
    for i, move in enumerate(moves):
        assert move == type(move)(*move) and hash(move) == hash(type(move)(*move))
        for other in moves[:i] + moves[i + 1:] + lookalikes:
            assert move != other and not move == other
            assert other != move and not other == move
        assert {move: 1}.get(lookalikes[i]) is None
        assert {lookalikes[i]: 1}.get(move) is None
