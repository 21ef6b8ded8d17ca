"""The calculator's records: immutable, equal and hashed by their fields,
printed as dataclasses print, and never built around their validation.

Value records are namedtuple subclasses whose ``__new__`` validates;
``ElementaryComplex`` (interned, compared by identity) and ``WedgeComplex``
are slotted classes.

The last four tests keep src free of names that only tests read, of
imports it never reads and of reads of another module's private names,
and keep every name that perfbench's tracer rebinds.
"""

import ast
import builtins
import copy
import dataclasses
import importlib.util
import pickle
from pathlib import Path

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
TRANSFER = GeneratorSymbol(DEG, sphere(3), sphere(3))

# Each record with the fields its dataclass had, in order.  _Kind's
# derived values (params, top, pattern, ...) are properties, not fields.
RECORDS = [
    (CyclicFactor(2, 3), "prime exponent"),
    (FgAbelianGroup.of_orders(0, 2, 12), "free_rank pairs free_ring"),
    (KIND, "notation least_n homology family sq2 theta pontryagin"),
    (chang_rt(3, 2, 1), "kind n order r t"),
    (WedgeComplex((sphere(3), sphere(3), moore(4, 2))), "pairs"),
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
    (TRANSFER, "kind source target"),
    (VECTOR, "source targets entries theta_remainder"),
    (SwapRows(0, 1), "i j"),
    (AddRow(1, 0, DEG), "dst src kind"),
    (ActBySelfEquiv(0, "neg"), "row op"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]
# A complex's sort key and notation are kept beside its fields: as
# read-only as they, and carried by every copy.
RECORDS_AND_KEPT = RECORDS + [(chang_rt(3, 2, 1), "notation sort_key")]
KEPT_IDS = IDS + ["ElementaryComplex-kept"]


def rebuild(x):
    """``x`` built again from its fields, through its public constructor."""
    if isinstance(x, WedgeComplex):
        return WedgeComplex(counts=x.pairs)
    return type(x)(*(getattr(x, name) for name in x._fields))


@pytest.mark.parametrize("record, fields", RECORDS_AND_KEPT, ids=KEPT_IDS)
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


@pytest.mark.parametrize("record, fields", RECORDS_AND_KEPT, ids=KEPT_IDS)
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
    with pytest.raises(ValueError, match="negative multiplicity -1"):
        group._replace(pairs=((CyclicFactor(2, 1), -1),))
    merged = group._replace(pairs=((CyclicFactor(2, 1), 1), (CyclicFactor(2, 1), 2)))
    assert merged == FgAbelianGroup.of_orders(2, 2, 2)
    assert merged == FgAbelianGroup._make((0, ((CyclicFactor(2, 1), 3),), "Z"))
    assert FgAbelianGroup.of_orders(2)._replace(free_ring="Z_(2)").free_ring == "Z"

    with pytest.raises(ValueError):
        CyclicFactor(2, 1)._replace(prime=4)
    with pytest.raises(ValueError):
        CyclicFactor._make((2, 0))
    with pytest.raises(ValueError, match="nontrivial theta action needs an index j0"):
        ThetaAction("trivial")._replace(action="nontrivial")
    with pytest.raises(ValueError, match="case B needs an index"):
        Sq2Case("A")._replace(case="B")
    with pytest.raises(ValueError, match="m and d must be non-negative"):
        INV._replace(d=-1)
    with pytest.raises(ValueError, match="torsion group must have free rank 0"):
        INV._replace(torsion=FgAbelianGroup(1))
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


# --------------------------------------------------------------------------
# no src name that only tests read
# --------------------------------------------------------------------------

# The src definitions that no src code reads, each with why it stays.
# perfbench/tracing.py also binds WedgeComplex.summands and __post_init__
# and the method FgAbelianGroup.direct_sum; src reads those, so they need
# no entry here, and neither does a package export that src reads.
KEPT_UNREAD = {
    "abelian.Validated._make": "namedtuple's _replace and copy.replace build through it, "
                               "so they run the validating constructor",
    "catalog.WedgeComplex.wedge": "perfbench/tracing.py counts catalog.wedge calls on it",
    "catalog.WedgeComplex.suspend": "criterion 3 checks that the wedge of Sigma M suspends "
                                    "to that of Sigma^2 M; it inverts desuspend",
    "catalog.chang_t": "the named constructor of a kind that no wedge rule builds",
    "catalog.chang_rt": "the named constructor of a kind that no wedge rule builds",
    "catalog.integral_homology": "a package export; perfbench/tracing.py times it through "
                                 "classifier's import until ROADMAP item 10",
    "catalog.peterson_of_group": "a package export; perfbench/tracing.py times it through "
                                 "classifier's import until ROADMAP item 10",
    "catalog.pontryagin_square_Ct": "criterion 7, and the model of ROADMAP item 8's check",
    "classifier.classify_suspension": "a package export",
    "ehp.fiber_of_E": "ROADMAP item 4 calls it; its result type FiberOfE goes with it",
    "normalizer.compose_relation": "criterion 7, and ROADMAP items 7 and 8",
    "normalizer.oracle_normal_form": "the orbit oracle that normalize is checked against",
}


def _told_apart(tree):
    """The ids of the expressions where ``tree`` tells exception types
    apart: an except clause's type (each member of a tuple), the second
    argument of ``isinstance`` or ``issubclass``, and a class's bases."""
    spots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type:
            spots.append(node.type)
        elif (isinstance(node, ast.Call) and len(node.args) == 2
              and getattr(node.func, "id", "") in ("isinstance", "issubclass")):
            spots.append(node.args[1])
        elif isinstance(node, ast.ClassDef):
            spots.extend(node.bases)
    return {id(n) for spot in spots for n in (spot.elts if isinstance(spot, ast.Tuple) else [spot])}


def _src_definitions_and_readers():
    """Every function, class, method and module-level constant that src
    defines (dunders aside), by qualified name, and the qualified names of
    those that src reads.

    A definition is read where its name occurs outside its own body (for
    a constant, outside its own assignment): a function, class or constant
    as a Name or an attribute, a method as an attribute alone, so that the
    bare Name ``count`` (``itertools.count``) reads no method ``count``.
    Where the attribute's receiver is ``self``, ``cls`` or the name of a
    src class (``MapClass.of``), it reads that class's definition, or that
    of its nearest src base that has one, and no other.  Any other
    receiver may be of any type, so it reads every definition with the
    name: ``inv.torsion`` reads a property ``torsion`` of any class, and
    ``e.is_zero`` one ``is_zero``.  An exception class is read only where
    src tells it apart from other exceptions (``_told_apart``); a ``raise``
    does not read it, since a caller that catches only ``ValueError``
    needs no subclass.  An import reads nothing: code that uses an
    imported name reads it by name, so the package's re-exports and an
    import no code uses do not count.  Strings, comments and doctests are
    not code.
    """
    defined = {}  # qualified name -> (name, node, whether it is a method)
    bases = {}  # class qualified name -> the names of its bases
    reads = []  # (name, receiver, the definitions enclosing it, whether it tells apart)

    def walk(node, prefix, enclosing, owner, telling):
        for child in ast.iter_child_nodes(node):
            inner, qual, inner_owner = enclosing, prefix, owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                inner = enclosing | {child}
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    defined[qual] = (child.name, child, isinstance(node, ast.ClassDef))
                if isinstance(child, ast.ClassDef):
                    inner_owner = qual
                    bases[qual] = [b.id for b in child.bases if isinstance(b, ast.Name)]
            elif isinstance(node, ast.Module) and isinstance(child, (ast.Assign, ast.AnnAssign)):
                inner = enclosing | {child}
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    if not (name.startswith("__") and name.endswith("__")):
                        defined[f"{prefix}.{name}"] = (name, child, False)
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads.append((child.id, None, enclosing, id(child) in telling))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                # the receiver's name; for self and cls, the enclosing class
                value = getattr(child.value, "id", "")
                reads.append((child.attr, owner if value in ("self", "cls") and owner else value,
                              enclosing, id(child) in telling))
            walk(child, qual, inner, inner_owner, telling)

    for path in sorted(Path(catalog.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        walk(tree, path.stem, frozenset(), None, _told_apart(tree))
    by_name, classes = {}, {}
    for qual, (name, _, _) in defined.items():
        by_name.setdefault(name, []).append(qual)
    for qual in bases:
        classes.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)

    def src_class(receiver):
        """The qualified name of the one src class ``receiver`` names, or None."""
        if receiver in bases:  # self or cls, resolved where they were read
            return receiver
        quals = classes.get(receiver, ())
        return quals[0] if len(quals) == 1 else None

    def nearest(cls, name):
        """The definition of ``name`` in ``cls`` or its nearest src base."""
        if f"{cls}.{name}" in defined:
            return [f"{cls}.{name}"]
        for base in map(src_class, bases[cls]):
            if base and (found := nearest(base, name)):
                return found
        return []

    def is_exception(cls):
        """Whether the src class ``cls`` derives from a built-in exception."""
        for base in bases[cls]:
            builtin = getattr(builtins, base, None)
            if isinstance(builtin, type) and issubclass(builtin, BaseException):
                return True
            if src_class(base) and is_exception(src_class(base)):
                return True
        return False

    exceptions = {cls for cls in bases if is_exception(cls)}
    read = set()
    for name, receiver, enclosing, tells_apart in reads:
        if receiver is None:  # a bare Name
            quals = [q for q in by_name.get(name, ()) if not defined[q][2]]
        elif cls := src_class(receiver):
            quals = nearest(cls, name)
        else:
            quals = by_name.get(name, ())
        read.update(q for q in quals
                    if defined[q][1] not in enclosing and (tells_apart or q not in exceptions))
    return defined, read


def test_src_defines_no_name_that_only_tests_read():
    defined, read = _src_definitions_and_readers()
    unread = sorted(set(defined) - read - set(KEPT_UNREAD))
    assert unread == [], "defined in src but read only outside it: " + ", ".join(unread)
    for qual in KEPT_UNREAD:
        assert qual in defined, f"{qual} is kept unread but no longer defined"
        assert qual not in read, f"{qual} has a src reader now: drop its entry"


# The src imports that no src code reads, each with why it stays.
KEPT_IMPORTED = {
    "classifier.integral_homology": "perfbench/tracing.py binds it in classifier's namespace "
                                    "until ROADMAP item 10",
    "classifier.peterson_of_group": "perfbench/tracing.py binds it in classifier's namespace "
                                    "until ROADMAP item 10",
    "cli.maps_group": "perfbench/tracing.py binds it in cli's namespace until ROADMAP item 10",
}


def test_src_imports_no_name_it_never_reads():
    # __init__.py imports to re-export; every other module imports a name
    # to read it as a Name (an attribute's receiver is one).
    unread = set()
    for path in sorted(Path(catalog.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unread.update(f"{path.stem}.{name}" for name in bound if name not in read)
    extra = sorted(unread - set(KEPT_IMPORTED))
    assert extra == [], "imported but never read: " + ", ".join(extra)
    for qual in KEPT_IMPORTED:
        assert qual in unread, f"{qual} is read now: drop its entry"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_src_reads_no_private_name_of_another_module():
    # A module's private names are its own: a sibling reads only its public
    # names, whether as X.name after ``from . import X`` or by
    # ``from .X import name``.
    reads = set()
    for path in sorted(Path(catalog.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings.update(alias.asname or alias.name for alias in node.names)
                else:
                    reads.update(f"{path.stem}: {node.module}.{alias.name}"
                                 for alias in node.names if _private(alias.name))
        reads.update(f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in siblings and _private(node.attr))
    assert not reads, "reads another module's private name: " + ", ".join(sorted(reads))


def test_perfbench_tracer_rebinds_and_restores_every_name():
    # perfbench/tracing.py replaces calculator names by wrappers while it
    # traces.  A name that src no longer defines makes it raise
    # AttributeError, and each name must hold its own object again after.
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    bound = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._patches()]
    with tracer.patched():
        assert all(owner.__dict__[attr] is not original for owner, attr, original in bound)
    assert all(owner.__dict__[attr] is original for owner, attr, original in bound)
