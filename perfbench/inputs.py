"""Seeded input generators for the three workloads.

Everything here is the benchmark's own: descriptors and map vectors are
plain JSON-ready dicts built from a ``random.Random``, without calling
the calculator, so the program receives only generated inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

SPIN_TRIVIAL = "spin-theta-trivial"
SPIN_NONTRIVIAL = "spin-theta-nontrivial"
CASE_A = "nonspin-case-a"
CASE_B = "nonspin-case-b"
CASE_C = "nonspin-case-c"
BRANCHES = (SPIN_TRIVIAL, SPIN_NONTRIVIAL, CASE_A, CASE_B, CASE_C)

ODD_ORDERS = ((3, 1), (5, 1), (3, 2), (7, 1))  # 3, 5, 9, 7 as (prime, exponent)


@dataclass(frozen=True)
class Reject:
    """One invalid input, sent alone, with the outcome the CLI documents.

    ``labels`` lists descriptors of the same input that must still be
    reported; ``defect`` names a known defect of the program that makes
    this input fail today (it still counts as a failed operation).
    """

    kind: str
    argv: tuple[str, ...]
    stdin: str
    exit_code: int
    labels: tuple[str, ...] = ()
    defect: str | None = None


def _torsion_json(rng: random.Random, factors: list[tuple[int, int]]) -> list[dict]:
    """Factors as schema items, with repeated factors sometimes merged
    into one item carrying a multiplicity."""
    rng.shuffle(factors)
    items: list[dict] = []
    for prime, exponent in factors:
        same = [it for it in items if (it["prime"], it["exponent"]) == (prime, exponent)]
        if same and rng.random() < 0.5:
            same[0]["multiplicity"] = same[0].get("multiplicity", 1) + 1
        else:
            items.append({"prime": prime, "exponent": exponent})
    return items


def descriptor(rng: random.Random, label: str, branch: str, m: int, d: int,
               two_exponents: list[int], odd: list[tuple[int, int]], postnikov: bool) -> dict:
    """A valid descriptor on the given branch; indices point into the
    ascending 2-exponent list, as the schema documents."""
    n = len(two_exponents)
    theta: dict = {"action": "trivial"}
    sq2: dict = {"case": "not_applicable"}
    if branch == SPIN_NONTRIVIAL:
        theta = {"action": "nontrivial", "j0": rng.randint(1, n)}
    elif branch == CASE_A:
        sq2 = {"case": "A"}
    elif branch == CASE_B:
        sq2 = {"case": "B", "j1": rng.randint(1, n)}
    elif branch == CASE_C:
        sq2 = {"case": "C", "j2": rng.randint(1, n)}
    factors = [(2, r) for r in two_exponents] + list(odd)
    return {
        "label": label,
        "m": m,
        "d": d,
        "torsion": _torsion_json(rng, factors),
        "spin": branch in (SPIN_TRIVIAL, SPIN_NONTRIVIAL),
        "theta": theta,
        "sq2_case": sq2,
        "postnikov_trivial": postnikov,
    }


def _needs(branch: str) -> tuple[int, int]:
    """Minimum (2-factor count, d) a branch needs to be valid."""
    if branch == CASE_A:
        return 0, 1
    if branch in (SPIN_NONTRIVIAL, CASE_B, CASE_C):
        return 1, 0
    return 0, 0


# --------------------------------------------------------------------------
# batch-mixed
# --------------------------------------------------------------------------

def small_descriptors(rng: random.Random, count: int) -> list[dict]:
    """Small valid descriptors in the style of the test suite's random
    invariants: m, d in 0..3, up to three 2-primary factors (exponent
    1..4) plus up to two odd-primary ones.  Branches cycle through all
    five and the Postnikov flag alternates, so every batch holds each
    branch and each flag value in fixed shares."""
    out = []
    for i in range(count):
        branch = BRANCHES[i % len(BRANCHES)]
        min_two, min_d = _needs(branch)
        two = [rng.randint(1, 4) for _ in range(rng.randint(min_two, 3))]
        odd = [rng.choice(ODD_ORDERS) for _ in range(rng.randint(0, 2))]
        m, d = rng.randint(0, 3), rng.randint(min_d, 3)
        out.append(descriptor(rng, f"b{i}", branch, m, d, sorted(two), odd, i % 4 < 2))
    rng.shuffle(out)
    return out


def declined_descriptor(rng: random.Random, label: str) -> dict:
    """Non-spin with nontrivial secondary-operation action: exit 3."""
    two = sorted(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    out = descriptor(rng, label, CASE_B, rng.randint(0, 3), rng.randint(0, 3), two, [], True)
    out["theta"] = {"action": "nontrivial", "j0": rng.randint(1, len(two))}
    return out


def descriptor_rejects(rng: random.Random, valid: list[dict]) -> list[Reject]:
    """Schema violations, inconsistent invariants and the declined case.

    Each is sent alone through one of the three descriptor commands.
    The declined descriptor inside a batch is a known defect: the whole
    batch aborts with no report for its valid members.
    """
    commands = [("classify", "--json", "--stages", "--validate"), ("cohomotopy", "--json"),
                ("validate",)]

    def base() -> dict:
        return json.loads(json.dumps(rng.choice(valid)))

    spin = [d for d in valid if d["spin"]]
    nonspin = [d for d in valid if not d["spin"]]

    cases: list[tuple[str, object, int]] = []
    bad = base()
    bad["m"] = -rng.randint(1, 3)
    cases.append(("schema-negative-m", bad, 2))
    bad = base()
    bad["genus"] = rng.randint(0, 3)
    cases.append(("schema-unknown-field", bad, 2))
    bad = base()
    del bad["spin"]
    cases.append(("schema-missing-spin", bad, 2))
    bad = base()
    bad["torsion"] = [{"prime": 2, "exponent": 0}]
    cases.append(("schema-zero-exponent", bad, 2))
    bad = json.loads(json.dumps(rng.choice(spin)))
    bad["sq2_case"] = {"case": "A"}
    cases.append(("inconsistent-spin-with-case", bad, 2))
    bad = json.loads(json.dumps(rng.choice(nonspin)))
    bad["sq2_case"] = {"case": "not_applicable"}
    cases.append(("inconsistent-nonspin-without-case", bad, 2))
    bad = json.loads(json.dumps(rng.choice(nonspin)))
    bad["torsion"] = [{"prime": 2, "exponent": 1}]
    bad["sq2_case"] = {"case": "B", "j1": rng.randint(2, 5)}
    cases.append(("inconsistent-index-out-of-range", bad, 2))
    bad = json.loads(json.dumps(rng.choice(nonspin)))
    bad["d"] = 0
    bad["sq2_case"] = {"case": "A"}
    cases.append(("inconsistent-case-a-without-d", bad, 2))
    cases.append(("declined-alone", declined_descriptor(rng, "declined"), 3))

    out = [
        Reject(kind, commands[rng.randrange(3)], json.dumps(data), code)
        for kind, data, code in cases
    ]
    members = [json.loads(json.dumps(d)) for d in rng.sample(valid, 4)]
    members.insert(2, declined_descriptor(rng, "declined-member"))
    out.append(
        Reject(
            "declined-in-batch",
            commands[rng.randrange(3)],
            json.dumps(members),
            3,
            labels=tuple(d["label"] for d in members if d["label"] != "declined-member"),
            defect="a declined descriptor inside a batch aborts the whole batch, "
                   "so its valid members get no report",
        )
    )
    return out


# --------------------------------------------------------------------------
# wide-wedge
# --------------------------------------------------------------------------

def wide_descriptors(rng: random.Random, count: int, rank: int, two_count: int) -> list[dict]:
    """``count`` descriptors with m = d = ``rank`` and ``two_count``
    2-primary factors each.  Sizes are fixed so that the work per run is
    the same across seeds, and the Postnikov flag alternates, since a
    trivial square costs more; the seed picks exponents (1..6), odd-primary
    factors, distinct branches, indices and the first flag."""
    branches = rng.sample(BRANCHES, count)
    postnikov = rng.random() < 0.5
    out = []
    for i, branch in enumerate(branches):
        two = sorted(rng.randint(1, 6) for _ in range(two_count))
        odd = [rng.choice(ODD_ORDERS) for _ in range(rng.randint(0, 3))]
        flag = postnikov != (i % 2 == 1)
        out.append(descriptor(rng, f"w{i}", branch, rank, rank, two, odd, flag))
    return out


# --------------------------------------------------------------------------
# normalize-oracle
# --------------------------------------------------------------------------

# Generator names and orders of [source, target] for the exhaustive
# oracle-sweep pools of the acceptance suite: maps from S^4 and S^5 into
# S^3, S^4 and the mod-2^r Moore spaces P^4(2^r).
GENERATORS = {
    ("S^4", "S^3"): (("eta", 2),),
    ("S^4", "P^4(2)"): (("i_3 eta", 2),),
    ("S^4", "P^4(4)"): (("i_3 eta", 2),),
    ("S^4", "P^4(8)"): (("i_3 eta", 2),),
    ("S^5", "S^3"): (("eta^2", 2),),
    ("S^5", "S^4"): (("eta", 2),),
    ("S^5", "P^4(2)"): (("eta~_1", 4),),
    ("S^5", "P^4(4)"): (("eta~_2", 2), ("i_3 eta^2", 2)),
    ("S^5", "P^4(8)"): (("eta~_3", 2), ("i_3 eta^2", 2)),
}
POOLS = {
    "S^4": ("S^3", "P^4(2)", "P^4(4)", "P^4(8)"),
    "S^5": ("S^3", "S^4", "P^4(2)", "P^4(4)", "P^4(8)"),
}


def _nonzero_classes(generators) -> list[tuple[int, ...]]:
    """Every nonzero class of a maps group, as reduced coefficients."""
    return [c for c in product(*(range(order) for _, order in generators)) if any(c)]


def map_vectors(rng: random.Random) -> list[dict]:
    """One vector per target multiset of 1 to 4 targets from each pool
    (194 vectors), with seeded row order, classes and representatives.

    Every entry is nonzero, and each source-target pair's entries take
    its nonzero classes in turn from a seeded start: zero entries leave
    the normal form alone, and the class mix sets the orbit sizes, hence
    the work, which so stays about the same across seeds.  Each
    coefficient is sent unreduced, plus a seeded multiple of its order.
    """
    classes = {pair: _nonzero_classes(gens) for pair, gens in GENERATORS.items()}
    turn = {pair: rng.randrange(len(c)) for pair, c in classes.items()}
    out = []
    for source, pool in POOLS.items():
        for size in (1, 2, 3, 4):
            for targets in combinations_with_replacement(pool, size):
                targets = list(targets)
                rng.shuffle(targets)
                entries = []
                for target in targets:
                    pair = (source, target)
                    reduced = classes[pair][turn[pair] % len(classes[pair])]
                    turn[pair] += 1
                    coefficients = {
                        name: c + order * rng.randrange(2)
                        for (name, order), c in zip(GENERATORS[pair], reduced) if c
                    }
                    entries.append({"target": target, "coefficients": coefficients})
                out.append({"source": source, "entries": entries, "theta_remainder": False})
    rng.shuffle(out)
    return out


def vector_rejects(rng: random.Random, vectors: list[dict]) -> list[Reject]:
    """Malformed ``normalize`` inputs, each with documented exit 2.

    Three are known defects: a non-object vector and a string
    coefficient raise an uncaught TypeError out of the CLI, and a
    non-integer number coefficient is accepted with exit 0.
    """
    argv = ("normalize", "--json")
    sample = rng.choice(vectors)
    first = sample["entries"][0]
    name = GENERATORS[(sample["source"], first["target"])][0][0]
    k = rng.randint(1, 3)

    def with_first_entry(**changes) -> str:
        entries = [{**first, **changes}] + sample["entries"][1:]
        return json.dumps({**sample, "entries": entries})

    coeffs = first["coefficients"]
    typeerror = "a malformed vector raises an uncaught TypeError out of the CLI"
    return [
        Reject("vector-not-an-object", argv, json.dumps([k, rng.randint(0, 3)]), 2,
               defect=typeerror),
        Reject("vector-string-coefficient", argv,
               with_first_entry(coefficients={**coeffs, name: str(k)}), 2, defect=typeerror),
        Reject("vector-float-coefficient", argv,
               with_first_entry(coefficients={**coeffs, name: k + 0.5}), 2,
               defect="a non-integer number coefficient is accepted and exits 0"),
        Reject("vector-unknown-generator", argv,
               with_first_entry(coefficients={**coeffs, "nu'": 1}), 2),
        Reject("vector-unparseable-target", argv, with_first_entry(target="Q^4"), 2),
        Reject("vector-missing-entries", argv,
               json.dumps({key: v for key, v in sample.items() if key != "entries"}), 2),
        Reject("vector-identity-entry", argv,
               json.dumps({"source": "S^3", "entries": [{"target": "S^3",
                                                          "coefficients": {"iota": 1}}]}), 2),
        Reject("vector-malformed-json", argv, json.dumps(sample)[: rng.randint(5, 20)], 2),
    ]
