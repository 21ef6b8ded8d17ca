"""Expected outputs from the paper's closed formulas, and output checks.

Nothing here calls the calculator: every expectation is computed from
the descriptor dict.  For the double suspension of a manifold with free
ranks m, d and torsion T (2-exponents r_1 <= ... <= r_n):

    Sigma^2 M ~ S^3 x m  v  S^5 x m  v  S^4 x d'  v  P^4(T4)  v  P^5(T5)  v  top

where d' = d - 1 on case A and d otherwise, and the branch removes one
Z/2^r factor from the slot it names:

    branch                  top               removed from
    spin, theta trivial     S^6               -
    spin, theta nontrivial  A^6(2^r eta^2)    T4, r = r_j0
    non-spin case A         C^6_eta           -
    non-spin case B         C^6_r             T5, r = r_j1
    non-spin case C         A^6(eta~_r)       T4, r = r_j2

Sigma M is the same wedge one dimension down when the Postnikov square
is declared trivial or there is no 2-torsion, and unresolved otherwise.
coker(H_2) = Z_(2)^m + (+)_j Z/2^(r_j - 1), plus Z/2^(r_j1) on case B;
pi^5(Sigma^2 M) has free rank m and contains (+)_j Z/2^(r_j); the
suspension map E is surjective exactly when Sigma M is resolved, and
its verdict is unknown (null) otherwise.
"""

from __future__ import annotations

import json
from collections import Counter

import inputs

CHECK_NAMES = ("homology", "theta-flag", "sq2-degree-4", "bockstein-profile")


class Expected:
    """Closed-formula values for one descriptor dict."""

    def __init__(self, desc: dict):
        self.label = desc["label"]
        self.m, self.d = desc["m"], desc["d"]
        factors: list[tuple[int, int]] = []
        for item in desc.get("torsion", []):
            factors += [(item["prime"], item["exponent"])] * item.get("multiplicity", 1)
        self.two = sorted(e for p, e in factors if p == 2)
        self.orders = [p**e for p, e in factors]
        self.postnikov = desc["postnikov_trivial"]
        case = desc["sq2_case"]["case"]
        nontrivial = desc["theta"]["action"] == "nontrivial"
        if desc["spin"]:
            self.branch = inputs.SPIN_NONTRIVIAL if nontrivial else inputs.SPIN_TRIVIAL
        else:
            self.branch = {"A": inputs.CASE_A, "B": inputs.CASE_B, "C": inputs.CASE_C}[case]
        index = {
            inputs.SPIN_NONTRIVIAL: desc["theta"].get("j0"),
            inputs.CASE_B: desc["sq2_case"].get("j1"),
            inputs.CASE_C: desc["sq2_case"].get("j2"),
        }.get(self.branch)
        self.r = self.two[index - 1] if index else None
        self.resolved = self.postnikov or not self.two

    def wedge(self, shift: int) -> Counter:
        """Summand notations of Sigma^2 M (shift 0) or Sigma M (shift -1)."""
        t4, t5 = list(self.orders), list(self.orders)
        if self.branch in (inputs.SPIN_NONTRIVIAL, inputs.CASE_C):
            t4.remove(2**self.r)
        elif self.branch == inputs.CASE_B:
            t5.remove(2**self.r)
        d4 = self.d - 1 if self.branch == inputs.CASE_A else self.d
        top = 6 + shift
        tops = {
            inputs.SPIN_TRIVIAL: f"S^{top}",
            inputs.SPIN_NONTRIVIAL: f"A^{top}(2^{self.r} eta^2)",
            inputs.CASE_A: f"C^{top}_eta",
            inputs.CASE_B: f"C^{top}_{self.r}",
            inputs.CASE_C: f"A^{top}(eta~_{self.r})",
        }
        out = Counter({f"S^{3 + shift}": self.m, tops[self.branch]: 1})
        out[f"S^{5 + shift}"] += self.m
        out[f"S^{4 + shift}"] += d4
        out.update(f"P^{4 + shift}({k})" for k in t4)
        out.update(f"P^{5 + shift}({k})" for k in t5)
        return +out

    def coker_two_exponents(self) -> Counter:
        out = Counter(r - 1 for r in self.two if r > 1)
        if self.branch == inputs.CASE_B:
            out[self.r] += 1
        return out

    @property
    def e_surjective(self):
        return True if self.resolved else None


def _wedge_of(notation: str) -> Counter:
    return Counter(notation.split(" v "))


def _two_exponents(group: dict) -> Counter:
    out = Counter()
    for item in group["torsion"]:
        if item["prime"] == 2:
            out[item["exponent"]] += item["multiplicity"]
    return out


def _payloads(expected: list[Expected], stdout: str) -> list:
    data = json.loads(stdout)
    if len(expected) == 1 and isinstance(data, dict):
        data = [data]
    if len(data) != len(expected):
        raise ValueError(f"{len(data)} reports for {len(expected)} descriptors")
    return data


def check_classify(expected: list[Expected], stdout: str) -> list[str]:
    """``classify --json --stages --validate``: one problem per bad descriptor."""
    problems = []
    for exp, payload in zip(expected, _payloads(expected, stdout)):
        bad = []
        if payload["label"] != exp.label or payload["branch"] != exp.branch:
            bad.append(f"branch {payload['branch']} != {exp.branch}")
        if _wedge_of(payload["sigma2"]) != exp.wedge(0):
            bad.append("sigma2 differs from the closed formula")
        sigma = payload["sigma"]
        if exp.resolved != isinstance(sigma, str):
            bad.append(f"sigma resolution {sigma!r} != {exp.resolved}")
        elif exp.resolved and _wedge_of(sigma) != exp.wedge(-1):
            bad.append("sigma differs from the closed formula")
        checks = payload.get("checks", [])
        if tuple(c["name"] for c in checks) != CHECK_NAMES or not all(c["passed"] for c in checks):
            bad.append(f"audit checks {checks}")
        if bad:
            problems.append(f"{exp.label}: " + "; ".join(bad))
    return problems


def check_cohomotopy(expected: list[Expected], stdout: str) -> list[str]:
    """``cohomotopy --json``: free ranks, coker torsion, E verdict."""
    problems = []
    for exp, payload in zip(expected, _payloads(expected, stdout)):
        bad = []
        if payload["label"] != exp.label or payload["branch"] != exp.branch:
            bad.append(f"branch {payload['branch']} != {exp.branch}")
        pi5 = payload["pi5_double_suspension"]
        if pi5["free_rank"] != exp.m or not Counter(exp.two) <= _two_exponents(pi5):
            bad.append(f"pi5 {pi5}")
        if (payload["pi5_suspension"] is None) == exp.resolved:
            bad.append(f"pi5 of Sigma M is {payload['pi5_suspension']}")
        coker = payload["coker_H2"]
        if coker["free_rank"] != exp.m or _two_exponents(coker) != exp.coker_two_exponents():
            bad.append(f"coker(H_2) {coker}")
        if payload["E_surjective"] is not exp.e_surjective:
            bad.append(f"E verdict {payload['E_surjective']} != {exp.e_surjective}")
        if bad:
            problems.append(f"{exp.label}: " + "; ".join(bad))
    return problems


def check_validate(expected: list[Expected], stdout: str) -> list[str]:
    """``validate``: every audit line of every descriptor passes."""
    lines: dict[str, list[str]] = {}
    for line in stdout.splitlines():
        label, _, rest = line.partition(": ")
        lines.setdefault(label, []).append(rest)
    problems = []
    for exp in expected:
        got = lines.get(exp.label, [])
        names = tuple(rest.split(": ", 1)[0].removeprefix("[pass] ") for rest in got)
        if names != CHECK_NAMES or not all(rest.startswith("[pass] ") for rest in got):
            problems.append(f"{exp.label}: audit lines {got}")
    return problems
