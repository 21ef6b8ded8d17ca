import argparse
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import random_invariants, valid_invariants
from test_acceptance import BRANCH_SUITE
from test_catalog import recorded_complexes
from test_classifier import ALL_BRANCHES
import suspcalc
import suspcalc.cli
from suspcalc import catalog, ehp
from suspcalc.catalog import WedgeComplex, parse_complex
from suspcalc.classifier import (
    CheckResult,
    OmittedCase,
    classify_double_suspension,
)
from suspcalc.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_OMITTED,
    EXIT_STDOUT_CLOSED,
    _write_json,
    build_parser,
    build_tables,
    main,
    parse_args,
    tables_text,
)

SPIN_DESCRIPTOR = {
    "label": "spin example",
    "m": 1,
    "d": 1,
    "torsion": [{"prime": 2, "exponent": 1}],
    "spin": True,
    "theta": {"action": "trivial"},
    "sq2_case": {"case": "not_applicable"},
    "postnikov_trivial": True,
}

OMITTED_DESCRIPTOR = {
    "m": 1,
    "d": 1,
    "torsion": [{"prime": 2, "exponent": 2}],
    "spin": False,
    "theta": {"action": "nontrivial", "j0": 1},
    "sq2_case": {"case": "B", "j1": 1},
    "postnikov_trivial": True,
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(args, tmp_path, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

def test_classify_pretty(tmp_path, capsys):
    path = write(tmp_path, "d.json", SPIN_DESCRIPTOR)
    code, out, _ = run_cli(["classify", path], tmp_path, capsys)
    assert code == EXIT_OK
    assert "S^3 v P^4(2) v S^4 v P^5(2) v S^5 v S^6" in out
    assert "spin-theta-trivial" in out


def test_classify_json_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "d.json", SPIN_DESCRIPTOR)
    code1, out1, _ = run_cli(["classify", path, "--json", "--stages"], tmp_path, capsys)
    code2, out2, _ = run_cli(["classify", path, "--json", "--stages"], tmp_path, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


@pytest.mark.parametrize("args, renders", [(["--stages"], 5), (["--json"], 2)])
def test_classify_renders_each_printed_wedge_once(tmp_path, capsys, monkeypatch, args, renders):
    # --stages prints Sigma^2 M, Sigma M, W3, W4 and Sigma W4; --json only the first two.
    rendered = []
    notation = WedgeComplex.notation.fget
    monkeypatch.setattr(WedgeComplex, "notation",
                        property(lambda w: rendered.append(w) or notation(w)))
    path = write(tmp_path, "d.json", SPIN_DESCRIPTOR)
    code, _, _ = run_cli(["classify", path, *args], tmp_path, capsys)
    assert code == EXIT_OK
    assert len(rendered) == renders


def _mixed_batch():
    """40 valid descriptors of every branch; the declined case is left out."""
    rng = random.Random(14)
    batch = []
    while len(batch) < 40:
        inv = random_invariants(rng)
        if inv.spin or not inv.theta.nontrivial:
            batch.append(inv.to_json_dict())
    return batch


def test_stages_built_only_when_printed(tmp_path, capsys, monkeypatch):
    batch = _mixed_batch()
    path = write(tmp_path, "batch.json", batch)
    reversed_path = write(tmp_path, "reversed.json", batch[::-1])
    printed = ["classify", "--stages", "--validate", path]
    for cached in (catalog.maps_group, catalog._homology_pairs, ehp.hopf_table):
        cached.cache_clear()
    code, cold, _ = run_cli(printed, tmp_path, capsys)
    assert code == EXIT_OK

    def refuse(inv):
        raise AssertionError("stages built but not printed")

    monkeypatch.setattr(suspcalc.classifier, "stage_decompositions", refuse)
    for args in (["cohomotopy"], ["cohomotopy", "--json"], ["validate"], ["classify"],
                 ["classify", "--validate"], ["classify", "--json"]):
        code, out, _ = run_cli([*args, reversed_path], tmp_path, capsys)
        assert code == EXIT_OK, args
    assert {report["branch"] for report in json.loads(out)} == set(ALL_BRANCHES)
    monkeypatch.undo()
    code, warm, _ = run_cli(printed, tmp_path, capsys)
    assert code == EXIT_OK
    assert warm == cold


def test_classify_suspension_level_one_unresolved(tmp_path, capsys):
    descriptor = dict(SPIN_DESCRIPTOR, postnikov_trivial=False)
    path = write(tmp_path, "d.json", descriptor)
    code, out, _ = run_cli(["classify", path, "--suspension-level", "1"], tmp_path, capsys)
    assert code == EXIT_OK
    assert "Unresolved" in out


@pytest.mark.parametrize("level", ["1", "2"])
def test_classify_json_and_text_list_the_same_stages(tmp_path, capsys, level):
    # A split W4 (trivial Postnikov square) and a symbolic one.
    path = write(tmp_path, "d.json", [SPIN_DESCRIPTOR, spin_with(postnikov_trivial=False)])
    args = ["classify", path, "--stages", "--suspension-level", level]
    code, text, _ = run_cli(args, tmp_path, capsys)
    assert code == EXIT_OK
    code, out, _ = run_cli([*args, "--json"], tmp_path, capsys)
    assert code == EXIT_OK
    printed = []
    for payload in json.loads(out):
        stages = payload["stages"]
        w4 = stages["W4"] if isinstance(stages["W4"], str) else stages["W4"]["symbolic"]
        printed += [f"W3 ~ {stages['W3']}", f"W4 ~ {w4}", f"Sigma W4 ~ {stages['SigmaW4']}"]
    assert "C_{g2}" in printed[4]
    assert [line.strip() for line in text.splitlines() if line.startswith("  ")] == printed


def test_classify_omitted_exit_code(tmp_path, capsys):
    path = write(tmp_path, "d.json", OMITTED_DESCRIPTOR)
    code, _, err = run_cli(["classify", path], tmp_path, capsys)
    assert code == EXIT_OMITTED
    assert "omit the discussion" in err


def test_classify_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json", encoding="utf-8")
    code, _, err = run_cli(["classify", str(path)], tmp_path, capsys)
    assert code == EXIT_BAD_INPUT


def spin_with(**changes):
    return dict(SPIN_DESCRIPTOR, **changes)


def nonspin_case_b(**indices):
    return spin_with(spin=False, sq2_case={"case": "B", **indices})


@pytest.mark.parametrize(
    "descriptor, culprit",
    [
        pytest.param(spin_with(surprise=1), "surprise", id="unknown-field"),
        pytest.param(spin_with(m=1.0), "'m'", id="float-m"),
        pytest.param(spin_with(torsion=[{"prime": 2, "exponent": 2.0}]), "exponent",
                     id="float-exponent"),
        pytest.param(spin_with(torsion=[{"prime": 2, "exponent": 1, "multiplicity": 2.0}]),
                     "multiplicity", id="float-multiplicity"),
        pytest.param(spin_with(torsion=[{"prime": 2, "exponent": 1, "multiplicity": 0}]),
                     "multiplicity must be >= 1", id="zero-multiplicity"),
        pytest.param(spin_with(m=True), "'m'", id="boolean-m"),
        pytest.param(spin_with(spin=1), "spin", id="integer-spin"),
        pytest.param(spin_with(label=None), "label", id="null-label"),
        pytest.param(spin_with(label="x\ud800"), "label", id="lone-surrogate-label"),
        pytest.param(spin_with(theta={"action": "trivial", "j9": 1}), "j9",
                     id="unknown-theta-field"),
        pytest.param(spin_with(sq2_case={"case": "not_applicable", "j9": 1}), "j9",
                     id="unknown-sq2-field"),
        pytest.param(spin_with(torsion=[{"prime": 2, "exponent": 1, "order": 2}]), "order",
                     id="unknown-torsion-field"),
        pytest.param({k: v for k, v in SPIN_DESCRIPTOR.items() if k != "spin"}, "spin",
                     id="missing-spin"),
        pytest.param(nonspin_case_b(j2=1), "j2", id="case-b-with-j2"),
        pytest.param(nonspin_case_b(j1=1, j2=1), "j2", id="case-b-with-j1-and-j2"),
        pytest.param(spin_with(theta={"action": "trivial", "j0": 1}),
                     "descriptor 0: trivial theta action carries no index", id="trivial-theta-with-j0"),
        pytest.param(spin_with(spin=False, sq2_case={"case": "A", "j2": 1}),
                     "case A carries no index", id="case-a-with-j2"),
        pytest.param(spin_with(sq2_case={"case": "not_applicable", "j2": 1}),
                     "case not_applicable carries no index", id="not-applicable-with-j2"),
        pytest.param([SPIN_DESCRIPTOR, 7], "descriptor 1", id="non-object-batch-item"),
    ],
)
def test_classify_malformed_descriptor_rejected(tmp_path, capsys, descriptor, culprit):
    path = write(tmp_path, "d.json", descriptor)
    code, out, err = run_cli(["classify", path], tmp_path, capsys)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert culprit in err


def test_classify_semantic_violation_rejected(tmp_path, capsys):
    descriptor = dict(SPIN_DESCRIPTOR, theta={"action": "nontrivial", "j0": 5})
    path = write(tmp_path, "d.json", descriptor)
    code, _, err = run_cli(["classify", path], tmp_path, capsys)
    assert code == EXIT_BAD_INPUT


def test_classify_nonprime_torsion_rejected(tmp_path, capsys):
    descriptor = dict(SPIN_DESCRIPTOR, torsion=[{"prime": 4, "exponent": 1}])
    path = write(tmp_path, "d.json", descriptor)
    code, _, err = run_cli(["classify", path], tmp_path, capsys)
    assert code == EXIT_BAD_INPUT
    assert "prime" in err


def test_classify_batch_order(tmp_path, capsys):
    batch = [
        dict(SPIN_DESCRIPTOR, label="first"),
        dict(SPIN_DESCRIPTOR, label="second", m=2),
    ]
    path = write(tmp_path, "batch.json", batch)
    code, out, _ = run_cli(["classify", path, "--json"], tmp_path, capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [item["label"] for item in payload] == ["first", "second"]


def test_classify_validate_flag(tmp_path, capsys):
    path = write(tmp_path, "d.json", SPIN_DESCRIPTOR)
    code, out, _ = run_cli(["classify", path, "--validate"], tmp_path, capsys)
    assert code == EXIT_OK
    assert out.count("[pass]") == 4


def test_report_grammar_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "d.json", SPIN_DESCRIPTOR)
    code, out, _ = run_cli(["classify", path, "--json"], tmp_path, capsys)
    payload = json.loads(out)
    sigma2 = WedgeComplex(parse_complex(p) for p in payload["sigma2"].split(" v "))
    assert sigma2.notation == payload["sigma2"]
    sigma = WedgeComplex(parse_complex(p) for p in payload["sigma"].split(" v "))
    assert sigma.suspend() == sigma2


# --------------------------------------------------------------------------
# cohomotopy
# --------------------------------------------------------------------------

def test_cohomotopy_report(tmp_path, capsys):
    descriptor = {
        "m": 2,
        "d": 0,
        "torsion": [{"prime": 2, "exponent": 1}, {"prime": 2, "exponent": 3}],
        "spin": True,
        "theta": {"action": "trivial"},
        "sq2_case": {"case": "not_applicable"},
        "postnikov_trivial": True,
    }
    path = write(tmp_path, "d.json", descriptor)
    code, out, _ = run_cli(["cohomotopy", path], tmp_path, capsys)
    assert code == EXIT_OK
    assert "coker(H_2)             = Z_(2)^2 + Z/4" in out
    assert "surjective" in out


def test_cohomotopy_trivial_manifold(tmp_path, capsys):
    descriptor = {
        "m": 0, "d": 0, "torsion": [],
        "spin": True, "theta": {"action": "trivial"},
        "sq2_case": {"case": "not_applicable"}, "postnikov_trivial": True,
    }
    path = write(tmp_path, "d.json", descriptor)
    code, out, _ = run_cli(["cohomotopy", path, "--json"], tmp_path, capsys)
    payload = json.loads(out)
    assert payload["coker_H2"]["free_rank"] == 0
    assert payload["coker_H2"]["torsion"] == []
    assert payload["E_surjective"] is True


DATA_DIR = Path(__file__).parent / "data"
WIDE_DESCRIPTORS = DATA_DIR / "wide_descriptor.json"


def test_cohomotopy_golden_output(tmp_path, capsys, rng):
    # The branch suite's reports, plus one unresolved Sigma M, printed as text
    # and as JSON: the rules list and the using: lines come from ehp.hopf_table.
    path = DATA_DIR / "cohomotopy_golden_input.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    resolved = [descriptor.to_json_dict() for descriptor, wedge in BRANCH_SUITE
                if wedge is not None]
    assert data[:-1] == resolved
    assert data[-1] == dict(resolved[2], postnikov_trivial=False, label="spin-mixed-unresolved")
    for args, golden in ([], "cohomotopy_golden.txt"), (["--json"], "cohomotopy_golden.json"):
        code, out, err = run_cli(["cohomotopy", str(path), *args], tmp_path, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out.encode("utf-8") == (DATA_DIR / golden).read_bytes(), golden
    # Every summand a report can hold has Hopf data: a _HOPF row, and so an entry.
    for _ in range(300):
        try:
            report = classify_double_suspension(random_invariants(rng))
        except OmittedCase:
            continue
        for summand, _ in report.sigma2.pairs:
            assert (summand.kind, summand.n) in ehp._HOPF, summand
            assert ehp.hopf_table(summand).rule


def test_classify_golden_output(tmp_path, capsys):
    # The same input through classify --stages --validate: Sigma^2 M on all
    # five branches, with repeated exponents, so that the copy the top piece
    # replaces is pinned byte for byte.
    path = DATA_DIR / "cohomotopy_golden_input.json"
    for args, golden in ([], "classify_golden.txt"), (["--json"], "classify_golden.json"):
        code, out, err = run_cli(["classify", "--stages", "--validate", str(path), *args],
                                 tmp_path, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out.encode("utf-8") == (DATA_DIR / golden).read_bytes(), golden


def test_cohomotopy_omitted(tmp_path, capsys):
    path = write(tmp_path, "d.json", OMITTED_DESCRIPTOR)
    code, _, _ = run_cli(["cohomotopy", path], tmp_path, capsys)
    assert code == EXIT_OMITTED


# --------------------------------------------------------------------------
# normalize
# --------------------------------------------------------------------------

def test_normalize_command(tmp_path, capsys):
    vector = {
        "source": "S^5",
        "entries": [
            {"target": "S^4", "coefficients": {"eta": 1}},
            {"target": "P^4(4)", "coefficients": {"eta~_2": 1}},
        ],
    }
    path = write(tmp_path, "v.json", vector)
    code, out, _ = run_cli(["normalize", path, "--json"], tmp_path, capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["cofiber"] == "A^6(eta~_2) v S^4"
    assert payload["normal_form"]["entries"][0]["coefficients"] == {}
    code, out, _ = run_cli(["normalize", path], tmp_path, capsys)
    assert code == EXIT_OK
    assert out == "normal form: S^4: 0; P^4(4): eta~_2\ncofiber: A^6(eta~_2) v S^4\n"


@pytest.mark.parametrize("vector, wedge", [
    ({"source": "S^6", "entries": [{"target": "S^5"}]}, "S^5 v S^7"),
    # 2 eta and 2 eta~_2 are zero: the cofiber adds the sphere above the source.
    ({"source": "S^5", "entries": [{"target": "S^4", "coefficients": {"eta": 2}},
                                   {"target": "P^4(4)", "coefficients": {"eta~_2": 2}}]},
     "P^4(4) v S^4 v S^6"),
    # 2-locally P^4(125) is a point, as P^4(9) is: [S^4, P^4(125)] = 0.
    ({"source": "S^4", "entries": [{"target": "P^4(125)"}]}, "P^4(125) v S^5"),
])
def test_normalize_zero_vector_adds_the_sphere_above_the_source(tmp_path, capsys, vector, wedge):
    path = write(tmp_path, "v.json", vector)
    code, out, err = run_cli(["normalize", path], tmp_path, capsys)
    assert (code, err) == (EXIT_OK, "")
    # Each target in input order, with its class: 0 throughout here.
    normal = "; ".join(f"{entry['target']}: 0" for entry in vector["entries"])
    assert out.splitlines() == [f"normal form: {normal}", f"cofiber: {wedge}"]
    code, out, err = run_cli(["normalize", path, "--json"], tmp_path, capsys)
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert payload["cofiber"] == wedge
    assert all(e["coefficients"] == {} for e in payload["normal_form"]["entries"])


# A 60-digit Moore order with two large prime factors, far too slow to factor.
HUGE_ORDER = (2**89 - 1) * (2**107 - 1)


def s5_to_s4(coefficients, source="S^5", target="S^4"):
    return {"source": source, "entries": [{"target": target, "coefficients": coefficients}]}


@pytest.mark.parametrize(
    "vector, culprit",
    [
        pytest.param(s5_to_s4({"zeta": 1}), "zeta", id="unknown-generator"),
        pytest.param([1, 2], "vector", id="not-an-object"),
        pytest.param(s5_to_s4({"eta": "1"}), "eta", id="string-coefficient"),
        pytest.param(s5_to_s4({"eta": 1.5}), "eta", id="float-coefficient"),
        pytest.param(s5_to_s4({"eta": 1}, source=5), "source", id="non-string-source"),
        pytest.param(s5_to_s4({"eta": 1}, target=["S^4"]), "target", id="non-string-target"),
        pytest.param(s5_to_s4({}, target=f"P^4({HUGE_ORDER})"), "2**64", id="huge-moore-target"),
        pytest.param(s5_to_s4({}, source=f"P^6({HUGE_ORDER})"), "2**64", id="huge-moore-source"),
        # No _GROUPS row maps a sphere into a Chang complex.
        pytest.param(s5_to_s4({}, target="C^5_eta"), "error: not tabulated: [S^5, C^5_eta]\n",
                     id="untabulated-pair"),
        # A Moore order is a prime power, odd or even.
        pytest.param(s5_to_s4({}, target="P^4(15)"), "moore needs a prime-power order, not 15",
                     id="composite-odd-moore-target"),
        pytest.param(s5_to_s4({}, target="P^4(6)"), "moore needs a prime-power order, not 6",
                     id="composite-even-moore-target"),
        pytest.param(s5_to_s4({}, source="S^0"), "sphere needs n >= 1", id="sphere-below-least-n"),
        pytest.param(s5_to_s4({}, target="C^3_eta"), "chang_eta needs n >= 2", id="chang-below-least-n"),
        pytest.param(s5_to_s4({}, target="C^5_0"), "chang_r needs r >= 1", id="chang-r-zero"),
        pytest.param(s5_to_s4({}, target="C^{5,0}"), "chang_t needs t >= 1", id="chang-t-zero"),
        pytest.param(s5_to_s4({}, target="A^4(eta~_1)"), "a_tilde needs n >= 2", id="a-tilde-below-least-n"),
        pytest.param(s5_to_s4({}, target="P^4(1)"), "moore needs order >= 2", id="moore-order-one"),
        # int() reads any Unicode decimal digit; the notation takes 0-9 alone.
        pytest.param(s5_to_s4({}, source="S^\u0664"), "cannot parse complex notation",
                     id="arabic-indic-digit-source"),
        pytest.param(s5_to_s4({}, source="S^\uff14", target="P^\uff14(\uff12)"),
                     "cannot parse complex notation", id="fullwidth-digits"),
        # maps_group would build 2**r for the 2 q_3 row: r is bounded like a Moore order.
        pytest.param({"source": "A^5(eta~_10000000000)", "entries": [{"target": "S^3"}]},
                     "a_tilde needs 2**r below 2**64", id="a-tilde-huge-r"),
        # 3 (i_2 eta) lies in no orbit of i_2 eta: no row operation reaches it.
        pytest.param(s5_to_s4({"i_2 eta": 3}, source="S^3", target="P^3(4)"),
                     "3(i_2 eta) in [S^3, P^3(4)] is outside the normal-form range",
                     id="odd-multiple-of-i-eta"),
        # 2-locally [S^3, P^4(3)] = 0, so it has no generator i_3.
        pytest.param(s5_to_s4({"i_3": 1}, source="S^3", target="P^4(3)"),
                     "unknown generators ['i_3'] for [S^3, P^4(3)]", id="odd-moore-bottom-cell"),
        pytest.param({"source": "P^4(2)",
                      "entries": [{"target": "S^3", "coefficients": {"eta q_4": 1}}]},
                     "only sphere-sourced vectors are normalized", id="moore-source"),
    ],
)
def test_normalize_rejects_unknown_generator(tmp_path, capsys, vector, culprit):
    path = write(tmp_path, "v.json", vector)
    code, out, err = run_cli(["normalize", path], tmp_path, capsys)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert culprit in err


# --------------------------------------------------------------------------
# tables / validate
# --------------------------------------------------------------------------

def test_tables_stable_and_filterable(tmp_path, capsys):
    code, full1, _ = run_cli(["tables"], tmp_path, capsys)
    code2, full2, _ = run_cli(["tables"], tmp_path, capsys)
    assert code == code2 == EXIT_OK
    assert full1 == full2
    code3, moore_only, _ = run_cli(["tables", "--filter", "moore"], tmp_path, capsys)
    payload = json.loads(moore_only)
    assert payload["maps_groups"]
    assert all(row["family"] == "moore" for row in payload["maps_groups"])
    code4, chang_only, _ = run_cli(["tables", "--filter", "chang"], tmp_path, capsys)
    chang_payload = json.loads(chang_only)
    assert {row["source"] for row in chang_payload["maps_groups"]} >= {"C^5_eta", "C^6_1"}


TRANSCRIPTION = Path(__file__).parent / "data" / "tables_transcription.json"


def test_tables_text_cold_and_warm_per_filter(tmp_path, capsys):
    # Every filter gets its own text, whichever filter a process dumped first.
    filters = [None, *catalog.FAMILIES]
    random.Random(17).shuffle(filters)
    tables_text.cache_clear()
    for family in filters:
        cold = tables_text(family)
        assert cold == json_text(build_tables(family)), family
        assert tables_text(family) is cold, family
        args = ["tables"] + (["--filter", family] if family else [])
        assert run_cli(args, tmp_path, capsys) == (EXIT_OK, cold + "\n", "")
    assert tables_text.cache_info().currsize == tables_text.cache_info().maxsize == len(filters)


def test_tables_filtered_dump_first_then_full_dump(tmp_path, capsys):
    tables_text.cache_clear()
    code, moore_only, _ = run_cli(["tables", "--filter", "moore"], tmp_path, capsys)
    assert code == EXIT_OK
    assert {row["family"] for rows in json.loads(moore_only).values() for row in rows} == {"moore"}
    code, full, _ = run_cli(["tables"], tmp_path, capsys)
    assert code == EXIT_OK
    assert full.encode("utf-8") == TRANSCRIPTION.read_bytes()


def test_tables_dump_unchanged_by_mutating_build_tables(tmp_path, capsys):
    tables_text.cache_clear()
    before = run_cli(["tables"], tmp_path, capsys)
    for family in (None, "moore"):
        dump = build_tables(family)
        dump["maps_groups"][0]["source"] = "mutated"
        dump["operation_profiles"].clear()
        dump["extra"] = []
    assert run_cli(["tables"], tmp_path, capsys) == before
    assert before[1].encode("utf-8") == TRANSCRIPTION.read_bytes()


def test_validate_command(tmp_path, capsys):
    path = write(tmp_path, "d.json", SPIN_DESCRIPTOR)
    code, out, _ = run_cli(["validate", path], tmp_path, capsys)
    assert code == EXIT_OK
    assert "[pass]" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "suspcalc.cli", "tables", "--filter", "sphere"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["maps_groups"]


# --------------------------------------------------------------------------
# argv parsing
# --------------------------------------------------------------------------

# One argv of each kind the command line meets, valid and not.
PARSE_CASES = [
    [],                                                    # no command
    ["-h"],
    ["--help"],
    ["bogus"],                                             # unknown command
    ["--json", "classify"],                                # a flag before the command
    ["classify", "-h"],
    ["normalize", "--help"],
    ["classify", "--bogus", "d.json"],                     # unknown flag
    ["validate", "d.json", "--json"],                      # another command's flag
    ["tables", "--filter", "nope"],                        # bad choice
    ["classify", "--suspension-level", "3", "d.json"],     # bad choice after conversion
    ["classify", "--suspension-level", "one"],             # bad type
    ["tables", "--filter"],                                # missing option value
    ["normalize", "v.json", "w.json"],                     # extra positional
    ["classify", "--s", "d.json"],                         # ambiguous abbreviation
    ["tables", "--filter=sphere"],                         # --opt=value
    ["classify", "--suspension-level=1", "--st", "--val", "d.json"],  # abbreviations
    ["normalize", "--json", "--", "-"],                    # --
    ["classify", "--json", "--stages", "--validate", "-"],
    ["cohomotopy", "--json", "d.json"],
    ["validate"],
]


def _parsed(parse, argv, capsys):
    """(Namespace, exit code, stdout, stderr) of one parse; the Namespace
    is None when the parse exits, the exit code None when it does not."""
    try:
        args, code = parse(argv), None
    except SystemExit as exit_:
        args, code = None, exit_.code
    out, err = capsys.readouterr()
    return args, code, out, err


@pytest.mark.parametrize("from_sys_argv", [False, True], ids=["argv", "sys.argv"])
@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parse_args_agrees_with_the_full_parser(monkeypatch, capsys, argv, from_sys_argv):
    # The same Namespace, command included, or the same exit, usage and message.
    if from_sys_argv:
        monkeypatch.setattr(sys, "argv", ["suspcalc", *argv])
        argv = None
    expected = _parsed(build_parser().parse_args, argv, capsys)
    assert _parsed(parse_args, argv, capsys) == expected


@pytest.mark.parametrize("argv", [
    ["normalize", "--json", "-"],
    ["tables"],
    ["classify", "--json", "--stages", "--validate", "-"],
    ["cohomotopy", "--json", "-"],
    ["validate", "-"],
], ids=" ".join)
def test_one_argparse_pass_per_call(monkeypatch, capsys, argv):
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    stdin = s5_to_s4({"eta": 1}) if argv[0] == "normalize" else SPIN_DESCRIPTOR
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
    assert main(argv) == EXIT_OK
    assert parsers == [f"suspcalc {argv[0]}"]


def test_output_is_the_same_under_every_hash_seed(tmp_path):
    # Complexes hash by identity and strings by the hash seed: no output may
    # follow either, so two processes under different seeds print the same
    # bytes, and under each seed the golden commands print their goldens and
    # tables the transcription.
    batch = write(tmp_path, "batch.json", _mixed_batch())
    vector = write(tmp_path, "v.json", {
        "source": "S^5",
        "entries": [{"target": "S^4", "coefficients": {"eta": 1}},
                    {"target": "P^4(4)", "coefficients": {"eta~_2": 1}},
                    {"target": "S^3", "coefficients": {"eta^2": 1}}],
    })
    golden_input = str(DATA_DIR / "cohomotopy_golden_input.json")
    commands = [["classify", "--json", "--stages", "--validate", batch],
                ["cohomotopy", "--json", golden_input],
                ["cohomotopy", golden_input],
                ["classify", "--stages", "--validate", golden_input],
                ["normalize", "--json", vector],
                ["tables"]]
    goldens = {2: "cohomotopy_golden.txt", 3: "classify_golden.txt",  # by place in commands
               5: "tables_transcription.json"}
    script = ("import json, sys; from suspcalc.cli import main\n"
              "for args in json.loads(sys.argv[1]): print('exit', main(args), flush=True)")
    src = str(Path(suspcalc.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(b"exit 0\n") == len(commands), proc.stdout[-200:]
        printed = proc.stdout.split(b"exit 0\n")
        for i, golden in goldens.items():
            assert printed[i] == (DATA_DIR / golden).read_bytes(), (seed, golden)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# Importing the CLI alone; and every module a command runs, under -S:
# without site, which may load typing itself, so only the program's own
# imports count.
CLI_ALONE = ([], "suspcalc.cli")
EVERY_COMMAND = (["-S"], "suspcalc.cli, suspcalc.ehp, suspcalc.normalizer")


@pytest.mark.parametrize("module, imports", [
    *(pytest.param(module, [CLI_ALONE], id=module)
      for module in ("jsonschema", "sympy", "suspcalc.ehp", "suspcalc.normalizer")),
    *(pytest.param(module, [CLI_ALONE, EVERY_COMMAND], id=module)
      for module in ("dataclasses", "inspect")),
    pytest.param("typing", [EVERY_COMMAND], id="typing"),
])
def test_cli_imports_without(module, imports):
    src = str(Path(suspcalc.__file__).resolve().parents[1])
    for flags, modules in imports:
        proc = subprocess.run(
            [sys.executable, *flags, "-c", f"import sys, {modules}; print({module!r} in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", flags


# The suspcalc modules each command loads when it is the first call of a process.
DESCRIPTOR_MODULES = {"suspcalc", "suspcalc.abelian", "suspcalc.catalog", "suspcalc.classifier",
                      "suspcalc.cli"}


@pytest.mark.parametrize("args, loaded", [
    pytest.param(["classify", "--json", "--stages", "--validate", "descriptor.json"],
                 DESCRIPTOR_MODULES, id="classify"),
    pytest.param(["validate", "descriptor.json"], DESCRIPTOR_MODULES, id="validate"),
    pytest.param(["cohomotopy", "--json", "descriptor.json"],
                 DESCRIPTOR_MODULES | {"suspcalc.ehp"}, id="cohomotopy"),
    pytest.param(["tables", "--filter", "sphere"],
                 DESCRIPTOR_MODULES | {"suspcalc.ehp"}, id="tables"),
    pytest.param(["normalize", "--json", "vector.json"],
                 DESCRIPTOR_MODULES | {"suspcalc.normalizer"}, id="normalize"),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, capsys, args, loaded):
    write(tmp_path, "descriptor.json", SPIN_DESCRIPTOR)
    write(tmp_path, "vector.json", s5_to_s4({"eta": 1}))
    args = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in args]
    script = ("import json, sys; from suspcalc.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'suspcalc')),"
              " 'dataclasses' in sys.modules, file=sys.stderr)\n"
              "sys.exit(code)")
    src = str(Path(suspcalc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == EXIT_OK, proc.stderr
    modules, dataclasses_loaded = proc.stderr.splitlines()[-1].rsplit(" ", 1)
    assert set(json.loads(modules)) == loaded
    assert dataclasses_loaded == "False"
    code, out, _ = run_cli(args, tmp_path, capsys)
    assert code == EXIT_OK
    assert proc.stdout == out


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    ["classify", str(WIDE_DESCRIPTORS)],
    ["classify", "--json", "--stages", "--validate", str(WIDE_DESCRIPTORS)],
    ["tables"],
], ids=["classify-wide", "classify-wide-json", "tables"])
def test_closed_stdout_exits_without_traceback(args, unbuffered):
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set on this platform")
    src = str(Path(suspcalc.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    # One page of pipe, less than either output (the tables dump is 64 KB,
    # which a default pipe would hold whole): the command is still writing
    # when the reader closes, whatever the timing.
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    with open(read_end, "rb", buffering=0) as reader:
        proc = subprocess.Popen([sys.executable, "-m", "suspcalc.cli", *args],
                                stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
        head = b""
        while len(head) < 100:
            chunk = reader.read(100 - len(head))
            assert chunk, proc.stderr.read()
            head += chunk
    try:
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    err = proc.stderr.read().decode("utf-8", "replace")
    proc.stderr.close()
    assert err == ""  # no traceback, no "Exception ignored" line
    assert code == EXIT_STDOUT_CLOSED


def test_no_module_reads_the_environment():
    # Output depends on the arguments and the input alone.
    package = Path(suspcalc.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert not re.search(r"\b(environ|getenv)\b", path.read_text(encoding="utf-8")), path.name


# --------------------------------------------------------------------------
# input bounds, unreadable input and declined batch members
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "descriptor, culprit",
    [
        pytest.param(spin_with(m=10**6 + 1), "at most 1000000", id="m-over-bound"),
        pytest.param(spin_with(d=10**6 + 1), "at most 1000000", id="d-over-bound"),
        pytest.param(spin_with(torsion=[{"prime": 2, "exponent": 1, "multiplicity": 10**8}]),
                     "at most 10000 factors", id="multiplicity-1e8"),
        pytest.param(spin_with(torsion=[{"prime": 2, "exponent": 1, "multiplicity": 6000},
                                        {"prime": 3, "exponent": 1, "multiplicity": 4001}]),
                     "at most 10000 factors", id="summed-multiplicity-over-bound"),
        pytest.param(spin_with(torsion=[{"prime": 2, "exponent": 10**8}]), "2**64",
                     id="exponent-1e8"),
        pytest.param(spin_with(torsion=[{"prime": 2, "exponent": 64}]), "2**64",
                     id="order-2-to-the-64"),
        pytest.param(spin_with(torsion=[{"prime": 3, "exponent": 41}]), "2**64",
                     id="order-3-to-the-41"),
        pytest.param(spin_with(torsion=[{"prime": 2**64 + 13, "exponent": 1}]), "2**64",
                     id="prime-over-bound"),
    ],
)
@pytest.mark.parametrize("command", ["classify", "cohomotopy", "validate"])
def test_input_over_bound_rejected(tmp_path, capsys, command, descriptor, culprit):
    path = write(tmp_path, "d.json", descriptor)
    code, out, err = run_cli([command, path], tmp_path, capsys)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert culprit in err


def test_input_at_bound_accepted(tmp_path, capsys):
    descriptor = spin_with(torsion=[{"prime": 2, "exponent": 63},
                                    {"prime": 3, "exponent": 40, "multiplicity": 9999}])
    path = write(tmp_path, "d.json", descriptor)
    code, out, _ = run_cli(["classify", path, "--validate"], tmp_path, capsys)
    assert code == EXIT_OK
    assert f"P^4({2**63})" in out and out.count(f"P^5({3**40})") == 9999
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"[" + b"1" * 5000 + b"]", id="5000-digit-integer"),
        pytest.param(b"\xff\xfe{", id="not-utf-8"),
    ],
)
@pytest.mark.parametrize("command", ["classify", "normalize"])
def test_unreadable_json_rejected(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli([command, str(path)], tmp_path, capsys)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: malformed JSON:") and err.count("\n") == 1


@pytest.mark.parametrize("name, culprit", [
    pytest.param("missing.json", "[Errno 2] No such file or directory", id="missing-file"),
    pytest.param("directory", "[Errno 21] Is a directory", id="directory"),
])
@pytest.mark.parametrize("command", ["classify", "normalize"])
def test_unreadable_path_rejected(tmp_path, capsys, command, name, culprit):
    (tmp_path / "directory").mkdir(exist_ok=True)
    code, out, err = run_cli([command, str(tmp_path / name)], tmp_path, capsys)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith(f"error: {culprit}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["classify", "cohomotopy", "validate"])
def test_lone_surrogate_label_rejected_on_a_strict_stdout(command):
    # pytest's capture buffer takes strings that a real UTF-8 stdout refuses,
    # so only a process shows a label that reached the output.  Its stdout
    # must encode strictly: in UTF-8 mode it would escape the surrogate.
    src = str(Path(suspcalc.__file__).resolve().parents[1])
    path = DATA_DIR / "lone_surrogate_label.json"
    proc = subprocess.run(
        [sys.executable, "-m", "suspcalc.cli", command, str(path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "label" in proc.stderr


# Deeper than the decoder recurses on any supported Python.
NESTING = 10**5


@pytest.mark.parametrize(
    "content",
    [
        pytest.param("[" * NESTING + "]" * NESTING, id="nested-arrays"),
        pytest.param('{"a": ' * NESTING + "1" + "}" * NESTING, id="nested-objects"),
    ],
)
@pytest.mark.parametrize("command", ["classify", "cohomotopy", "validate", "normalize"])
def test_deeply_nested_json_rejected(tmp_path, capsys, command, content):
    path = tmp_path / "nested.json"
    path.write_text(content, encoding="utf-8")
    code, out, err = run_cli([command, str(path)], tmp_path, capsys)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: malformed JSON:") and err.count("\n") == 1


def _batch_with_declined(tmp_path):
    batch = [spin_with(label="first"), dict(OMITTED_DESCRIPTOR, label="no"),
             spin_with(label="second", m=2)]
    return write(tmp_path, "batch.json", batch)


@pytest.mark.parametrize("args", [["classify", "--json", "--stages", "--validate"],
                                  ["cohomotopy", "--json"]])
def test_declined_member_leaves_the_batch_reported(tmp_path, capsys, args):
    code, out, err = run_cli([*args, _batch_with_declined(tmp_path)], tmp_path, capsys)
    assert code == EXIT_OMITTED
    assert [item["label"] for item in json.loads(out)] == ["first", "second"]
    assert err.startswith("declined: descriptor 1: ") and err.count("\n") == 1


def test_declined_member_leaves_the_batch_validated(tmp_path, capsys):
    code, out, err = run_cli(["validate", _batch_with_declined(tmp_path)], tmp_path, capsys)
    assert code == EXIT_OMITTED
    labels = [line.split(":")[0] for line in out.splitlines()]
    assert labels == ["first"] * 4 + ["second"] * 4
    assert "[pass]" in out and "FAIL" not in out
    assert err.startswith("declined: descriptor 1: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [["validate"], ["classify", "--validate"]])
def test_failed_audit_outranks_declined_member(tmp_path, capsys, monkeypatch, args):
    failing = [CheckResult("homology", False, "tampered")]
    monkeypatch.setattr(suspcalc.cli, "validate_roundtrip", lambda inv, report: failing)
    code, out, err = run_cli([*args, _batch_with_declined(tmp_path)], tmp_path, capsys)
    assert code == EXIT_CHECK_FAILED
    assert "[FAIL] homology: tampered" in out
    assert err.startswith("declined: descriptor 1: ")


@pytest.mark.parametrize("batch", [[], [OMITTED_DESCRIPTOR] * 2], ids=["empty", "all-declined"])
@pytest.mark.parametrize("args, printed", [
    (["classify"], ""),
    (["cohomotopy"], ""),
    (["validate"], ""),
    (["classify", "--json"], "[]\n"),
    (["cohomotopy", "--json"], "[]\n"),
], ids=["classify", "cohomotopy", "validate", "classify-json", "cohomotopy-json"])
def test_batch_without_reports_prints_no_blank_line(tmp_path, capsys, batch, args, printed):
    path = write(tmp_path, "batch.json", batch)
    code, out, err = run_cli([*args, path], tmp_path, capsys)
    assert code == (EXIT_OMITTED if batch else EXIT_OK)
    assert out == printed
    assert err.count("declined: descriptor ") == err.count("\n") == len(batch)


@pytest.mark.parametrize("command", ["classify", "cohomotopy", "validate"])
def test_lone_declined_descriptor(tmp_path, capsys, command):
    path = write(tmp_path, "d.json", OMITTED_DESCRIPTOR)
    code, out, err = run_cli([command, path], tmp_path, capsys)
    assert code == EXIT_OMITTED
    assert out == ""
    assert err.startswith("declined: non-spin") and err.count("\n") == 1


# --------------------------------------------------------------------------
# the descriptor commands on mutated input
# --------------------------------------------------------------------------

DESCRIPTOR_COMMANDS = [
    ["classify"],
    ["classify", "--json", "--stages", "--validate"],
    ["classify", "--suspension-level", "1"],
    ["cohomotopy", "--json"],
    ["validate"],
]
ODD_FIELD_VALUES = [None, True, False, 0, -1, 1.5, "1", "", "B", "nontrivial", [], {}, [1],
                    {"prime": 2, "exponent": 1}]
EXTRA_KEYS = ["extra", "label", "j0", "j1", "j2", "multiplicity", "torsion"]


def _fields(data):
    """(container, key) for every field and list item, at any depth."""
    keys = range(len(data)) if isinstance(data, list) else list(data)
    out = []
    for key in keys:
        out.append((data, key))
        if isinstance(data[key], (dict, list)):
            out += _fields(data[key])
    return out


def _descriptor_mutant(rng: random.Random) -> str:
    data = [random_invariants(rng).to_json_dict() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        data = data[0]
    for _ in range(rng.randint(1, 2)):
        fields = _fields(data)
        if not fields:
            break
        container, key = rng.choice(fields)
        how = rng.randrange(4)
        if how == 0:
            container[key] = rng.choice(ODD_FIELD_VALUES)
        elif how == 1:
            del container[key]
        elif how == 2 and isinstance(container, dict):
            container[rng.choice(EXTRA_KEYS)] = rng.choice(ODD_FIELD_VALUES + [1, 2])
        else:
            container[key] = rng.choice([-1, 1]) * rng.choice([1, 2, 10**4, 2**63, 10**20, 10**400])
    text = json.dumps(data)
    if rng.random() < 0.1:
        text = text[: rng.randrange(len(text))]
    return text


def test_descriptor_commands_survive_mutated_descriptors(monkeypatch, capsys):
    # Every input ends in a report or a declined line (exit 0 or 3) or in
    # one error line (exit 2); never a traceback, never a failed audit.
    rng = random.Random(9)
    for _ in range(300):
        text = _descriptor_mutant(rng)
        for args in DESCRIPTOR_COMMANDS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = main([*args, "-"])
            out, err = capsys.readouterr()
            assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_OMITTED), (args, text)
            if code == EXIT_BAD_INPUT:
                assert out == "" and err.startswith("error:") and err.count("\n") == 1, (args, text)


# --------------------------------------------------------------------------
# the JSON writer
# --------------------------------------------------------------------------

# ASCII, the escaped controls and quotes, DEL, non-ASCII, a lone surrogate
# and a character outside the BMP.
JSON_TEXT = st.text(st.sampled_from(
    'aZ0 /\x00\x08\t\n\x0c\r\x1f"\\\x7f\x80\u00e9\u2028\uffff\ud800\U0001d11e'))
# Wedge notation, which the writer copies between quotes unescaped.
NOTATION_TEXT = st.lists(st.tuples(recorded_complexes, st.integers(1, 5)), max_size=4).map(
    lambda counts: WedgeComplex(counts=counts).notation)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**100, 2**100) | JSON_TEXT
    | NOTATION_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=10,
)


def json_text(obj) -> str:
    """The chunks ``cli._write_json`` writes for ``obj``, joined."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


@given(JSON_TREES)
def test_json_text_is_json_dumps_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("bad", [1.5, (1,), {1}, b"x", object(), {1: 2}, {None: 2}])
def test_json_text_rejects_other_types(bad):
    for obj in (bad, [bad], {"key": [0, {"key": bad}]}):
        with pytest.raises(TypeError):
            json_text(obj)


def test_json_text_leaves_no_cycles():
    # A writer that recursed through a closure would leave each call's
    # chunks in a reference cycle for the cyclic collector.
    doc = build_tables()
    gc.collect()
    json_text(doc)
    assert gc.collect() == 0


class _WriteLog(io.StringIO):
    """A stand-in stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


def _printed_as_indent_2(args, stdin: str) -> tuple[str, list[int]]:
    """stdout of ``main(args)`` on ``stdin``, checked to be json.dumps(indent=2)
    of itself, and the length of each write that printed it."""
    saved_in, sys.stdin = sys.stdin, io.StringIO(stdin)
    saved_out, sys.stdout = sys.stdout, _WriteLog()
    try:
        assert main(args) == EXIT_OK, args
        out, lengths = sys.stdout.getvalue(), sys.stdout.lengths
    finally:
        sys.stdin, sys.stdout = saved_in, saved_out
    assert out == json.dumps(json.loads(out), indent=2) + "\n", args
    return out, lengths


@given(st.lists(valid_invariants(), min_size=1, max_size=3), st.booleans())
def test_descriptor_commands_print_json_dumps_indent_2(invariants, single):
    data = [inv.to_json_dict() for inv in invariants]
    stdin = json.dumps(data[0] if single else data)
    commands = [["classify", "--json", "--suspension-level", level, *extra, "-"]
                for level in ("1", "2")
                for extra in ([], ["--stages"], ["--validate"], ["--stages", "--validate"])]
    for args in [*commands, ["cohomotopy", "--json", "-"]]:
        _, lengths = _printed_as_indent_2(args, stdin)
        assert len(lengths) == 1, args  # a small output is one write


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _strings(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _strings(value)


def test_wide_classify_prints_json_dumps_indent_2():
    # m = d = 10^4 and 40 2-primary factors, with a trivial and with a
    # non-trivial Postnikov square: a megabyte of wedge notation, which the
    # writer copies between quotes unescaped.
    out, lengths = _printed_as_indent_2(["classify", "--json", "--stages", "--validate", "-"],
                                        WIDE_DESCRIPTORS.read_text(encoding="utf-8"))
    payloads = json.loads(out)
    assert [p["invariants"]["postnikov_trivial"] for p in payloads] == [True, False]
    assert "symbolic" in payloads[1]["stages"]["W4"]
    assert payloads[0]["sigma2"].count("S^4") == 10**4
    assert all(c["passed"] for p in payloads for c in p["checks"])
    # Written in pieces: no string the size of the output is built.
    assert max(lengths) <= max(map(len, _strings(payloads)))


def test_labels_with_escaped_characters_print_intact(tmp_path, capsys):
    label = 'a "quoted" \\ back\\slash\nnew line, \u00e9\u2028\U0001d11e'
    path = write(tmp_path, "d.json", [spin_with(label=label), spin_with(label=label + "*")])
    for extra in ([], ["--stages", "--validate"]):
        code, out, _ = run_cli(["classify", "--json", *extra, path], tmp_path, capsys)
        assert code == EXIT_OK
        assert [p["label"] for p in json.loads(out)] == [label, label + "*"]
        assert out.isascii()


@pytest.mark.parametrize("vector", [
    {"source": "S^5", "entries": [{"target": "S^4", "coefficients": {"eta": 1}},
                                  {"target": "P^4(4)", "coefficients": {"eta~_2": 1}}]},
    {"source": "S^4", "entries": [{"target": "S^3", "coefficients": {"eta": 1}},
                                  {"target": "P^4(2)", "coefficients": {"i_3 eta": 1}},
                                  {"target": "S^3"}]},
    {"source": "S^6", "entries": [{"target": "S^5", "coefficients": {}}]},
])
def test_normalize_prints_json_dumps_indent_2(vector):
    _printed_as_indent_2(["normalize", "--json", "-"], json.dumps(vector))


@pytest.mark.parametrize("family", [None, *catalog.FAMILIES])
def test_tables_print_json_dumps_indent_2(family):
    out, _ = _printed_as_indent_2(["tables"] + (["--filter", family] if family else []), "")
    # The transcription's rows of the family, as json.dumps spells them.
    dump = json.loads(TRANSCRIPTION.read_text(encoding="utf-8"))
    if family:
        dump = {section: [row for row in rows if row["family"] == family]
                for section, rows in dump.items()}
    assert out == json.dumps(dump, indent=2) + "\n"
