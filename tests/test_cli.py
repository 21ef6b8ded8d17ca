import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import suspcalc
import suspcalc.cli
from suspcalc.catalog import parse_wedge
from suspcalc.classifier import CheckResult
from suspcalc.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_OK, EXIT_OMITTED, main

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


def test_classify_suspension_level_one_unresolved(tmp_path, capsys):
    descriptor = dict(SPIN_DESCRIPTOR, postnikov_trivial=False)
    path = write(tmp_path, "d.json", descriptor)
    code, out, _ = run_cli(["classify", path, "--suspension-level", "1"], tmp_path, capsys)
    assert code == EXIT_OK
    assert "Unresolved" in out


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
        pytest.param(spin_with(m=True), "'m'", id="boolean-m"),
        pytest.param(spin_with(spin=1), "spin", id="integer-spin"),
        pytest.param(spin_with(label=None), "label", id="null-label"),
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
    sigma2 = parse_wedge(payload["sigma2"])
    assert sigma2.notation == payload["sigma2"]
    sigma = parse_wedge(payload["sigma"])
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


def test_cli_imports_without_jsonschema():
    src = str(Path(suspcalc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, suspcalc.cli; print('jsonschema' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


@pytest.mark.parametrize("command", ["classify", "cohomotopy", "validate"])
def test_lone_declined_descriptor(tmp_path, capsys, command):
    path = write(tmp_path, "d.json", OMITTED_DESCRIPTOR)
    code, out, err = run_cli([command, path], tmp_path, capsys)
    assert code == EXIT_OMITTED
    assert out == ""
    assert err.startswith("declined: non-spin") and err.count("\n") == 1
