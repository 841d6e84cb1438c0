import json
import subprocess
import sys

import pytest

from padicforms import cli, linalg
from padicforms.arith import ConfigurationError
from padicforms.cli import main
from padicforms.derham import build_omega, omega_cohomology
from padicforms.linalg import StructuralError
from padicforms.massey import fixture_to_json, obstruction_fixture
from padicforms.report import validate_report
from padicforms.simplicial import rp2


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cohomology_singular_rp2(capsys):
    code, out = run_cli(capsys, "cohomology", "--space", "rp2")
    assert code == 0
    payload = json.loads(out)
    assert validate_report(payload) == []
    by_degree = {e["degree"]: e for e in payload["degrees"]}
    assert by_degree[0]["free_rank"] == 1
    assert by_degree[1] == {"degree": 1, "free_rank": 0, "torsion": [],
                            "prime_to_p_torsion": [], "generators": []}
    assert by_degree[2]["torsion"] == [2]


def test_cohomology_decalage_matches_singular(capsys):
    code, out = run_cli(capsys, "cohomology", "--space", "rp2",
                        "--model", "decalage")
    assert code == 0
    payload = json.loads(out)
    by_degree = {e["degree"]: e for e in payload["degrees"]}
    assert by_degree[2]["torsion"] == [2]
    assert by_degree[0]["free_rank"] == 1


def test_cohomology_omega_sphere1(capsys):
    code, out = run_cli(capsys, "--prime", "3", "cohomology",
                        "--space", "sphere:1", "--model", "omega")
    assert code == 0
    payload = json.loads(out)
    by_degree = {e["degree"]: e for e in payload["degrees"]}
    assert by_degree[0]["free_rank"] == 1
    assert by_degree[1]["free_rank"] == 1
    assert all(payload["stable"].values())


def test_cohomology_omega_instability_exit_code(capsys):
    # the sphere(2) omega model is flagged unstable at the default weight
    code, out = run_cli(capsys, "cohomology", "--space", "sphere:2",
                        "--model", "omega")
    assert code == 3
    payload = json.loads(out)
    assert payload["stable"]["2"] is False


def test_omega_weight_below_the_form_degree_is_configuration_error(capsys):
    """At W = 2 sphere:3 has no omega 3-forms at W or W-1, so the stability
    flag cannot see the missing H^3 = Z: the run stops with exit 2."""
    code = main(["--weight", "2", "cohomology", "--space", "sphere:3",
                 "--model", "omega"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("configuration error: weight 2 is below degree 3: "
                            "omega forms of degree 3 need weight >= 3\n")


@pytest.mark.parametrize("call, argv, message", [
    (lambda: omega_cohomology(rp2(), 1, 2, 2),
     ["--weight", "1", "cohomology", "--space", "rp2", "--model", "omega"],
     "stability needs weight >= 2"),
    (lambda: build_omega(1, 9, 2),
     ["--weight", "9", "verify", "--suite", "poincare"],
     "desk-scale bounds are n <= 3, weight <= 8"),
], ids=["omega-weight-1", "poincare-weight-9"])
def test_omega_bounds_are_configuration_errors(call, argv, message, capsys):
    """The bounds the CLI can reach raise ConfigurationError, not a bare
    ValueError, and exit 2 with their message."""
    with pytest.raises(ConfigurationError, match=message):
        call()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_unknown_space_is_configuration_error(capsys):
    code = main(["cohomology", "--space", "klein"])
    assert code == 2


def test_nonprime_is_configuration_error(capsys):
    code = main(["--prime", "6", "cohomology", "--space", "rp2"])
    assert code == 2


def test_missing_space_file_is_configuration_error(tmp_path, capsys):
    code = main(["cohomology", "--space", f"@{tmp_path / 'nonexistent'}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("configuration error: cannot read space file")
    assert "Traceback" not in captured.err


def test_bad_face_table_is_configuration_error(tmp_path, capsys):
    space_file = tmp_path / "bad.space"
    space_file.write_text("space bad\n0: v\n1: a\n2: U\na: v v\nU: a a s9.v\n")
    code = main(["cohomology", "--space", f"@{space_file}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        f"configuration error: bad space file {space_file}: missing face ('v', 0)\n"


def test_massey_two_degrees_without_rectify_is_configuration_error(capsys):
    code = main(["massey", "--space", "rp2", "--degrees", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "configuration error: --degrees needs three degrees " \
        "(two or three with --rectify)\n"


def test_massey_too_few_class_indices_is_configuration_error(capsys):
    code = main(["massey", "--space", "rp2", "--degrees", "1,1,1",
                 "--classes", "0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        "configuration error: --classes needs one index per degree\n"


@pytest.mark.parametrize("argv, message", [
    (["--coefficients", "zmod", "--classes", "0,-2,0"],
     "--classes indices must be nonnegative"),
    (["--classes=-1,0,0"], "--classes indices must be nonnegative"),
    (["--degrees=-1,1,1", "--classes", "zero"], "--degrees must be nonnegative"),
], ids=["negative-index-past-the-end", "negative-index-wraps", "negative-degree"])
def test_massey_negative_index_or_degree_is_configuration_error(argv, message,
                                                               capsys):
    degrees = [] if any(a.startswith("--degrees") for a in argv) else \
        ["--degrees", "1,1,1"]
    code = main(["massey", "--space", "rp2"] + degrees + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--degrees", "1,x,1"], "--degrees wants comma-separated integers, got '1,x,1'"),
    (["--degrees", "1,1,1", "--scaling", "1,1"], "--scaling needs three exponents r,s,t"),
    (["--degrees", "1,1,1", "--scaling", "0,-1,0"],
     "--scaling exponents must be nonnegative"),
], ids=["degree-not-an-integer", "two-scaling-exponents", "negative-exponent"])
def test_massey_malformed_list_is_configuration_error(argv, message, capsys):
    code = main(["massey", "--space", "rp2"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


@pytest.mark.parametrize("token", ["sphere:x", "delta:2x", "boundary_delta:-"])
def test_space_argument_not_an_integer_is_configuration_error(token, capsys):
    code = main(["cohomology", "--space", token, "--model", "singular"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    arg = token.partition(":")[2]
    assert captured.err == (f"configuration error: --space {token}: wants an "
                            f"integer after ':', got {arg!r}\n")


def test_missing_fixture_file_is_configuration_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    code = main(["massey", "--fixture", str(missing), "--degrees", "1,1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"configuration error: cannot read fixture file " \
        f"{missing}: No such file or directory\n"


def test_structural_error_is_internal_error(monkeypatch, capsys):
    def broken(*args):
        raise StructuralError("d o d != 0 at this degree")

    monkeypatch.setattr(cli, "cohomology_ring", broken)
    code = main(["cohomology", "--space", "rp2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "internal error: d o d != 0 at this degree\n"


def test_schema_failure_is_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "validate_report", lambda payload: ["degrees: missing"])
    code = main(["cohomology", "--space", "rp2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == ("internal error: report failed schema validation:\n"
                            "  degrees: missing\n")


def test_unwritable_out_file_is_configuration_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["cohomology", "--space", "rp2", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: cannot write {target}:")
    assert len(captured.err.splitlines()) == 1
    assert not target.exists()


@pytest.mark.parametrize("text, line, message", [
    ("space bad\n0: v w\n1: a\na: v w v\n", 4, "'a' has 3 faces, want 2"),
    ("space bad\n0: v w\n1: a\na: v w\nv: a\n", 5,
     "'v' is not a simplex of positive dimension"),
    ("space bad\n0: v w\n1: a\na: v w\na: w v\n", 5, "a second line for 'a'"),
    ("space bad\n0: v w\n1: a\n1: a\na: v w\n", 4, "a second line for '1'"),
    ("0: pt\n1: cell\ncell: pt pt\n", 1,
     "no 'space NAME' header before it"),
], ids=["extra-face", "vertex-faces", "two-face-lines", "two-level-lines",
        "no-header"])
def test_malformed_space_file_is_configuration_error(tmp_path, capsys, text,
                                                     line, message):
    space_file = tmp_path / "bad.space"
    space_file.write_text(text)
    code = main(["cohomology", "--space", f"@{space_file}", "--model", "singular"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"configuration error: line {line}: {message}\n"


@pytest.mark.parametrize("argv, count", [
    (("cohomology", "--space", "rp2", "--model", "singular"), 5),
    (("cohomology", "--space", "rp2", "--model", "decalage"), 8),
    (("cohomology", "--space", "sphere:2", "--model", "singular"), 3),
    (("cohomology", "--space", "sphere:2", "--model", "decalage"), 6),
    (("massey", "--space", "rp2", "--degrees", "1,1,1", "--coefficients",
      "zmod"), 3),
    (("massey", "--space", "sphere:2", "--degrees", "1,1,1", "--classes",
      "zero", "--scaling", "1,0,0", "--coefficients", "zmod"), 1),
], ids=["rp2-singular-5", "rp2-decalage-8", "sphere:2-singular-3",
        "sphere:2-decalage-6", "massey-rp2-zmod-3", "massey-sphere2-scaling-1"])
def test_cohomology_smith_form_counts(capsys, monkeypatch, argv, count):
    """Integer Smith forms per run: one per differential and one per
    degree's relations.  A second factorization of a kernel or lattice basis,
    or of a differential that a Massey input already holds, shows here as a
    larger count."""
    real = linalg.smith_normal_form
    calls = []
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda mat: calls.append(mat) or real(mat))
    code, _ = run_cli(capsys, *argv)
    assert (code, len(calls)) == (0, count)


def test_space_dump_load_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "rp2.space"
    code, _ = run_cli(capsys, "--out", str(out_file), "--format", "text",
                      "space", "dump", "--space", "rp2")
    assert code == 0
    text = out_file.read_text()
    assert "U: b a c" in text
    # strip the report preamble down to the space block for loading
    block = text[text.index("space rp2"):]
    space_file = tmp_path / "loaded.space"
    space_file.write_text(block)
    code, out = run_cli(capsys, "space", "load", "--file", str(space_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["cells"] == [2, 3, 2]
    assert payload["euler_characteristic"] == 1


def test_space_file_cohomology(tmp_path, capsys):
    from padicforms.simplicial import rp2
    space_file = tmp_path / "my.space"
    space_file.write_text(rp2().dump())
    code, out = run_cli(capsys, "cohomology", "--space", f"@{space_file}")
    assert code == 0


def test_massey_zero_classes_vanish(capsys):
    code, out = run_cli(capsys, "massey", "--space", "sphere:2",
                        "--degrees", "1,1,1", "--classes", "zero")
    assert code == 0
    payload = json.loads(out)
    assert validate_report(payload) == []
    assert payload["vanishes"] is True


def test_massey_fixture_obstructed(tmp_path, capsys):
    fixture_file = tmp_path / "fixture.json"
    fixture_file.write_text(fixture_to_json(obstruction_fixture()))
    code, out = run_cli(capsys, "massey", "--fixture", str(fixture_file),
                        "--degrees", "1,1", "--classes", "0,1", "--rectify")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "obstructed"
    assert payload["vanishes"] is False


def test_massey_scaling_flag(tmp_path, capsys):
    fixture_file = tmp_path / "fixture.json"
    fixture_file.write_text(fixture_to_json(obstruction_fixture()))
    code, out = run_cli(capsys, "massey", "--fixture", str(fixture_file),
                        "--degrees", "1,1,1", "--classes", "0,1,0",
                        "--scaling", "1,1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "scaling-holds"


def test_verify_gamma_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "gamma_oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_verify_extendability_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "extendability")
    assert code == 0


def test_text_format(capsys):
    code, out = run_cli(capsys, "--format", "text", "cohomology",
                        "--space", "rp2")
    assert code == 0
    assert "H^2: free rank 0, torsion Z/2" in out


def test_byte_identical_reruns(capsys):
    code1, out1 = run_cli(capsys, "cohomology", "--space", "rp2")
    code2, out2 = run_cli(capsys, "cohomology", "--space", "rp2")
    assert (code1, out1) == (code2, out2)


def test_fixture_generator_indices_match_expectation():
    # the CLI picks classes by generator index; make the obstruction pair
    # (a, b) discoverable: degree-1 generators of the fixture are a, b, c
    dga = obstruction_fixture()
    rep = dga.cohomology(1, ("GF", 2))
    assert rep.free_rank == 3
    gens = [tuple(g) for g in rep.generators]
    assert (1, 0, 0, 0) in gens and (0, 1, 0, 0) in gens
