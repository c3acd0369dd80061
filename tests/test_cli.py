import os
import subprocess
import sys
from pathlib import Path

import zwreath
from zwreath.cli import main
from zwreath.equations import MAX_NESTING
from zwreath.interp import MAX_RANKS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_witness_verify_round_trip(tmp_path, capsys):
    system = tmp_path / "sys.eqs"
    assignment = tmp_path / "wit.asg"
    code, _, _ = run(capsys, "compile", "--poly", "z1 - 2", "--ranks", "1,1",
                     "-o", str(system))
    assert code == 0
    code, _, _ = run(capsys, "witness", "--poly", "z1 - 2", "--ranks", "1,1",
                     "--solution", "2", "-o", str(assignment))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--ranks", "1,1",
                       "--system", str(system), "--assignment", str(assignment))
    assert code == 0
    assert "satisfied: all 10 equations hold" in out
    assert out.count(": ok") == 10


def test_verify_reports_failures(tmp_path, capsys):
    system = tmp_path / "sys.eqs"
    assignment = tmp_path / "wit.asg"
    run(capsys, "compile", "--poly", "z1 - 2", "--ranks", "1,1", "-o", str(system))
    run(capsys, "witness", "--poly", "z1 - 2", "--ranks", "1,1",
        "--solution", "2", "-o", str(assignment))
    # corrupt the witness: x1 becomes the identity
    text = assignment.read_text()
    text = text.replace("x1 := { active: (2); }", "x1 := { active: (0); }")
    assignment.write_text(text)
    code, out, _ = run(capsys, "verify", "--ranks", "1,1",
                       "--system", str(system), "--assignment", str(assignment))
    assert code == 1
    assert "unsatisfied" in out
    assert "FAIL" in out


def test_compile_is_deterministic(tmp_path, capsys):
    first = tmp_path / "one.eqs"
    second = tmp_path / "two.eqs"
    run(capsys, "compile", "--poly", "z1^2*z2 - 6", "--ranks", "2,1", "-o", str(first))
    run(capsys, "compile", "--poly", "z1^2*z2 - 6", "--ranks", "2,1", "-o", str(second))
    assert first.read_bytes() == second.read_bytes()
    wit1 = tmp_path / "one.asg"
    wit2 = tmp_path / "two.asg"
    run(capsys, "witness", "--poly", "z1*z2 - 6", "--ranks", "1,1",
        "--solution", "2,3", "-o", str(wit1))
    run(capsys, "witness", "--poly", "z1*z2 - 6", "--ranks", "1,1",
        "--solution", "2,3", "-o", str(wit2))
    assert wit1.read_bytes() == wit2.read_bytes()


def test_oracle_output_non_root(capsys):
    code, out, _ = run(capsys, "oracle", "--poly", "z1 - 2", "--ranks", "1,1",
                       "--solution", "3")
    assert code == 0
    assert out == "e_f = a1^3 - 2*a1 + 1\nvaluation 1 < 2: NOT a solution\n"


def test_oracle_output_root(capsys):
    code, out, _ = run(capsys, "oracle", "--poly", "z1 - 2", "--ranks", "1,1",
                       "--solution", "2")
    assert code == 0
    assert out == "e_f = a1^2 - 2*a1 + 1\nvaluation 2 >= 2: solution\n"


def test_extract_round_trip(tmp_path, capsys):
    assignment = tmp_path / "wit.asg"
    run(capsys, "witness", "--poly", "z1*z2 - 6", "--ranks", "1,1",
        "--solution", "2,3", "-o", str(assignment))
    code, out, _ = run(capsys, "extract", "--poly", "z1*z2 - 6", "--ranks", "1,1",
                       "--assignment", str(assignment))
    assert code == 0
    assert out == "2,3\n"


def test_lcs_rank(capsys):
    code, out, _ = run(capsys, "lcs-rank", "--ranks", "2,1", "--i", "2")
    assert code == 0
    assert out == "2\n"
    code, out, _ = run(capsys, "lcs-rank", "--ranks", "2,1", "--i", "4")
    assert code == 0
    assert out == "2\n"


def test_lcs_rank_requires_two_ranks(capsys):
    code, _, err = run(capsys, "lcs-rank", "--ranks", "1,1,1", "--i", "2")
    assert code == 2
    assert "two ranks" in err


def test_witness_non_root_is_a_precondition_failure(capsys):
    code, _, err = run(capsys, "witness", "--poly", "z1 - 2", "--ranks", "1,1",
                       "--solution", "3")
    assert code == 3
    assert "not a root" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.eqs"
    bad.write_text("[x, = 1\n")
    wit = tmp_path / "wit.asg"
    wit.write_text("")
    code, _, err = run(capsys, "verify", "--ranks", "1,1",
                       "--system", str(bad), "--assignment", str(wit))
    assert code == 2
    assert "line 1" in err


def test_iterated_pipeline_through_cli(tmp_path, capsys):
    system = tmp_path / "sys.eqs"
    assignment = tmp_path / "wit.asg"
    code, _, _ = run(capsys, "compile", "--poly", "z1 - 2", "--ranks", "1,1,1",
                     "-o", str(system))
    assert code == 0
    code, _, _ = run(capsys, "witness", "--poly", "z1 - 2", "--ranks", "1,1,1",
                     "--solution", "2", "-o", str(assignment))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--ranks", "1,1,1",
                       "--system", str(system), "--assignment", str(assignment))
    assert code == 0
    assert "satisfied" in out
    code, out, _ = run(capsys, "extract", "--poly", "z1 - 2", "--ranks", "1,1,1",
                       "--assignment", str(assignment))
    assert code == 0
    assert out == "2\n"


def test_selftest_subcommand_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--samples", "5", "--seed", "1")
    assert code == 0
    assert "reduction-oracle: PASS" in out
    assert "FAIL" not in out


def test_repeated_support_point_is_a_parse_error(tmp_path, capsys):
    system = tmp_path / "sys.eqs"
    assignment = tmp_path / "wit.asg"
    run(capsys, "compile", "--poly", "z1 - 2", "--ranks", "1,1,1", "-o", str(system))
    run(capsys, "witness", "--poly", "z1 - 2", "--ranks", "1,1,1",
        "--solution", "2", "-o", str(assignment))
    text = assignment.read_text()
    # Each rewrite names the same element as before, out of normal form.
    rewrites = [
        ("x1 := { active: { active: (2); }; }",
         "x1 := { active: { active: (2); }; "
         "[ { active: (1); } -> (8) ], [ { active: (1); } -> (-8) ] }",
         "repeated support point { active: (1); }"),
        ("cyc_z_1 := { active: { active: (0); b1: a1 + 1 }; }",
         "cyc_z_1 := { active: { active: (0); b1: 8*a1 + 1, b1: -7*a1 }; }",
         "duplicate base coordinate b1"),
    ]
    for old, new, message in rewrites:
        assert old in text
        assignment.write_text(text.replace(old, new))
        code, out, err = run(capsys, "verify", "--ranks", "1,1,1",
                             "--system", str(system), "--assignment", str(assignment))
        assert code == 2
        assert out == ""
        assert message in err


def test_too_many_ranks_is_a_precondition_error(capsys):
    for depth in (MAX_RANKS + 1, 400):
        ranks = ",".join(["1"] * depth)
        code, out, err = run(capsys, "compile", "--poly", "z1 - 2", "--ranks", ranks)
        assert code == 3
        assert out == ""
        assert err == f"error: at most {MAX_RANKS} ranks are supported, got {depth}\n"


def test_longest_rank_list_compiles(capsys):
    code, out, _ = run(capsys, "compile", "--poly", "z1 - 2",
                       "--ranks", ",".join(["1"] * MAX_RANKS))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11  # the declaration line and the flat system's 10 equations
    assert lines[1].startswith("[" * (MAX_RANKS - 1) + "x1, ")


def test_longest_rank_list_text_is_linear_and_round_trips(tmp_path, capsys):
    # Every constant is a generator word, so each lifted level adds O(1)
    # text to each equation: about 6 KB here, where element literals took
    # 784 KB (the word of level k's base generator is as long as level k).
    ranks = ",".join(["1"] * MAX_RANKS)
    system, assignment = tmp_path / "deep.eqs", tmp_path / "deep.asg"
    assert run(capsys, "compile", "--poly", "z1 - 2", "--ranks", ranks,
               "-o", str(system))[0] == 0
    assert len(system.read_bytes()) < 64 * 1024
    assert run(capsys, "witness", "--poly", "z1 - 2", "--ranks", ranks, "--solution", "2",
               "-o", str(assignment))[0] == 0
    code, out, _ = run(capsys, "verify", "--ranks", ranks, "--system", str(system),
                       "--assignment", str(assignment))
    assert (code, out.splitlines()[-1]) == (0, "satisfied: all 10 equations hold")
    assert run(capsys, "extract", "--poly", "z1 - 2", "--ranks", ranks,
               "--assignment", str(assignment)) == (0, "2\n", "")


def _deep_commutator(depth, step):
    word = "x"
    for _ in range(depth):
        word = step.format(word)
    return word


def test_over_deep_nesting_is_a_parse_error(tmp_path, capsys):
    system = tmp_path / "deep.eqs"
    system.write_text("# vars: x\n" + _deep_commutator(1500, "[{}, x]") + " = 1\n")
    assignment = tmp_path / "x.asg"
    assignment.write_text("x := { active: (1); b1: 1 }\n")
    code, out, err = run(capsys, "verify", "--ranks", "1,1",
                         "--system", str(system), "--assignment", str(assignment))
    assert code == 2
    assert out == ""
    assert err == (f"error: line 2, col {MAX_NESTING + 1}: brackets and parentheses "
                   f"nested deeper than {MAX_NESTING}\n")


def test_deepest_allowed_nesting_evaluates(tmp_path, capsys):
    # Three word nodes per level (commutator, concatenation, power), the
    # deepest shape the parser builds, at exactly the nesting limit.
    system = tmp_path / "deep.eqs"
    system.write_text("# vars: x\n" + _deep_commutator(MAX_NESTING, "[{}^2 x, x]") + " = 1\n")
    assignment = tmp_path / "x.asg"
    assignment.write_text("x := { active: (1); }\n")
    code, out, _ = run(capsys, "verify", "--ranks", "1,1",
                       "--system", str(system), "--assignment", str(assignment))
    assert (code, out) == (0, "equation 1: ok\nsatisfied: all 1 equations hold\n")


def test_python_dash_m_matches_in_process_main(capsys):
    argv = ["oracle", "--poly", "z1 - 2", "--ranks", "1,1", "--solution", "3"]
    expected_code, expected_out, _ = run(capsys, *argv)
    src = str(Path(zwreath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "zwreath", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (expected_code, expected_out)
