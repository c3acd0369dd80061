import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zwreath
from zwreath.cli import main
from zwreath.equations import MAX_NESTING
from zwreath.interp import MAX_RANKS
from zwreath.wreath import MAX_RANK


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
    assert "satisfied: all 2 equations hold" in out
    assert out.count(": ok") == 2


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


def test_verify_reports_every_equation_of_a_long_mixed_system(tmp_path, capsys):
    # Equation i fails exactly when i is a multiple of 3 or of 7: x is a1,
    # so `x = 1` fails and `x = @a1` holds.
    failing = [i % 3 == 0 or i % 7 == 0 for i in range(3000)]
    system = tmp_path / "sys.eqs"
    assignment = tmp_path / "x.asg"
    system.write_text("".join("x = 1\n" if bad else "x = @a1\n" for bad in failing))
    assignment.write_text("x := { active: (1); }\n")
    code, out, _ = run(capsys, "verify", "--ranks", "1,1",
                       "--system", str(system), "--assignment", str(assignment))
    assert code == 1
    expected = [f"equation {i + 1}: {'FAIL' if bad else 'ok'}" for i, bad in enumerate(failing)]
    expected.append(f"unsatisfied: {sum(failing)} of 3000 equations fail")
    assert out.splitlines() == expected


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


@pytest.mark.parametrize("poly, solution, ranks, expected", [
    ("z1*z2 - 6", "2,3", "1,1",
     "e_f = a1^5 - a1^3 - 7*a1^2 + 12*a1 - 5\nvaluation 3 >= 3: solution\n"),
    ("z1*z2 - 6", "3,3", "2,3",
     "e_f = a1^6 - 2*a1^3 - 6*a1^2 + 12*a1 - 5\nvaluation 2 < 3: NOT a solution\n"),
    ("z1^2 - 4", "-2", "1,1",
     "e_f = -4*a1^2 + 8*a1 - 3 - 2*a1^-2 + a1^-4\nvaluation 3 >= 3: solution\n"),
    ("3*z1^2*z2 - z1*z3 + 7", "1,-1,4", "1,1,1",
     "e_f = -a1^6 + 2*a1^5 - a1^4 + 7*a1^3 - 23*a1^2 + 28*a1 - 15 + 3*a1^-1\n"
     "valuation 4 >= 4: solution\n"),
], ids=["root", "non-root", "negative-root", "three-variables"])
def test_oracle_golden_output(capsys, poly, solution, ranks, expected):
    # The text printed when e_f was built by ring products and powers.
    assert run(capsys, "oracle", "--poly", poly, "--ranks", ranks,
               "--solution", solution) == (0, expected, "")


def test_oracle_computes_the_valuation_once(monkeypatch, capsys):
    # The verdict is read off the one valuation that is printed; before,
    # `oracle_ef` computed it a second time through `delta_membership`.
    real = zwreath.laurent.aug_valuation
    calls = []

    def counting(p):
        calls.append(p)
        return real(p)

    for module in (zwreath.laurent, zwreath.cli):
        monkeypatch.setattr(module, "aug_valuation", counting)
    for solution, expected in [
            ("2", "e_f = a1^2 - 2*a1 + 1\nvaluation 2 >= 2: solution\n"),
            ("3", "e_f = a1^3 - 2*a1 + 1\nvaluation 1 < 2: NOT a solution\n")]:
        calls.clear()
        assert run(capsys, "oracle", "--poly", "z1 - 2", "--ranks", "1,1",
                   "--solution", solution) == (0, expected, "")
        assert len(calls) == 1


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
    # Well-formed but unsupported, like `--i 1`: a precondition failure.
    code, _, err = run(capsys, "lcs-rank", "--ranks", "1,1,1", "--i", "2")
    assert code == 3
    assert "two ranks" in err
    # A single rank names no group: malformed input, as for every subcommand.
    code, _, err = run(capsys, "lcs-rank", "--ranks", "1", "--i", "2")
    assert code == 2
    assert "two ranks" in err


def test_witness_non_root_is_a_precondition_failure(capsys):
    code, _, err = run(capsys, "witness", "--poly", "z1 - 2", "--ranks", "1,1",
                       "--solution", "3")
    assert code == 3
    assert "not a root" in err


def test_overlong_integer_in_a_list_names_the_digit_limit(capsys):
    long = "1" * 5000
    for argv in (["witness", "--poly", "z1 - 2", "--ranks", "1,1", "--solution", long],
                 ["oracle", "--poly", "z1 - 2", "--ranks", "1,1", "--solution", "2," + long],
                 ["compile", "--poly", "z1 - 2", "--ranks", "1," + long]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1, col ")
        assert f"exceeds the limit of {sys.get_int_max_str_digits()} digits" in err
        assert len(err) < 200


def test_output_past_the_digit_limit_is_a_precondition_failure(tmp_path, capsys):
    # `C*z1^60 - D`, with C the 4270-digit 99...9 and D = C*2^60, has the
    # root 2, and its membership polynomial holds coefficients of more
    # digits than `str()` converts; so does the 20000th lower-central-series
    # rank of Z^20000 wr Z.  D has 4289 digits, spelled as
    # (2^60 - 1)*10^4270 + (10^4270 - 2^60).  The witness writes y, the
    # quotient of the membership polynomial by (a1-1)^61, whose coefficients
    # are partial sums of f(1 + a1) and stay below |D|.  `M*z1^2 - 1000*M*z1`,
    # with M the 4296-digit 99...9, has the root 1000, and its y holds
    # coefficients up to about M*1000^2/2, of 4302 digits.
    poly = f"{'9' * 4270}*z1^60 - {2 ** 60 - 1}{10 ** 4270 - 2 ** 60}"
    wide = f"{'9' * 4296}*z1^2 - {'9' * 4296}000*z1"
    limit = sys.get_int_max_str_digits()
    out_file = tmp_path / "wit.asg"
    for argv in (["lcs-rank", "--ranks", "1,20000", "--i", "20000"],
                 ["witness", "--poly", wide, "--ranks", "1,1", "--solution", "1000"],
                 ["witness", "--poly", wide, "--ranks", "1,1", "--solution", "1000",
                  "-o", str(out_file)],
                 ["oracle", "--poly", poly, "--ranks", "1,1", "--solution", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (f"error: the output holds an integer of more than {limit} "
                       "digits, the limit of the readers\n")
    assert not out_file.exists()
    # The systems hold no such integer, nor does the witness of `C*z1^60 - D`,
    # which verifies and gives its root back.
    for text in (poly, wide):
        code, out, _ = run(capsys, "compile", "--poly", text, "--ranks", "1,1")
        assert code == 0 and out
    system = tmp_path / "sys.eqs"
    assert run(capsys, "compile", "--poly", poly, "--ranks", "1,1", "-o", str(system))[0] == 0
    assert run(capsys, "witness", "--poly", poly, "--ranks", "1,1", "--solution", "2",
               "-o", str(out_file))[0] == 0
    code, out, _ = run(capsys, "verify", "--ranks", "1,1", "--system", str(system),
                       "--assignment", str(out_file))
    assert (code, out.splitlines()[-1]) == (0, "satisfied: all 2 equations hold")
    assert run(capsys, "extract", "--poly", poly, "--ranks", "1,1",
               "--assignment", str(out_file)) == (0, "2\n", "")


def test_error_messages_past_the_digit_limit_name_it(tmp_path, capsys):
    # Each error message below formats a value read or computed from input
    # that is within the digit limit token by token: a coordinate C*C*a1
    # with C the 4300-digit 99...9, and f(N) = N^2 + 1 of about 8000 digits
    # for the 4000-digit N.  The value is replaced by a note naming the limit.
    c = "9" * 4300
    n = "9" * 4000
    note = f"<not shown: it holds an integer of more than {sys.get_int_max_str_digits()} digits>"
    point = f"{{ active: (0); b1: {c}*{c}*a1 }}"
    flat = tmp_path / "x1.asg"
    flat.write_text(f"x1 := {point}\n")
    system = tmp_path / "sys.eqs"
    system.write_text("# vars: x\nx = 1\n")
    nested = tmp_path / "x.asg"
    nested.write_text(f"x := {{ active: {{ active: (0); }}; [ {point} -> (1) ], "
                      f"[ {point} -> (1) ] }}\n")
    col = len("x := { active: { active: (0); }; [ ") + len(point) + len(" -> (1) ], [ ") + 1
    for argv, code, message in (
            (["witness", "--poly", "z1^2 + 1", "--ranks", "1,1", "--solution", n], 3,
             f"not a root: f({n}) = {note}"),
            (["verify", "--ranks", "1,1,1", "--system", str(system), "--assignment", str(nested)],
             2, f"line 1, col {col}: repeated support point {note}")):
        assert run(capsys, *argv) == (code, "", f"error: {message}\n")
    # extract reads x1's a1 exponent and never shows its base part, however
    # long: the system does not pin that part.
    assert run(capsys, "extract", "--poly", "z1 - 2", "--ranks", "1,1",
               "--assignment", str(flat)) == (0, "0\n", "")


def test_malformed_integer_list_names_the_option(capsys):
    code, out, err = run(capsys, "witness", "--poly", "z1 - 2", "--ranks", "1,1",
                         "--solution", "2 3")
    assert (code, out) == (2, "")
    assert err == "error: line 1, col 3: solution must be comma-separated integers, got '2 3'\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.eqs"
    bad.write_text("[x, = 1\n")
    wit = tmp_path / "wit.asg"
    wit.write_text("")
    code, _, err = run(capsys, "verify", "--ranks", "1,1",
                       "--system", str(bad), "--assignment", str(wit))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("name, text, line, col, byte", [
    ("s.eqs", b"# vars: x\r\nx =\xe9 1\r\n", 2, 4, 0xe9),
    ("s.eqs", b"\xff", 1, 1, 0xff),
    ("a.asg", b"x1 := { active: (0); }\r\r\xc3 }\n", 3, 1, 0xc3),
    ("a.asg", "x1 := { active: (2); b1: é".encode() + b"\x80 }\n", 1, 27, 0x80),
], ids=["system-crlf", "system-one-byte", "assignment-cr", "assignment-after-non-ascii"])
def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, name, text, line, col, byte):
    # The column counts characters, as the parsers do, and CR, LF and CRLF
    # each end one line.
    files = {"s.eqs": b"# vars: x1\nx1 = 1\n", "a.asg": b"x1 := { active: (0); }\n", name: text}
    for file, data in files.items():
        (tmp_path / file).write_bytes(data)
    expected = (2, "", f"error: line {line}, col {col}: {tmp_path / name} is not UTF-8 text: "
                       f"byte 0x{byte:02x}\n")
    assert run(capsys, "verify", "--ranks", "1,1", "--system", str(tmp_path / "s.eqs"),
               "--assignment", str(tmp_path / "a.asg")) == expected
    if name == "a.asg":
        assert run(capsys, "extract", "--poly", "z1 - 2", "--ranks", "1,1",
                   "--assignment", str(tmp_path / "a.asg")) == expected


def test_utf8_files_read_with_universal_newlines(tmp_path, capsys):
    # CRLF, CR and LF line ends and a non-ASCII comment read as LF text.
    system, assignment = tmp_path / "s.eqs", tmp_path / "a.asg"
    run(capsys, "compile", "--poly", "z1 - 2", "--ranks", "1,1", "-o", str(system))
    run(capsys, "witness", "--poly", "z1 - 2", "--ranks", "1,1", "--solution", "2",
        "-o", str(assignment))
    for path in (system, assignment):
        ends = itertools.cycle(["\r\n", "\r", "\n"])
        lines = path.read_text(encoding="utf-8").splitlines() + ["# é"]
        path.write_bytes("".join(line + next(ends) for line in lines).encode())
    code, out, err = run(capsys, "verify", "--ranks", "1,1", "--system", str(system),
                         "--assignment", str(assignment))
    assert (code, out.splitlines()[-1], err) == (0, "satisfied: all 2 equations hold", "")
    assert run(capsys, "extract", "--poly", "z1 - 2", "--ranks", "1,1",
               "--assignment", str(assignment)) == (0, "2\n", "")


@pytest.mark.parametrize("equation", ["[y, @a1] = 1", "[x, @a1] = 1"])
def test_second_vars_header_is_a_parse_error(tmp_path, capsys, equation):
    # One header declares the variables; a second one used to replace the first.
    system = tmp_path / "sys.eqs"
    system.write_text(f"# vars: x\n# vars: y\n{equation}\n")
    wit = tmp_path / "wit.asg"
    wit.write_text("x := { active: (0); }\ny := { active: (0); }\n")
    code, out, err = run(capsys, "verify", "--ranks", "1,1",
                         "--system", str(system), "--assignment", str(wit))
    assert (code, out) == (2, "")
    assert err == "error: line 2, col 1: a system file has at most one '# vars:' header\n"


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


def test_cli_loads_the_selftest_suites_only_for_selftest():
    src = str(Path(zwreath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    probe = ("import sys, zwreath.cli; "
             "print('zwreath.selftest' in sys.modules); "
             "zwreath.cli.main(['selftest', '--samples', '1', '--seed', '0']); "
             "print('zwreath.selftest' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stderr
    assert (lines[0], lines[-1]) == ("False", "True")
    assert "laurent-ring-axioms: PASS (1 samples)" in lines
    assert not any("FAIL" in line for line in lines)


def test_selftest_sample_count_is_non_negative(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--samples", "-3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --samples: must be non-negative, got -3" in captured.err
    code, out, _ = run(capsys, "selftest", "--samples", "0", "--seed", "0")
    assert code == 0
    assert "laurent-ring-axioms: PASS (0 samples)" in out


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
        ("y := { active: { active: (0); b1: 1 }; }",
         "y := { active: { active: (0); b1: 8*a1 + 1, b1: -8*a1 }; }",
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


@pytest.mark.parametrize("ranks", [f"1,{10 ** 20}", f"{10 ** 8},1", f"1,{MAX_RANK + 1},1"])
@pytest.mark.parametrize("command", ["compile", "witness", "verify", "oracle", "extract",
                                     "lcs-rank"])
def test_rank_entry_above_the_cap_is_a_precondition_error(tmp_path, capsys, command, ranks):
    # Building the identity over an entry of 10^20 overflows, and over one
    # of 10^8 takes gigabytes; every subcommand that takes --ranks refuses
    # such an entry first, naming the cap.
    system, assignment = tmp_path / "sys.eqs", tmp_path / "x.asg"
    system.write_text("# vars: x1\nx1 = 1\n")
    assignment.write_text("x1 := { active: (0); }\n")
    options = {"compile": ["--poly", "z1 - 2"],
               "witness": ["--poly", "z1 - 2", "--solution", "2"],
               "verify": ["--system", str(system), "--assignment", str(assignment)],
               "oracle": ["--poly", "z1 - 2", "--solution", "2"],
               "extract": ["--poly", "z1 - 2", "--assignment", str(assignment)],
               "lcs-rank": ["--i", "3"]}[command]
    if command == "lcs-rank" and ranks.count(",") > 1:
        ranks = ranks[:ranks.rindex(",")]  # lcs-rank takes exactly two ranks
    largest = max(int(r) for r in ranks.split(","))
    assert run(capsys, command, "--ranks", ranks, *options) == (
        3, "", f"error: each rank must be at most {MAX_RANK}, got {largest}\n")


def test_largest_rank_entry_is_accepted(capsys):
    assert MAX_RANK >= 20000
    code, out, _ = run(capsys, "compile", "--poly", "z1 - 2", "--ranks", f"{MAX_RANK},{MAX_RANK}")
    assert (code, out.splitlines()[0]) == (0, "# vars: x1 y")


def test_longest_rank_list_compiles(capsys):
    code, out, _ = run(capsys, "compile", "--poly", "z1 - 2",
                       "--ranks", ",".join(["1"] * MAX_RANKS))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # the declaration line and the flat system's 2 equations
    # One left-normed commutator adds every level's generator to [y, @b1].
    levels = "".join(f", @b1_{k}" for k in range(3, MAX_RANKS + 1))
    assert lines[1] == f"[y, @b1{levels}] = 1"


def test_longest_rank_list_text_is_linear_and_round_trips(tmp_path, capsys):
    # Every constant is a generator word, so each lifted level adds O(1)
    # text to each equation: about 1 KB here, where element literals took
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
    assert (code, out.splitlines()[-1]) == (0, "satisfied: all 2 equations hold")
    assert run(capsys, "extract", "--poly", "z1 - 2", "--ranks", ranks,
               "--assignment", str(assignment)) == (0, "2\n", "")


def _nesting(text):
    """The deepest bracket and parenthesis nesting in a text."""
    depth = deepest = 0
    for ch in text:
        if ch in "[(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in "])":
            depth -= 1
    return deepest


@pytest.mark.parametrize("ranks", ["1,1", ",".join(["1"] * MAX_RANKS)])
def test_nesting_does_not_grow_with_the_degree(tmp_path, capsys, ranks):
    # Each commutator chain is one bracket, whatever its length: the degree-300
    # system nests as deep as the degree-1 one.  Its witness has no value per
    # chain link, nor per support term: at the root 1 the two terms of
    # z1^300 - 1 give +-(a1 - 1)^300, of 301 coefficients up to C(300, 150),
    # and only y, the quotient of their product (the identity) by
    # (a1 - 1)^301, is assigned.  That is about 1.7 KB over 64 ranks, where the
    # two term values took about 45 KB over 1,1.
    system, assignment = tmp_path / "sys.eqs", tmp_path / "wit.asg"
    assert run(capsys, "compile", "--poly", "z1^300 - 1", "--ranks", ranks,
               "-o", str(system))[0] == 0
    code, linear, _ = run(capsys, "compile", "--poly", "z1 - 2", "--ranks", ranks)
    assert code == 0
    assert _nesting(system.read_text()) == _nesting(linear) <= 3
    assert run(capsys, "witness", "--poly", "z1^300 - 1", "--ranks", ranks, "--solution", "1",
               "-o", str(assignment))[0] == 0
    assert len(assignment.read_bytes()) < 4 * 1024
    code, out, _ = run(capsys, "verify", "--ranks", ranks, "--system", str(system),
                       "--assignment", str(assignment))
    assert (code, out.splitlines()[-1]) == (0, "satisfied: all 2 equations hold")
    assert run(capsys, "extract", "--poly", "z1^300 - 1", "--ranks", ranks,
               "--assignment", str(assignment)) == (0, "1\n", "")


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
