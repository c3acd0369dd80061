"""The text formats as one language: golden CLI output, error positions,
ASCII-only tokens, the separators every literal accepts, and round trips."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zwreath.cli import main
from zwreath.equations import (Commutator, Constant, Literal, concat,
                               equation, parse_assignment, parse_system,
                               power, serialize_assignment, serialize_system,
                               system_of)
from zwreath.errors import ParseError
from zwreath.interp import IteratedSpec, NestedElement, parse_nested, spec_for_ranks
from zwreath.laurent import LaurentPoly, parse_poly
from zwreath.reduction import MAX_VARIABLES, parse_intpoly
from zwreath.wreath import GroupSpec, parse_element

GOLDEN = Path(__file__).parent / "golden"
S11 = GroupSpec(1, 1)
S23 = GroupSpec(m=3, n=2)
I111 = IteratedSpec((1, 1, 1))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden corpus ---------------------------------------------------------------

# (file stem, polynomial, ranks, root): compile and witness stdout, pinned.
GOLDEN_CASES = [
    ("product_1-1", "z1*z2 - 6", "1,1", "2,3"),
    ("product_2-3", "z1*z2 - 6", "2,3", "2,3"),
    ("product_1-1-1", "z1*z2 - 6", "1,1,1", "2,3"),
    ("product_1-2-1-1", "z1*z2 - 6", "1,2,1,1", "2,3"),
    ("negative_2-1", "z1^2 + 3*z1 + 2", "2,1", "-2"),
]


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_cli_output_matches_golden_files(capsys, stem, poly, ranks, root):
    system_text = (GOLDEN / f"{stem}.eqs").read_text(encoding="utf-8")
    witness_text = (GOLDEN / f"{stem}.asg").read_text(encoding="utf-8")
    assert run(capsys, "compile", "--poly", poly, "--ranks", ranks) == (0, system_text, "")
    assert run(capsys, "witness", "--poly", poly, "--ranks", ranks,
               "--solution=" + root) == (0, witness_text, "")
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    assert serialize_system(parse_system(system_text, spec)) == system_text
    assert serialize_assignment(parse_assignment(witness_text, spec)) == witness_text


# The same systems as printed before constants became generator words, every
# constant an element literal; such files must keep their meaning.
LEGACY = GOLDEN / "legacy"


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_legacy_literal_systems_parse_to_the_same_system(tmp_path, capsys, stem, poly, ranks, root):
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    legacy = LEGACY / f"{stem}.eqs"
    current = GOLDEN / f"{stem}.eqs"
    assert parse_system(legacy.read_text(encoding="utf-8"), spec) == parse_system(
        current.read_text(encoding="utf-8"), spec)
    witness = GOLDEN / f"{stem}.asg"
    mutated = tmp_path / "mutated.asg"
    values = parse_assignment(witness.read_text(encoding="utf-8"), spec)
    values["x1"] = values["x1"] * spec.generator(1, 1)
    mutated.write_text(serialize_assignment(values), encoding="utf-8")
    for assignment, code in ((witness, 0), (mutated, 1)):
        verdicts = [run(capsys, "verify", "--ranks", ranks, "--system", str(system),
                        "--assignment", str(assignment)) for system in (legacy, current)]
        assert verdicts[0] == verdicts[1] and verdicts[0][0] == code


# -- every ParseError carries the true line and column ------------------------------

# (parser call, line, column, message fragment), all five grammars.
MALFORMED = [
    (lambda: parse_poly("a1 +", 1), 1, 5, "found 'end of input'"),
    (lambda: parse_poly("", 1), 1, 1, "found 'end of input'"),
    (lambda: parse_poly("b1", 1), 1, 1, "found 'b1'"),
    (lambda: parse_poly("a5", 2), 1, 1, "variable a5 out of range for rank 2"),
    (lambda: parse_poly("2*a1^-x", 1), 1, 7, "expected an integer, found 'x'"),
    (lambda: parse_poly("a1 +\n  $", 1), 2, 3, "unexpected character '$'"),
    (lambda: parse_intpoly("z1^²"), 1, 4, "unexpected character '²'"),
    (lambda: parse_intpoly("z1 - ٣"), 1, 6, "unexpected character '٣'"),
    (lambda: parse_intpoly("z1 ^ -2"), 1, 6, "non-negative exponent"),
    (lambda: parse_intpoly("z1 - 1_0"), 1, 7, "unexpected character '_'"),
    (lambda: parse_intpoly("z3", num_vars=2), 1, 1, "variable z3 out of range"),
    (lambda: parse_element("{ active: (1_0); }", S11), 1, 13, "unexpected character '_'"),
    (lambda: parse_element("{ active: (1,2); }", S11), 1, 11, "vector has 2 entries"),
    (lambda: parse_element("{ active: (0); b7: 1 }", S11), 1, 16, "base coordinate b7"),
    (lambda: parse_element("active: (0)", S11), 1, 1, "expected '{'"),
    (lambda: parse_nested("{ active: { active: (0); }; [ { active: (0); } -> (1,2) ] }",
                          I111), 1, 51, "vector has 2 entries"),
    (lambda: parse_nested("{ active: { active: (0); }; } extra", I111), 1, 31,
     "found 'extra'"),
    (lambda: parse_assignment("x := { active: (0); b1: a1 + $ }", S11), 1, 30,
     "unexpected character '$'"),
    (lambda: parse_assignment("x := { active: (0); }\n\ny := { active: (0); b1: a1^² }\n",
                              S11), 3, 28, "unexpected character"),
    (lambda: parse_assignment("x := { active: (0); }\nx := { active: (1); }\n", S11), 2, 1,
     "assigned twice"),
    (lambda: parse_system("x = 1\n[x, = 1\n", S11), 2, 5, "unexpected token '='"),
    (lambda: parse_system("é = 1\n", S11), 1, 1, "unexpected character 'é'"),
    (lambda: parse_system("# vars: x 1y\nx = 1\n", S11), 1, 11, "expected a name"),
    (lambda: parse_system("# vars: x\n[x, { active: { active: (0); b1: $ }; }] = 1\n", I111),
     2, 34, "unexpected character '$'"),
    (lambda: parse_system("[x, @b2] = 1\n", S11), 1, 5, "unknown generator '@b2' for ranks 1,1"),
    (lambda: parse_system("[x, @c1] = 1\n", S11), 1, 5, "unknown generator '@c1'"),
    (lambda: parse_system("[x, @a1_3] = 1\n", I111), 1, 5, "unknown generator '@a1_3'"),
    (lambda: parse_system("[x, @b1_2] = 1\n", I111), 1, 5, "unknown generator '@b1_2'"),
    (lambda: parse_system("[x, @b1_4] = 1\n", I111), 1, 5, "unknown generator '@b1_4'"),
    (lambda: parse_system("x @b1^y = 1\n", S11), 1, 7, "expected an integer, found 'y'"),
    (lambda: parse_system("x @b1^2^3 = 1\n", S11), 1, 8, "unexpected token '^'"),
    (lambda: parse_system("x @ = 1\n", S11), 1, 3, "unexpected character '@'"),
    (lambda: parse_assignment("x := @a1\n", S11), 1, 6, "expected '{', found '@a1'"),
    (lambda: parse_intpoly("z1 - @z2"), 1, 6, "expected coefficient or variable, found '@z2'"),
]


@pytest.mark.parametrize("call, line, col, fragment", MALFORMED)
def test_parse_errors_carry_line_and_column(call, line, col, fragment):
    with pytest.raises(ParseError) as exc:
        call()
    assert (exc.value.line, exc.value.col) == (line, col)
    assert fragment in str(exc.value)
    assert str(exc.value).startswith(f"line {line}, col {col}: ")


# -- ASCII digits and names only -------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["compile", "--poly", "z1^²", "--ranks", "1,1"], "line 1, col 4"),
    (["compile", "--poly", "z² - 1", "--ranks", "1,1"], "line 1, col 1"),
    (["compile", "--poly", "z1 - ٣", "--ranks", "1,1"], "line 1, col 6"),
    (["compile", "--poly", "z１", "--ranks", "1,1"], "line 1, col 1"),
    (["compile", "--poly", "z1 - 2", "--ranks", "1_0,1"], "line 1, col 2"),
    (["witness", "--poly", "z1 - 2", "--ranks", "1,1", "--solution", "٣"], "line 1, col 1"),
    (["oracle", "--poly", "z1 - 2", "--ranks", "1,1", "--solution", "1_0"], "line 1, col 2"),
])
def test_non_ascii_digits_are_parse_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}: ")


@pytest.mark.parametrize("ranks, system, assignment, col", [
    ("1,1", "é = 1\n", "x := { active: (0); }\n", 1),
    ("1,1", "# vars: x\nx = 1\n", "x := { active: (1_0); }\n", 18),
    ("1,1", "# vars: x\nx = 1\n", "x := { active: (0); b1: a1^² }\n", 28),
    ("1,1,1", "# vars: x\nx = 1\n",
     "x := { active: { active: (0); }; [ { active: (1); } -> (1_0) ] }\n", 58),
])
def test_non_ascii_in_files_is_a_parse_error(tmp_path, capsys, ranks, system, assignment, col):
    (tmp_path / "s.eqs").write_text(system, encoding="utf-8")
    (tmp_path / "a.asg").write_text(assignment, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--ranks", ranks, "--system", str(tmp_path / "s.eqs"),
                         "--assignment", str(tmp_path / "a.asg"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 1, col {col}: unexpected character")


# -- oversized input ------------------------------------------------------------------

LONG = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("system, assignment, line, col", [
    (f"# vars: x\nx^{LONG} = 1\n", "x := { active: (0); }\n", 2, 3),
    (f"# vars: x\n[x, {{ active: (0); b1: {LONG}*a1 }}] = 1\n", "x := { active: (0); }\n", 2, 24),
    ("# vars: x\nx = 1\n", f"x := {{ active: ({LONG}); }}\n", 1, 17),
    ("# vars: x\nx = 1\n", f"x := {{ active: (0); b1: a1^-{LONG} }}\n", 1, 29),
])
def test_integers_too_long_for_int_are_parse_errors_in_files(
        tmp_path, capsys, system, assignment, line, col):
    (tmp_path / "s.eqs").write_text(system, encoding="utf-8")
    (tmp_path / "a.asg").write_text(assignment, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--ranks", "1,1", "--system", str(tmp_path / "s.eqs"),
                         "--assignment", str(tmp_path / "a.asg"))
    assert (code, out) == (2, "")
    assert err == (f"error: line {line}, col {col}: integer of 5000 digits exceeds the limit "
                   f"of {sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize("poly, col", [(f"z1 - {LONG}", 6), (f"z1^{LONG} - 1", 4)])
def test_integers_too_long_for_int_are_parse_errors_in_polynomials(capsys, poly, col):
    code, out, err = run(capsys, "compile", "--poly", poly, "--ranks", "1,1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 1, col {col}: integer of 5000 digits exceeds the limit")


@pytest.mark.parametrize("poly", ["z1000000 + z1 - 2", f"z{LONG} - 1",
                                  f"z{MAX_VARIABLES + 1} - 1"])
def test_too_many_variables_is_a_precondition_error(capsys, poly):
    code, out, err = run(capsys, "compile", "--poly", poly, "--ranks", "1,1")
    assert (code, out) == (3, "")
    assert err.startswith("error: variable z") and err.endswith(
        f"exceeds the limit of {MAX_VARIABLES} variables\n")


def test_variable_count_limit_is_inclusive_and_leaves_fixed_ranks_alone():
    assert parse_intpoly(f"z{MAX_VARIABLES} - 1").num_vars == MAX_VARIABLES
    assert parse_intpoly(f"z{MAX_VARIABLES + 1}", num_vars=300).num_vars == 300
    with pytest.raises(ParseError, match="out of range for rank 2"):
        parse_intpoly(f"z{MAX_VARIABLES + 1}", num_vars=2)
    with pytest.raises(ParseError, match="out of range for rank 1"):
        parse_poly(f"a{LONG}", 1)


# -- generator words ------------------------------------------------------------------


def test_generator_words_name_the_generators_of_every_level():
    i2111 = IteratedSpec((2, 1, 1, 1))
    words = {"@a1": i2111.embed(I111.embed(S11.active_gen(1))),
             "@b1^-6": i2111.embed(I111.embed(S11.base_gen(1, -6))),
             "@b1_3^2": i2111.embed(I111.base_gen(1, 2)),
             "@b2_4": i2111.base_gen(2)}
    for word, value in words.items():
        system = parse_system(f"[x, {word}] = 1\n", i2111)
        assert system.equations[0].lhs == Commutator(Literal("x"), Constant(value))
        assert serialize_system(system) == f"# vars: x\n[x, {word}] = 1\n"
    # Element literals still read, and any constant that is no generator
    # power is printed as one.
    literal = "[x, { active: { active: { active: (1); }; }; }] = 1\n"
    assert parse_system(literal, i2111) == parse_system("[x, @a1] = 1\n", i2111)
    other = "[x, { active: (1); b1: 1 }] = 1\n"
    assert serialize_system(parse_system(other, S11)) == "# vars: x\n" + other


def test_names_without_the_sigil_stay_variables():
    system = parse_system("[a1, @a1] b1^2 = 1\n", S11)
    assert system.declared_vars == ("a1", "b1")
    assert system.equations[0].lhs == concat(
        Commutator(Literal("a1"), Constant(S11.active_gen(1))), power(Literal("b1"), 2))


def test_powers_of_generator_words_keep_their_shape():
    # `@b1^3` is the constant b1^3; the power of the constant b1 prints as `(@b1)^3`.
    for lhs, text in [(Constant(S11.base_gen(1, 3)), "@b1^3"),
                      (power(Constant(S11.base_gen(1)), 3), "(@b1)^3"),
                      (power(Constant(S11.base_gen(1, -2)), -1), "(@b1^-2)^-1")]:
        system = system_of([equation(lhs)])
        assert serialize_system(system).splitlines()[-1] == f"{text} = 1"
        assert parse_system(serialize_system(system), S11) == system


# -- one rule per construct, accepting what either old scanner accepted ------------------


def test_separators_and_trailing_commas_are_optional_in_every_literal():
    flat = S23.element(active=(1, 0, -2), base={1: parse_poly("a1 - 1", 3),
                                                 2: parse_poly("3*a3^-2", 3)})
    for text in ["{ active: (1,0,-2); b1: a1 - 1, b2: 3*a3^-2 }",
                 "{ active: (1,0,-2,) b1: a1 - 1 b2: 3*a3^-2 }",
                 "{ active: (1, 0, -2); b1: a1 - 1, b2: 3*a3^-2, }",
                 "{active:(+1,0,- 2);b2:3*a3^-2,b1:a1-1}"]:
        assert parse_element(text, S23) == flat
    nested = I111.base_gen(1, power=3) * I111.embed(S11.active_gen(1))
    canonical = "{ active: { active: (1); }; [ { active: (1); } -> (3) ] }"
    assert str(nested) == canonical
    for text in [canonical,
                 "{ active: { active: (1) } [ { active: (1); } -> (3,) ] }",
                 "{ active: { active: (1); }; [ { active: (1) } -> (3) ], }"]:
        assert parse_nested(text, I111) == nested
    two = NestedElement(I111, S11.identity(), {S11.identity(): (1,), S11.active_gen(1): (2,)})
    assert parse_nested("{ active: { active: (0) } [ { active: (0) } -> (1) ]"
                        " [ { active: (1) b1: 0 } -> (2,) ], }", I111) == two


def test_comments_are_dropped_in_every_format():
    assert parse_intpoly("z1 - 2  # the root is 2") == parse_intpoly("z1 - 2")
    assert parse_poly("a1 # first\n - 1", 1) == parse_poly("a1 - 1", 1)
    system = parse_system("# vars: x y  # y is spare\nx = 1  # trivial\n", S11)
    assert system.declared_vars == ("x", "y")


# -- round trips ------------------------------------------------------------------------

BIG = 2 ** 80
SPECS = [S11, S23, I111, IteratedSpec((2, 1, 2)), IteratedSpec((1, 1, 1, 1)),
         IteratedSpec((1, 2, 1, 1))]


def ints():
    return st.integers(-BIG, BIG) | st.integers(-3, 3)


@st.composite
def elements(draw, spec):
    """Flat, depth-3 or depth-4 elements with big coefficients and negative exponents."""
    if isinstance(spec, GroupSpec):
        base = {j: LaurentPoly(spec.m, draw(st.dictionaries(
                    st.tuples(*[st.integers(-4, 4)] * spec.m), ints(), max_size=3)))
                for j in range(1, spec.n + 1)}
        return spec.element(active=draw(st.tuples(*[ints()] * spec.m)), base=base)
    inner = spec.inner()
    support = draw(st.lists(st.tuples(elements(inner), st.tuples(*[ints()] * spec.ranks[0])),
                            max_size=2))
    return NestedElement(spec, draw(elements(inner)), dict(support))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECS).flatmap(lambda spec: st.tuples(st.just(spec), elements(spec))))
def test_element_literals_round_trip(case):
    spec, g = case
    text = spec.serialize_element(g)
    parse = parse_element if isinstance(spec, GroupSpec) else parse_nested
    assert parse(text, spec) == g
    assignment = serialize_assignment({"x": g})
    again = parse_assignment(assignment, spec)
    assert again == {"x": g}
    assert serialize_assignment(again) == assignment


def generators(spec):
    """Powers of the generators of every level of `spec`, as constants."""
    ranks = spec.ranks
    return st.builds(lambda level_j, e: Constant(spec.generator(*level_j, e)),
                     st.sampled_from([(level, j) for level in range(1, len(ranks) + 1)
                                      for j in range(1, ranks[-level] + 1)]),
                     ints())


@st.composite
def words(draw, spec):
    leaves = (st.builds(Literal, st.sampled_from(["x", "y", "cyc_z_1"]), st.sampled_from([1, -1]))
              | elements(spec).map(Constant) | generators(spec))

    def extend(inner):
        return (st.builds(Commutator, inner, inner)
                | st.builds(power, inner, st.integers(-BIG, BIG).filter(lambda e: e not in (0, 1)))
                | st.lists(inner, min_size=2, max_size=3).map(lambda parts: concat(*parts)))

    return draw(st.recursive(leaves, extend, max_leaves=6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECS[:4]).flatmap(
    lambda spec: st.tuples(st.just(spec), st.lists(words(spec), min_size=1, max_size=3))))
def test_systems_round_trip(case):
    spec, lhss = case
    system = system_of([equation(w) for w in lhss])
    text = serialize_system(system)
    again = parse_system(text, spec)
    assert again == system
    assert serialize_system(again) == text
