"""The fast text readers read what the token grammar reads.

`wreath._read_canonical` reads an element literal as the program writes it
straight off the line, through `laurent._canonical_terms` for each
coordinate, which reads polynomials in a1 alone, as every witness
coordinate is, and declines any other; `interp.IteratedSpec.read_canonical`
reads an embedded flat literal over three or more ranks by stripping its
frames and reading the flat literal inside; and the word grammar of `equations.parse_system`
reads by a local index with a per-parse memo.  The token grammar stays the definition
of every format and the only source of errors.  A seeded differential fuzz
mutates the golden texts and polynomial strings: the fast readers must
decline a mutant or agree with the token grammar, and the whole parsers
must give the value, or the error class, line, column and message, of a
reference copy of the token-grammar parsers without either fast path.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zwreath.equations import (IDENTITY_WORD, MAX_NESTING, Commutator, Concat, Constant,
                               Literal, System, equation, parse_assignment, parse_system,
                               power, serialize_assignment, system_of)
from zwreath.cli import main
from zwreath.errors import Error, ParseError
from zwreath.interp import IteratedSpec, spec_for_ranks
from zwreath.laurent import LaurentPoly, _canonical_terms, parse_poly
from zwreath.lexer import TokenStream, is_generator, is_int, is_name, parse_whole
from zwreath.wreath import (GroupSpec, WreathElement, _read_canonical, parse_element,
                            read_generator)

GOLDEN = Path(__file__).parent / "golden"


# -- the token-grammar parsers, without the fast paths ---------------------------------


def reference_parse_system(text, spec):
    equations = []
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip().startswith("# vars:"):
            start = raw.index("# vars:")
            if declared is not None:
                raise ParseError("a system file has at most one '# vars:' header",
                                 lineno, start + 1)
            tokens = TokenStream(raw, lineno, start + len("# vars:"))
            names = []
            while tokens.peek():
                names.append(tokens.name())
            declared = tuple(names)
            continue
        tokens = TokenStream(raw, lineno)
        if not tokens.peek():
            continue
        lhs = reference_word(tokens, spec, ("=", ""), 0)
        tokens.expect("=")
        rhs = reference_word(tokens, spec, ("",), 0)
        equations.append(equation(lhs, rhs))
    if declared is None:
        return system_of(equations)
    return System(tuple(equations), declared)


def reference_word(tokens, spec, stop, depth):
    factors = []
    while tokens.peek() not in stop:
        factors.append(reference_factor(tokens, spec, depth))
    if not factors:
        raise tokens.error("empty word (write '1' for the identity)")
    return factors[0] if len(factors) == 1 else Concat(tuple(factors))


def reference_factor(tokens, spec, depth):
    token = tokens.peek()
    if token == "{":
        base = Constant(spec.read_element(tokens))
    elif is_generator(token):
        return Constant(read_generator(tokens, spec))
    elif token == "[" or token == "(":
        if depth == MAX_NESTING:
            raise tokens.error(f"brackets and parentheses nested deeper than {MAX_NESTING}")
        tokens.take()
        if token == "[":
            parts = [reference_word(tokens, spec, (",", "]"), depth + 1)]
            tokens.expect(",")
            parts.append(reference_word(tokens, spec, (",", "]"), depth + 1))
            while tokens.accept(","):
                parts.append(reference_word(tokens, spec, (",", "]"), depth + 1))
            tokens.expect("]")
            base = Commutator(*parts)
        else:
            base = reference_word(tokens, spec, (")",), depth + 1)
            tokens.expect(")")
    elif is_name(token):
        base = Literal(tokens.take())
    elif is_int(token):
        value = tokens.int_at(tokens.pos)
        if value != 1:
            raise tokens.error(f"unexpected integer {value}")
        tokens.take()
        base = IDENTITY_WORD
    else:
        raise tokens.error(f"unexpected token {token or 'end of input'!r}")
    if tokens.accept("^"):
        base = power(base, tokens.signed_int())
    return base


def reference_parse_assignment(text, spec):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = TokenStream(raw, lineno)
        if not tokens.peek():
            continue
        name = tokens.name()
        if name in out:
            raise tokens.error(f"variable {name!r} assigned twice", 0)
        tokens.expect(":=")
        out[name] = spec.read_element(tokens)
        tokens.expect("")
    return out


def outcome(parse, text, spec):
    """The value `parse` reads, or its error as class, line, column and message."""
    try:
        return ("value", parse(text, spec))
    except ParseError as exc:
        return ("ParseError", exc.line, exc.col, str(exc))
    except Error as exc:
        return (type(exc).__name__, str(exc))


# -- the mutants ---------------------------------------------------------------------

# Characters and tokens a mutation inserts: non-ASCII digits, `_` (which int()
# accepts inside digits), whitespace that is not one space, every operator,
# and an integer one digit longer than int() converts by default.
SPECIALS = ["٣", "²", "_", "\t", "\r\n", "  ", " ", "#", "+", "-", "*", "^", ",", ";", ":",
            ":=", "=", "{", "}", "(", ")", "[", "]", "@", "0", "1", "-1", "7", "a1", "a2",
            "b1", "b2", "x1", "9" * 4301]
_UNITS = re.compile(r"\s+|[0-9]+|@?[A-Za-z][A-Za-z0-9_]*|:=|.", re.DOTALL)


def mutate(text, rng):
    """`text` with 1-4 characters, tokens or lines inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 4)):
        units = rng.choice((list, _UNITS.findall, str.splitlines))(text)
        at = rng.randrange(len(units) + 1)
        piece = rng.choice(SPECIALS + units)
        action = rng.choice(("insert", "delete", "replace"))
        if action == "insert" or at == len(units):
            units.insert(at, piece)
        elif action == "delete":
            del units[at]
        else:
            units[at] = piece
        text = "".join(units)
    return text


def golden_texts(suffix):
    """(spec, text) of every golden and legacy text with this suffix."""
    out = []
    for path in sorted(GOLDEN.rglob(f"*{suffix}")):
        ranks = tuple(int(r) for r in path.stem.split("_")[-1].split("-"))
        out.append((spec_for_ranks(ranks), path.read_text(encoding="utf-8")))
    return out


# The `--poly` strings of the golden cases over `a`, and canonical polynomials
# of ranks 1 to 3 with negative exponents and products of variables.
POLYS = [(2, "a1*a2 - 6"), (1, "a1^2 + 3*a1 + 2"), (1, "a1 - 2"),
         (1, "a1^5 - a1^3 - 7*a1^2 + 12*a1 - 5"), (1, "-6*a1^2 + 12*a1 - 6"),
         (1, "-a1^-3 + 1"), (3, "3*a1^2*a3^-1 - a2 + 4"), (2, "-a1*a2^2 + a2^-1 - 12")]


def read_literal(text, spec):
    """The element literal `text` read by the token grammar alone."""
    return parse_whole(text, lambda tokens: spec.read_element(tokens))


def assert_fast_reader_agrees(literal, spec):
    value = spec.read_canonical(literal)
    if value is not None:
        assert value == read_literal(literal, spec), literal
        if isinstance(spec, GroupSpec):
            assert value == parse_element(literal, spec), literal


def decline(self, text):
    return None


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "stubbed to decline"])
def test_fuzzed_assignments_read_as_the_token_grammar_reads_them(fast, monkeypatch):
    # Stubbed to decline, every line goes to the token grammar: the fuzz
    # then holds the rest of `parse_assignment` to the reference alone.
    if not fast:
        monkeypatch.setattr(GroupSpec, "read_canonical", decline)
        monkeypatch.setattr(IteratedSpec, "read_canonical", decline)
    rng = random.Random(20251)
    for spec, text in golden_texts(".asg"):
        for _ in range(150):
            mutant = mutate(text, rng)
            assert outcome(parse_assignment, mutant, spec) == outcome(
                reference_parse_assignment, mutant, spec), mutant
            if fast:
                for line in mutant.splitlines():
                    assert_fast_reader_agrees(line.partition(" := ")[2], spec)


def test_fuzzed_systems_read_as_the_token_grammar_reads_them():
    rng = random.Random(20252)
    for spec, text in golden_texts(".eqs"):
        for _ in range(100):
            mutant = mutate(text, rng)
            assert outcome(parse_system, mutant, spec) == outcome(
                reference_parse_system, mutant, spec), mutant


def test_fuzzed_polynomials_read_as_the_token_grammar_reads_them():
    rng = random.Random(20253)
    for rank, text in POLYS:
        spec = GroupSpec(m=rank, n=1)
        for _ in range(300):
            mutant = mutate(text, rng)
            terms = _canonical_terms(mutant, rank)
            if terms is not None:
                assert LaurentPoly._unchecked(rank, terms) == parse_poly(mutant, rank), mutant
            line = f"x := {{ active: ({','.join(['0'] * rank)}); b1: {mutant} }}\n"
            assert outcome(parse_assignment, line, spec) == outcome(
                reference_parse_assignment, line, spec), mutant
            assert_fast_reader_agrees(line.partition(" := ")[2].rstrip("\n"), spec)


@pytest.mark.parametrize("text", [
    "x := {  active: (1); }", "x := { active: (1) }", "x := { active: (1,); }",
    "x := { active: (+1); }", "x := { active: (1); b1: +a1 }", "x := { active: (1); b1: a1 + a1 }",
    "x := { active: (1); b1: 0*a1 + 2 }", "x := { active: (1); b1: a1*a1 }",
    "x := { active: (1); b1: a2 }", "x := { active: (1); b2: a1 }",
    "x := { active: (1); b1: a1, b1: 2 }", "x := { active: (1,2); }",
    "x := { active: (1); b1: a1 }  # comment", "x := { active: (1); b1: a1\t}",
    "x := { active: (1); b1: a1^" + "9" * 4301 + " }", "x := { active: (1); b1: a1 - - 1 }",
    "x := { active: (1); b1:  + a1 }", "x := { active: (1); }\nx := { active: (2); }",
])
def test_the_fast_reader_declines_what_it_is_not_certain_of(text):
    spec = GroupSpec(1, 1)
    if "\n" not in text:
        assert _read_canonical(text.partition(" := ")[2], spec) is None
    assert outcome(parse_assignment, text, spec) == outcome(reference_parse_assignment, text, spec)


@pytest.mark.parametrize("coordinate", ["a2", "a1*a2", "2*a1^3*a2^-1 - 7"])
def test_the_fast_reader_declines_every_variable_but_a1(coordinate):
    spec = GroupSpec(2, 1)
    text = f"x := {{ active: (0,0); b1: {coordinate} }}"
    assert _canonical_terms(coordinate, 2) is None
    assert _read_canonical(text.partition(" := ")[2], spec) is None
    value = parse_assignment(text, spec)
    assert value == reference_parse_assignment(text, spec)
    assert value["x"].base[0] == parse_poly(coordinate, 2)


# -- what the program writes, the fast reader reads --------------------------------------

BIG = 2 ** 80


@st.composite
def flat_elements(draw):
    """Elements over ranks 1-4 with big coefficients and negative exponents."""
    spec = GroupSpec(m=draw(st.integers(1, 4)), n=draw(st.integers(1, 2)))
    ints = st.integers(-BIG, BIG) | st.integers(-3, 3)
    base = {j: LaurentPoly(spec.m, draw(st.dictionaries(
                st.tuples(*[st.integers(-5, 5)] * spec.m), ints, max_size=5)))
            for j in range(1, spec.n + 1)}
    return spec.element(active=draw(st.tuples(*[ints] * spec.m)), base=base)


def in_a1_alone(g):
    """True if every coordinate of g, a flat element or one embedded, is a polynomial in a1 alone."""
    while not isinstance(g, WreathElement):
        g = g.active
    return all(not any(mono[1:]) for p in g.base for mono in p.terms)


def assert_every_line_is_read_fast(assignment, spec):
    """Each line whose coordinates are polynomials in a1 alone is read fast;
    the fast reader declines any other, and the token grammar reads it."""
    text = serialize_assignment(assignment)
    for line in text.splitlines():
        name, _, literal = line.partition(" := ")
        if in_a1_alone(assignment[name]):
            assert spec.read_canonical(literal) == assignment[name], line
        else:
            assert spec.read_canonical(literal) is None, line
            assert parse_assignment(line, spec) == reference_parse_assignment(line, spec), line
    assert parse_assignment(text, spec) == assignment


@pytest.mark.parametrize("stem", ["product_1-1", "product_2-3", "negative_2-1", "product_1-1-1",
                                  "product_1-2-1-1", "linear_1-1-1-1-1-1-1-1"])
def test_every_line_of_the_goldens_is_read_fast(stem):
    spec = spec_for_ranks(tuple(int(r) for r in stem.split("_")[1].split("-")))
    text = (GOLDEN / f"{stem}.asg").read_text(encoding="utf-8")
    assignment = reference_parse_assignment(text, spec)
    assert serialize_assignment(assignment) == text
    assert_every_line_is_read_fast(assignment, spec)


@pytest.mark.parametrize("literal, fast", [
    ("{ active: { active: (1); }; }", True),
    ("{ active: { active: (0); b1: a1^2 - 3 }; }", True),
    ("{ active: { active: (1); b1: a1 }; [ { active: (0); } -> (1) ] }", False),
    ("{ active: { active: { active: (1); }; }; }", False), ("{ active: (1); }", False),
    ("{ active: { active: (1); } }", False), ("{ active: { active: (1); };  }", False),
    ("{ active: { active: (1) }; }", False), ("{ active: { active: (1,2); }; }", False),
    ("{ active: { active: (1); b2: a1 }; }", False), ("{ active: { active: (1); b1: +a1 }; }", False),
    ("{ active: { active: (1); b1: a1 }; } # comment", False),
    ("{ active: {active: (1); }; }", False), ("{ active: ; }", False),
    ("{ active: { active: ", False),
])
def test_the_nested_fast_reader_declines_what_it_is_not_certain_of(literal, fast):
    spec = IteratedSpec((1, 1, 1))
    value = spec.read_canonical(literal)
    if fast:
        assert value == read_literal(literal, spec)
    else:
        assert value is None
    text = f"x := {literal}\n"
    assert outcome(parse_assignment, text, spec) == outcome(reference_parse_assignment, text, spec)


@st.composite
def embedded_flat_elements(draw):
    """Flat elements embedded over three to eight ranks of 1 or 2."""
    flat = draw(flat_elements())
    outer = draw(st.lists(st.integers(1, 2), min_size=1, max_size=6))
    spec = IteratedSpec(tuple(outer) + (flat.spec.n, flat.spec.m))
    return spec.embed(flat)


@settings(max_examples=100, deadline=None)
@given(st.lists(embedded_flat_elements(), min_size=1, max_size=3))
def test_every_embedded_line_the_program_writes_is_read_fast(elements):
    spec = elements[0].spec
    assignment = {f"x{i}": g for i, g in enumerate(elements) if g.spec == spec}
    assert_every_line_is_read_fast(assignment, spec)


@settings(max_examples=150, deadline=None)
@given(st.lists(flat_elements(), min_size=1, max_size=3))
def test_every_line_the_program_writes_is_read_fast(elements):
    spec = elements[0].spec
    assignment = {f"x{i}": g for i, g in enumerate(elements) if g.spec == spec}
    assert_every_line_is_read_fast(assignment, spec)


# -- a system with a header is walked once ----------------------------------------------


def test_a_declared_system_is_not_walked_again(monkeypatch):
    text = (GOLDEN / "product_2-3.eqs").read_text(encoding="utf-8")
    spec = GroupSpec(m=3, n=2)
    expected = reference_parse_system(text, spec)

    def refuse(self):
        raise AssertionError("the parsed system was checked again")

    monkeypatch.setattr(System, "_check", refuse)
    assert parse_system(text, spec) == expected


@pytest.mark.parametrize("text, message", [
    ("# vars: x\nx y = 1\n", "equation 1 uses undeclared variable 'y'"),
    # The rhs is inverted, so its names come last to first.
    ("# vars: x\n[x, x^-1] = y z\n", "equation 1 uses undeclared variable 'z'"),
    ("# vars: x y x\nx = 1\n", "variable 'x' declared twice"),
])
def test_undeclared_and_repeated_names_keep_their_errors(text, message):
    spec = GroupSpec(1, 1)
    assert outcome(parse_system, text, spec) == ("PreconditionError", message)
    assert outcome(reference_parse_system, text, spec) == ("PreconditionError", message)


def test_a_name_under_a_zero_power_need_not_be_declared():
    spec = GroupSpec(1, 1)
    assert parse_system("# vars: x\nx y^0 = 1\n", spec) == reference_parse_system(
        "# vars: x\nx y^0 = 1\n", spec)



# -- other spellings, end to end ------------------------------------------------------------


def respell(text):
    """`text` with extra spaces, a tab, trailing comments, CRLF line ends and a
    leading `+` on each polynomial, as the CI step "Non-canonical text" writes it."""
    lines = []
    for line in text.splitlines():
        if not line.startswith("# vars:"):
            line = line.replace(", ", " ,  ").replace(": a", ":\t+a").replace("{ ", "{   ")
        lines.append(line + "  # respelled")
    return "\r\n".join(lines) + "\r\n"


def test_respelled_golden_texts_verify_and_extract_as_written(tmp_path, capsys):
    spellings = {}
    for name, change in (("golden", lambda text: text), ("respelled", respell)):
        for suffix in ("eqs", "asg"):
            text = (GOLDEN / f"product_1-1.{suffix}").read_text(encoding="utf-8")
            (tmp_path / f"{name}.{suffix}").write_bytes(change(text).encode("utf-8"))
        system, witness = str(tmp_path / f"{name}.eqs"), str(tmp_path / f"{name}.asg")
        runs = []
        for argv in (["verify", "--ranks", "1,1", "--system", system, "--assignment", witness],
                     ["extract", "--poly", "z1*z2 - 6", "--ranks", "1,1", "--assignment", witness]):
            code = main(argv)
            runs.append((code, capsys.readouterr().out))
        spellings[name] = runs
    assert spellings["respelled"] == spellings["golden"]
    assert [code for code, _ in spellings["golden"]] == [0, 0]
    respelled = (tmp_path / "respelled.asg").read_text(encoding="utf-8")
    assert "\t+a1" in respelled and all(
        _read_canonical(line.partition(" := ")[2], GroupSpec(1, 1)) is None
        for line in respelled.splitlines())
