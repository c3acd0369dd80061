import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from zwreath import interp, reduction
from zwreath.equations import (Commutator, Constant, Literal, check_system, equation,
                               parse_assignment, parse_system,
                               serialize_assignment, serialize_system,
                               system_of)
from zwreath.errors import ParseError, PreconditionError, SpecMismatchError
from zwreath.interp import (IteratedSpec, NestedElement, compile_iterated,
                            lift_system, parse_nested,
                            project_assignment, spec_for_ranks)
from zwreath.reduction import compile as compile_flat
from zwreath.reduction import parse_intpoly, witness as witness_flat
from zwreath.selftest import _planted_root_poly, check_lift, rand_nested, run_suite
from zwreath.laurent import LaurentPoly
from zwreath.wreath import GroupSpec, WreathElement, parse_element

S11 = GroupSpec(1, 1)
I111 = IteratedSpec((1, 1, 1))
I1111 = IteratedSpec((1, 1, 1, 1))
I212 = IteratedSpec((2, 1, 2))


# -- element arithmetic ---------------------------------------------------------


def test_identity_multiplication():
    e = I111.identity()
    assert (e * e).is_identity()


def test_inverse_cancels():
    rng = random.Random(3)
    for _ in range(100):
        g = rand_nested(rng, I111)
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_every_element_type_satisfies_the_group_contract():
    for spec in (S11, I111, I1111):
        g = spec.base_gen(1)
        assert (g * g.inverse()).is_identity()
        assert g.commutator(g).is_identity()
        assert (g ** 2) * (g ** -2) == spec.identity()
        g.sort_key()


def test_spec_mismatch_rejected():
    with pytest.raises(SpecMismatchError):
        S11.identity() * I111.identity()
    with pytest.raises(SpecMismatchError):
        I111.identity() * I1111.identity()


def test_iterated_spec_needs_three_ranks():
    for ranks in [(), (1,), (1, 1), (2, 3)]:
        with pytest.raises(PreconditionError):
            IteratedSpec(ranks)
    with pytest.raises(PreconditionError):
        IteratedSpec((1, 0, 1))


I2111 = IteratedSpec((2, 1, 1, 1))


@pytest.mark.parametrize("build, message", [
    (lambda: I111.generator(4, 1), "generator level 4 out of range 1..3"),
    (lambda: I111.generator(0, 1), "generator level 0 out of range 1..3"),
    (lambda: I111.generator(3, 2), "base generator index 2 out of range 1..1"),
    (lambda: I111.base_gen(1, 1.5), "vector (1.5,) invalid for rank 1"),
    (lambda: I111.generator(3, 1, 1.5), "vector (1.5,) invalid for rank 1"),
    (lambda: I2111.generator(1, 2), "active generator index 2 out of range 1..1"),
    (lambda: I2111.generator(4, 3), "base generator index 3 out of range 1..2"),
    # A level or index that does not compare with ints is out of range.
    (lambda: I111.generator("x", 1), "generator level x out of range 1..3"),
    (lambda: I111.generator(None, 1), "generator level None out of range 1..3"),
    (lambda: I111.generator(3, "x"), "base generator index x out of range 1..1"),
    (lambda: I111.generator(1, "x"), "active generator index x out of range 1..1"),
    (lambda: I2111.generator(2, None), "base generator index None out of range 1..1"),
    # So is a float or a bool that compares in range.
    (lambda: I111.generator(2.0, 1), "generator level 2.0 out of range 1..3"),
    (lambda: I111.generator(2.5, 1), "generator level 2.5 out of range 1..3"),
    (lambda: I111.generator(3, 1, True), "vector (True,) invalid for rank 1"),
    (lambda: NestedElement(I111, S11.identity(), {S11.identity(): (True,)}),
     "vector (True,) invalid for rank 1"),
])
def test_generator_errors_keep_their_class_and_message(build, message):
    with pytest.raises(PreconditionError) as caught:
        build()
    assert caught.type is PreconditionError and str(caught.value) == message


# Anything a caller may pass: ints near the ranges, floats, bools, text and None.
_ARGUMENTS = st.one_of(st.integers(-2, 4), st.floats(), st.booleans(), st.text(max_size=3),
                       st.none())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((S11, GroupSpec(2, 1), I111, I2111)),
       st.sampled_from(("generator", "element")),
       _ARGUMENTS, _ARGUMENTS, _ARGUMENTS, st.lists(_ARGUMENTS, max_size=3))
def test_builders_refuse_or_build_a_readable_element(spec, builder, level, j, power, entries):
    # A builder either raises PreconditionError or returns an element
    # whose literal reads back equal.
    try:
        if builder == "generator":
            g = spec.generator(level, j, power)
        elif isinstance(spec, GroupSpec):
            g = WreathElement(spec, entries, (LaurentPoly.zero(spec.m),) * spec.n)
        else:
            point = spec.inner().identity()
            g = NestedElement(spec, point, {point: entries})
    except PreconditionError:
        return
    read = parse_element if isinstance(spec, GroupSpec) else parse_nested
    assert read(str(g), spec) == g


def test_spec_for_ranks_is_flat_for_two_ranks():
    assert spec_for_ranks((2, 1)) == GroupSpec(m=1, n=2)
    assert spec_for_ranks([1, 2, 3]) == IteratedSpec((1, 2, 3))
    assert IteratedSpec((1, 2, 3)).inner() == GroupSpec(m=3, n=2)
    assert IteratedSpec((1, 2, 3, 4)).inner() == IteratedSpec((2, 3, 4))
    with pytest.raises(ParseError, match="at least two ranks"):
        spec_for_ranks((1,))


def test_nested_powers():
    rng = random.Random(29)
    for _ in range(50):
        g = rand_nested(rng, I111)
        e = rng.randint(-5, 5)
        expected = I111.identity()
        step = g if e >= 0 else g.inverse()
        for _ in range(abs(e)):
            expected = expected * step
        assert g ** e == expected


def test_base_gen_commutator_with_active():
    # depth 3 over ranks (1,1,1): [b, a] has support at a^0 and a^1
    b = I111.base_gen(1)
    a_flat = I111.inner().active_gen(1)
    c = b.commutator(I111.embed(a_flat))
    assert c.active.is_identity()
    assert c.base == ((I111.inner().identity(), (-1,)), (a_flat, (1,)))


def test_products_and_inverses_are_in_normal_form():
    # products, inverses and commutators skip the constructor's checks;
    # rebuilding through it must change nothing, the hash included
    rng = random.Random(17)
    for spec in (I111, I212, I1111):
        for _ in range(100):
            g, h = rand_nested(rng, spec), rand_nested(rng, spec)
            for value in (g * h, g.inverse(), g * g.inverse(), g.commutator(h)):
                rebuilt = NestedElement(spec, value.active, value.base)
                assert rebuilt == value and hash(rebuilt) == hash(value)
                assert parse_nested(str(value), spec) == value


# -- the closed-form commutator ---------------------------------------------------------


def generic_commutator(g, h):
    return g.inverse() * h.inverse() * g * h


def generator_powers(spec):
    """Every generator of every level of `spec`, embedded, to the powers -1 and 1."""
    ranks = spec.ranks
    return [spec.generator(level, j, e) for level in range(1, len(ranks) + 1)
            for j in range(1, ranks[-level] + 1) for e in (-1, 1)]


@st.composite
def deep_elements(draw, spec):
    """Words of up to six generator powers: supports overlap, share keys and cancel."""
    g = spec.identity()
    for gen, e in draw(st.lists(st.tuples(st.sampled_from(generator_powers(spec)),
                                          st.integers(-2, 2)), max_size=6)):
        g = g * gen ** e
    return g


DEEP_SPECS = st.lists(st.sampled_from((1, 2)), min_size=3, max_size=6).map(
    lambda ranks: IteratedSpec(tuple(ranks)))


@settings(max_examples=150, deadline=None)
@given(DEEP_SPECS.flatmap(lambda spec: st.tuples(
    deep_elements(spec), deep_elements(spec), st.sampled_from(["g, h", "g, g", "g, g^-1"]))))
def test_commutator_closed_form_matches_the_generic_product(case):
    g, h, pair = case
    if pair == "g, g":
        h = g
    elif pair == "g, g^-1":
        h = g.inverse()
    value = g.commutator(h)
    assert value == generic_commutator(g, h)
    rebuilt = NestedElement(value.spec, value.active, value.base)
    assert rebuilt == value and hash(rebuilt) == hash(value)


def test_commutator_edge_cases_at_depth_three_to_six():
    rng = random.Random(5)
    for depth in range(3, 7):
        spec = IteratedSpec((1,) * (depth - 2) + (2, 1))
        inner = spec.inner()
        e = spec.identity()
        a = spec.embed(inner.generator(1, 1))
        b = spec.base_gen(1)
        # q = {1: 1, a^-1: 1} and q.a = {a: 1, 1: 1}: key 1 cancels in q - q.a
        q = NestedElement(spec, inner.identity(),
                          {inner.identity(): (1,), inner.generator(1, 1, -1): (1,)})
        cases = [(e, e), (e, b), (b, e), (a, b), (b, a), (b, b), (a, q), (q, a),
                 (b * a, b * a), (a, a.inverse())]
        for _ in range(40):
            g, h = rand_nested(rng, spec), rand_nested(rng, spec)
            cases += [(g, h), (g, g), (g, e), (e, g), (spec.embed(g.active), spec.embed(h.active)),
                      (NestedElement(spec, inner.identity(), g.base), h)]
        for g, h in cases:
            value = g.commutator(h)
            assert value == generic_commutator(g, h), (depth, str(g), str(h))
            assert NestedElement(spec, value.active, value.base) == value
        assert a.commutator(q).base == ((inner.generator(1, 1, -1), (1,)),
                                        (inner.generator(1, 1), (-1,)))


def test_projection_examples():
    assert I111.identity().project() == I111.inner().identity()
    base_only = I111.base_gen(1)
    assert base_only.project().is_identity()
    rng = random.Random(11)
    for _ in range(100):
        g, h = rand_nested(rng, I111), rand_nested(rng, I111)
        assert (g * h).project() == g.project() * h.project()


# -- literals ------------------------------------------------------------------------


def test_nested_literal_round_trip():
    rng = random.Random(13)
    for shape in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1), (2, 1, 2, 1)]:
        spec = IteratedSpec(shape)
        for _ in range(50):
            g = rand_nested(rng, spec)
            assert parse_nested(str(g), spec) == g


def test_nested_literal_shape():
    g = I111.base_gen(1)
    assert str(g) == "{ active: { active: (0); }; [ { active: (0); } -> (1) ] }"
    assert parse_nested("{ active: {active:(0)} ; [ { active: (0) } -> (1) ] }", I111) == g
    assert str(I1111.base_gen(1)) == (
        "{ active: { active: { active: (0); }; }; "
        "[ { active: { active: (0); }; } -> (1) ] }")
    assert str(I212.base_gen(2, power=-3)) == (
        "{ active: { active: (0,0); }; [ { active: (0,0); } -> (0,-3) ] }")


def test_nested_literal_errors():
    for bad in ["{ active: { active: (0); }; [ { active: (0); } -> (1,2) ] }",
                "{ active: (0); }",
                "{ active: { active: (0); b1: a1 }",
                "{ active: { active: (0); b2: 1 }; }",
                "{ active: { active: (0); b1: 1, b1: 2 }; }",
                "{ active: { active: (0); }; } extra"]:
        with pytest.raises(ParseError):
            parse_nested(bad, I111)


def test_repeated_support_point_is_a_parse_error():
    # the two entries cancel, so the literal names the identity, but it is
    # not in normal form and must not be read as anything
    text = ("{ active: { active: (0); }; "
            "[ { active: (0); b1: a1 } -> (1) ], [ { active: (0); b1: a1 } -> (-1) ] }")
    with pytest.raises(ParseError, match=r"repeated support point \{ active: \(0\); b1: a1 \}"):
        parse_nested(text, I111)
    deeper = ("{ active: { active: { active: (0); }; }; "
              "[ { active: { active: (1); }; } -> (1) ], [ {active: {active: (1)}} -> (2) ] }")
    with pytest.raises(ParseError, match="repeated support point"):
        parse_nested(deeper, I1111)


def test_repeated_support_point_rejected_by_constructor():
    key = S11.active_gen(1)
    with pytest.raises(PreconditionError, match="repeated"):
        NestedElement(I111, S11.identity(), [(key, (1,)), (key, (-1,))])
    with pytest.raises(PreconditionError, match="repeated"):
        NestedElement(I111, S11.identity(), [(key, (0,)), (key, (2,))])
    g = NestedElement(I111, S11.identity(), {key: (1,), S11.identity(): (0,)})
    assert g.base == ((key, (1,)),)


S12 = GroupSpec(1, 2)
A1 = S11.active_gen(1)
A1_2 = S11.active_gen(1, 2)
# A point whose coefficient has more digits than `str()` converts.
HUGE = S11.base_gen(1, 10 ** 8600)


def test_checked_constructor_gives_the_unchecked_normal_form():
    rng = random.Random(15)
    for spec in (I111, I212, I1111, IteratedSpec((2, 1, 1, 2))):
        inner = spec.inner()
        for _ in range(40):
            active = rand_nested(rng, inner)
            base = {rand_nested(rng, inner, 1, 1):
                    tuple(rng.randint(-1, 1) for _ in range(spec.ranks[0]))
                    for _ in range(rng.randint(0, 5))}
            g = NestedElement(spec, active, base)
            assert g == NestedElement._unchecked(spec, active, dict(base))
            assert g.is_identity() == (not g.base and active.is_identity())


@pytest.mark.parametrize("active, base, error, message", [
    (S12.identity(), {A1: (0.5,)}, SpecMismatchError,
     "active part belongs to GroupSpec(m=1, n=2), not GroupSpec(m=1, n=1)"),
    (S11.identity(), {S12.identity(): (1,)}, SpecMismatchError,
     "support point belongs to GroupSpec(m=1, n=2), not GroupSpec(m=1, n=1)"),
    (S11.identity(), {A1: (1, 2)}, PreconditionError, "vector (1, 2) invalid for rank 1"),
    (S11.identity(), {A1: (1.5,)}, PreconditionError, "vector (1.5,) invalid for rank 1"),
    # every entry is checked before any repetition, and of several repeated
    # points the least in canonical order is named
    (S11.identity(), [(A1, (1,)), (A1, (1,)), (A1_2, (0.5,))], PreconditionError,
     "vector (0.5,) invalid for rank 1"),
    (S11.identity(), [(A1, (1,)), (A1, (1,)), (S12.identity(), (1,))], SpecMismatchError,
     "support point belongs to GroupSpec(m=1, n=2), not GroupSpec(m=1, n=1)"),
    (S11.identity(), [(A1_2, (1,)), (A1_2, (1,)), (A1, (1,)), (A1, (0,))], PreconditionError,
     "support point { active: (1); } is repeated"),
    (S11.identity(), [(HUGE, (1,)), (HUGE, (1,))], PreconditionError,
     "support point <not shown: it holds an integer of more than "
     f"{sys.get_int_max_str_digits()} digits> is repeated"),
])
def test_nested_constructor_errors_keep_their_class_message_and_order(active, base, error,
                                                                      message):
    with pytest.raises(error) as caught:
        NestedElement(I111, active, base)
    assert caught.type is error and str(caught.value) == message


# -- lifting --------------------------------------------------------------------------


def test_lift_empty_system():
    lifted = lift_system(system_of([]), I111.base_gen(1))
    assert lifted.equations == ()


def test_lift_shape_and_solution_transport():
    inner = S11
    outer = I111
    c = inner.base_gen(1)
    system = system_of([equation(Literal("x"), Constant(c))])
    lifted = lift_system(system, outer.base_gen(1))
    assert len(lifted.equations) == 1
    assert lifted.declared_vars == ("x",)
    # inner solution x = c lifts by embedding
    asg = {"x": outer.embed(c)}
    assert check_system(lifted, asg, outer).ok
    # and projecting a lifted solution solves the inner system
    projected = project_assignment({"x": asg["x"]})
    assert check_system(system, projected, inner).ok


def test_lift_is_sound_and_complete_on_random_assignments():
    # embedded, non-canonical and random outer assignments: the lifted
    # verdict must equal the verdict on the projected assignment
    assert run_suite("interp-lift", check_lift, 100, seed=7) == []


def test_lift_keeps_the_flat_equation_count_at_every_depth():
    f = parse_intpoly("z1 - 2")
    flat_count = len(compile_flat(f, S11).system.equations)
    for depth in range(3, 9):
        red = compile_iterated(f, IteratedSpec((1,) * depth))
        assert len(red.system.equations) == flat_count
        assert red.system.declared_vars == compile_flat(f, S11).system.declared_vars


def test_depth_three_system_text_is_pinned():
    b = "@b1_3"
    one = "@b1"
    a = "@a1"
    expected = "\n".join([
        "# vars: x1 y",
        f"[y, {one}, {b}] = 1",
        f"[[{one}, x1] [@b1^-2, {a}] [{a}, y, {a}], {b}] = 1",
    ]) + "\n"
    assert serialize_system(compile_iterated(parse_intpoly("z1 - 2"), I111).system) == expected


def test_non_canonical_depth_four_solution_is_sound():
    # A base part lies in the kernel of the projection, so multiplying one
    # into every value of a solution gives another solution, not the
    # embedded one; the root must still come back out.
    f = parse_intpoly("z1 - 2")
    red = compile_iterated(f, I1111)
    rng = random.Random(41)
    noisy = {}
    for name, value in red.witness((2,)).items():
        point = rand_nested(rng, I111)
        base_part = NestedElement(I1111, I111.identity(), {point: (rng.choice((-3, -1, 2, 5)),)})
        noisy[name] = base_part * value
        assert noisy[name].base and noisy[name].project() == value.project()
    assert check_system(red.system, noisy, I1111).ok
    assert red.extract_solution(noisy) == (2,)


def test_lift_rejects_foreign_constants():
    system = system_of([equation(Constant(I212.identity()))])
    with pytest.raises(SpecMismatchError):
        lift_system(system, I111.base_gen(1))


def test_embed_crosses_several_levels_in_one_call():
    i2111 = IteratedSpec((2, 1, 1, 1))
    for value in (S11.active_gen(1), S11.base_gen(1, -6), S11.identity()):
        assert i2111.embed(value) == i2111.embed(I111.embed(value))
    assert i2111.embed(I111.base_gen(1, 2)) == NestedElement(i2111, I111.base_gen(1, 2), ())
    for foreign in (i2111.identity(), I1111.identity(), GroupSpec(1, 2).identity(),
                    IteratedSpec((2, 1, 1)).identity()):
        with pytest.raises(SpecMismatchError):
            i2111.embed(foreign)


def test_lift_through_a_tower_needs_nested_levels():
    system = system_of([equation(Literal("x"))])
    with pytest.raises(SpecMismatchError, match="does not act on"):
        lift_system(system, I111.base_gen(1), I212.base_gen(1))
    # One lift over two levels wraps every equation in one commutator with
    # two factors, and a commutator gains them as further factors.
    b3, b4 = Constant(I1111.embed(I111.base_gen(1))), Constant(I1111.base_gen(1))
    lifted = lift_system(system, I111.base_gen(1), I1111.base_gen(1))
    assert lifted.equations == (Commutator(Literal("x"), b3, b4),)
    system = system_of([equation(Commutator(Literal("x"), Literal("y")))])
    lifted = lift_system(system, I111.base_gen(1), I1111.base_gen(1))
    assert lifted.equations == (Commutator(Literal("x"), Literal("y"), b3, b4),)


def test_the_tower_lift_walks_each_flat_word_once(monkeypatch):
    # Lifting level by level re-walks the system built so far at every
    # level, O(depth^2) word nodes; one pass visits each flat node once.
    walk = interp._convert_word
    visits = []

    def counting(word, convert):
        visits.append(word)
        return walk(word, convert)

    monkeypatch.setattr(interp, "_convert_word", counting)
    f = parse_intpoly("z1 - 2")
    counts = []
    for depth in (3, 8, 64):
        visits.clear()
        compile_iterated(f, IteratedSpec((1,) * depth))
        counts.append(len(visits))
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_the_depth_check_tests_identity_linearly_often(monkeypatch):
    # A nested identity test that recursed through every pure-active level
    # below made checking a depth-L system cost O(E·L²): 4.2 times the
    # calls at depth 64 as at depth 32.  The flag set at construction makes
    # each test O(1), so doubling the depth about doubles the calls.
    original = NestedElement.is_identity
    calls = []

    def counting(g):
        calls.append(g)
        return original(g)

    f = parse_intpoly("z1 - 2")
    counts = []
    for depth in (32, 64):
        spec = IteratedSpec((1,) * depth)
        compiled = compile_iterated(f, spec)
        asg = compiled.witness((2,))
        calls.clear()
        monkeypatch.setattr(NestedElement, "is_identity", counting)
        assert check_system(compiled.system, asg, spec).ok
        monkeypatch.undo()
        counts.append(len(calls))
    assert 0 < counts[1] <= 2.2 * counts[0]


# -- the one-pass lift against the level-by-level reference ------------------------------


def _levels(spec):
    """The iterated groups of a tower, innermost first."""
    levels = []
    while isinstance(spec, IteratedSpec):
        levels.insert(0, spec)
        spec = spec.inner()
    return levels


def lift_level_by_level(system, spec):
    """The former tower lift: one `lift_system` per level, each re-embedding
    every constant built so far."""
    for outer in _levels(spec):
        system = lift_system(system, outer.base_gen(1))
    return system


def embed_level_by_level(assignment, spec):
    """The former witness embedding: one checked `embed` per level and value."""
    for outer in _levels(spec):
        assignment = {name: NestedElement(outer, value, ()) for name, value in assignment.items()}
    return assignment


# Rank lists of depth 3 to 10, some of them with a 2 in them.
TOWERS = [(1, 1, 1), (2, 1, 1), (1, 1, 2), (1, 2, 1, 1), (1,) * 5, (2, 1, 1, 2, 1, 1),
          (1,) * 7, (1, 1, 2, 1, 1, 1, 1, 1), (1,) * 9, (2,) + (1,) * 9]


@pytest.mark.parametrize("ranks", TOWERS, ids=lambda ranks: ",".join(map(str, ranks)))
def test_one_pass_lift_matches_the_level_by_level_reference(ranks):
    spec = spec_for_ranks(ranks)
    flat_spec = spec_for_ranks(ranks[-2:])
    rng = random.Random(len(ranks) * 10 + sum(ranks))
    cases = [(parse_intpoly("z1 - 2"), (2,))] + [_planted_root_poly(rng) for _ in range(2)]
    for f, z in cases:
        red = compile_iterated(f, spec)
        reference = lift_level_by_level(compile_flat(f, flat_spec).system, spec)
        assert red.system == reference
        assert serialize_system(red.system) == serialize_system(reference)
        asg = red.witness(z)
        assert asg == embed_level_by_level(witness_flat(f, z, flat_spec), spec)
        assert check_system(red.system, asg, spec).ok
        assert red.extract_solution(asg) == z


# -- the iterated pipeline ---------------------------------------------------------------


def test_compile_iterated_depth_two_matches_flat():
    f = parse_intpoly("z1 - 2")
    red = compile_iterated(f, S11)
    flat = compile_flat(f, S11)
    assert red.system == flat.system
    asg = red.witness((2,))
    assert asg == witness_flat(f, (2,), S11)
    assert list(asg) == list(witness_flat(f, (2,), S11))
    assert red.extract_solution(asg) == (2,)


def test_two_rank_witness_checks_against_the_same_spec():
    f = parse_intpoly("z1*z2 - 6")
    for ranks in [(1, 1), (2, 1), (1, 2)]:
        spec = spec_for_ranks(ranks)
        red = compile_iterated(f, spec)
        asg = red.witness((2, 3))
        assert check_system(red.system, asg, spec).ok
        assert red.extract_solution(asg) == (2, 3)


def test_compile_iterated_depth_three_end_to_end():
    f = parse_intpoly("z1 - 2")
    red = compile_iterated(f, I111)
    asg = red.witness((2,))
    assert check_system(red.system, asg, I111).ok
    assert red.extract_solution(asg) == (2,)


@pytest.mark.parametrize("ranks", [(1, 1), (1, 1, 1), (1, 2, 1, 1)])
def test_iterated_reduction_is_a_reduction(ranks):
    f = parse_intpoly("z1*z2 - 6")
    red = compile_iterated(f, spec_for_ranks(ranks))
    assert isinstance(red, reduction.Reduction)
    assert red.solution_vars == ("x1", "x2") and red.num_vars == 2
    assert reduction.extract_solution(red, red.witness((2, 3))) == (2, 3)


def test_iterated_extract_rejects_a_value_from_another_group():
    red = compile_iterated(parse_intpoly("z1 - 2"), I111)
    for foreign in (S11.active_gen(1, power=2), I212.embed(GroupSpec(2, 1).active_gen(1, power=2))):
        with pytest.raises(SpecMismatchError, match="x1"):
            reduction.extract_solution(red, {"x1": foreign})


def test_compile_iterated_rejects_single_rank():
    with pytest.raises(PreconditionError):
        compile_iterated(parse_intpoly("z1"), IteratedSpec((1,)))


def test_compile_iterated_system_serializes_and_parses():
    f = parse_intpoly("z1 - 2")
    red = compile_iterated(f, I111)
    text = serialize_system(red.system)
    assert parse_system(text, I111) == red.system


def test_depth_three_witness_line_is_pinned_and_round_trips():
    f = parse_intpoly("z1 - 2")
    red = compile_iterated(f, I111)
    asg = red.witness((2,))
    text = serialize_assignment(asg)
    line = "y := { active: { active: (0); b1: 1 }; }"
    assert text.splitlines() == ["x1 := { active: { active: (2); }; }", line]
    assert parse_assignment(line, I111)["y"] == asg["y"]
    assert parse_assignment(text, I111) == asg


def test_compile_iterated_witness_fails_for_non_roots():
    red = compile_iterated(parse_intpoly("z1 - 2"), I111)
    with pytest.raises(PreconditionError):
        red.witness((3,))


def test_iterated_wrong_witness_detected():
    f = parse_intpoly("z1 - 2")
    red = compile_iterated(f, I111)
    asg = red.witness((2,))
    # corrupt the solution variable; some equation must now fail
    asg["x1"] = I111.identity()
    assert not check_system(red.system, asg, I111).ok
