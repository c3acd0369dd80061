import math
import operator
import random

import pytest
from hypothesis import given, strategies as st

from zwreath.equations import IDENTITY_WORD, Literal, Power, power
from zwreath.errors import ParseError, PreconditionError, SpecMismatchError
from zwreath.gadgets import delta_blocks
from zwreath.interp import IteratedSpec, NestedElement
from zwreath.laurent import (LaurentPoly, delta_decompose, delta_membership, geom_series,
                             parse_poly)
from zwreath.reduction import parse_intpoly
from zwreath.wreath import (MAX_RANK, GroupSpec, LcsBasisElement, WreathElement,
                            in_A, in_N, in_delta_power,
                            lcs_basis, lcs_rank, left_normed_commutator,
                            module_action, parse_element)


S11 = GroupSpec(1, 1)
S21 = GroupSpec(2, 1)
S22 = GroupSpec(2, 2)


def test_multiply_inverse_pair():
    a1 = S11.active_gen(1)
    assert (a1 * a1.inverse()).is_identity()


def test_multiply_conjugates_base_coordinates():
    g = S11.element(active=(1,), base={1: LaurentPoly.one(1)})
    h = S11.element(active=(-1,))
    product = g * h
    assert product.active == (0,)
    assert product.base[0] == parse_poly("a1^-1", 1)


def test_multiply_identity():
    g = S22.element(active=(2, 0), base={1: parse_poly("a1 - 1", 2)})
    assert g * S22.identity() == g
    assert S22.identity() * g == g


def test_identity_is_built_once():
    for spec in (S11, S21, S22, GroupSpec(3, 2)):
        assert spec.identity() is spec.identity()
        assert spec.identity() == WreathElement(spec, (0,) * spec.m,
                                                (LaurentPoly.zero(spec.m),) * spec.n)


def test_inverse_examples():
    assert S11.identity().inverse() == S11.identity()
    assert S11.active_gen(1).inverse() == S11.element(active=(-1,))
    g = S11.element(active=(1,), base={1: LaurentPoly.one(1)})
    gi = g.inverse()
    assert gi.active == (-1,)
    assert gi.base[0] == parse_poly("-a1^-1", 1)
    assert (g * gi).is_identity()
    assert (gi * g).is_identity()


def test_commutator_base_with_active():
    c = S11.base_gen(1).commutator(S11.active_gen(1))
    assert c == S11.element(base={1: parse_poly("a1 - 1", 1)})


def test_commutator_self_trivial():
    g = S22.element(active=(1, -1), base={2: parse_poly("a1*a2 - 3", 2)})
    assert g.commutator(g).is_identity()


def test_left_normed_commutator_iterates_the_action():
    c = left_normed_commutator([S11.base_gen(1), S11.active_gen(1), S11.active_gen(1)])
    assert c == S11.element(base={1: parse_poly("a1 - 1", 1) ** 2})


def test_module_action_examples():
    b1 = S11.base_gen(1)
    assert module_action(b1, parse_poly("a1 - 1", 1)) == S11.element(
        base={1: parse_poly("a1 - 1", 1)})
    assert module_action(b1, LaurentPoly.zero(1)).is_identity()
    b2 = S22.base_gen(2)
    acted = module_action(b2, parse_poly("a1 - 1", 2) * parse_poly("a2 - 1", 2))
    assert acted.base[1] == parse_poly("a1*a2 - a1 - a2 + 1", 2)


def test_module_action_requires_base_subgroup():
    with pytest.raises(PreconditionError):
        module_action(S11.active_gen(1), LaurentPoly.one(1))


def test_membership_predicates():
    e = S22.identity()
    assert in_N(e) and in_A(e)
    u = S22.element(base={1: parse_poly("a1 - 1", 2)})
    assert in_N(u) and not in_A(u)
    g = S22.element(active=(2, 0), base={1: LaurentPoly.one(2)})
    assert not in_N(g) and not in_A(g)


def test_in_delta_power_examples():
    c = S11.base_gen(1).commutator(S11.active_gen(1))
    assert in_delta_power(c, 1)
    assert not in_delta_power(c, 2)
    for k in range(5):
        assert in_delta_power(S11.identity(), k)


def test_spec_mismatch_rejected():
    with pytest.raises(SpecMismatchError):
        S11.identity() * S21.identity()


@given(st.integers(1, 4), st.integers(1, 3), st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 3),
       st.data())
def test_generator_powers_equal_the_checked_generators(m, n, power, data):
    spec = GroupSpec(m=m, n=n)
    i, j = data.draw(st.integers(1, m)), data.draw(st.integers(1, n))
    active = tuple(power if v == i - 1 else 0 for v in range(m))
    for g, expected in ((spec.generator(1, i, power), spec.element(active=active)),
                        (spec.generator(2, j, power),
                         spec.element(base={j: LaurentPoly.constant(m, power)}))):
        assert g == expected and hash(g) == hash(expected)
        assert g.is_identity() is (power == 0)
        assert all(c for p in g.base for c in p.terms.values())
    assert spec.active_gen(i, power) == spec.generator(1, i, power)
    assert spec.base_gen(j, power) == spec.generator(2, j, power)
    # Building generators leaves the spec's value alone.
    assert spec == GroupSpec(m=m, n=n) and hash(spec) == hash(GroupSpec(m=m, n=n))
    for level, bad, message in ((1, m + 1, "active generator index"),
                                (2, n + 1, "base generator index"), (1, 0, "active generator index")):
        with pytest.raises(PreconditionError, match=f"{message} {bad} out of range"):
            spec.generator(level, bad, power)


# -- lower central series -------------------------------------------------------


def test_lcs_basis_rank_two():
    basis = lcs_basis(2, S21)
    assert basis == [LcsBasisElement(1, (1,)), LcsBasisElement(1, (2,))]
    assert lcs_rank(2, S21) == 2
    elements = [b.as_element(S21) for b in basis]
    assert elements[0] == S21.element(base={1: parse_poly("a1 - 1", 2)})
    assert elements[1] == S21.element(base={1: parse_poly("a2 - 1", 2)})


def test_lcs_rank_examples():
    assert lcs_rank(3, S21) == 3
    assert lcs_rank(4, GroupSpec(1, 2)) == 2


def test_lcs_rank_matches_enumeration_and_formula():
    for m in range(1, 4):
        for n in range(1, 4):
            spec = GroupSpec(m, n)
            for i in range(2, 6):
                assert lcs_rank(i, spec) == len(lcs_basis(i, spec))
                assert lcs_rank(i, spec) == n * math.comb(i + m - 2, m - 1)


def test_lcs_basis_elements_sit_between_consecutive_powers():
    spec = GroupSpec(2, 2)
    for i in (2, 3, 4):
        for b in lcs_basis(i, spec):
            value = b.as_element(spec)
            assert in_delta_power(value, i - 1)
            assert not in_delta_power(value, i)


def test_lcs_requires_index_at_least_two():
    with pytest.raises(PreconditionError):
        lcs_rank(1, S11)
    with pytest.raises(PreconditionError):
        lcs_basis(1, S11)


# -- literals ----------------------------------------------------------------------


def test_element_literal_round_trip():
    g = S22.element(active=(2, 0), base={1: parse_poly("a1 - 1", 2)})
    text = str(g)
    assert text == "{ active: (2,0); b1: a1 - 1 }"
    assert parse_element(text, S22) == g


def test_element_literal_empty_base():
    g = S21.element(active=(1, -3))
    text = str(g)
    assert text == "{ active: (1,-3); }"
    assert parse_element(text, S21) == g


def test_element_literal_accepts_spec_example():
    g = parse_element("{ active: (2,0) ; b1: a1 - 1 }", S22)
    assert g.active == (2, 0)
    assert g.base[0] == parse_poly("a1 - 1", 2)


def test_element_literal_errors():
    with pytest.raises(ParseError):
        parse_element("{ active: (1,2); }", S11)
    with pytest.raises(ParseError):
        parse_element("{ active: (0); b7: 1 }", S11)
    with pytest.raises(ParseError):
        parse_element("active: (0)", S11)


def test_random_literal_round_trips():
    rng = random.Random(5)
    for _ in range(100):
        spec = GroupSpec(rng.randint(1, 3), rng.randint(1, 3))
        active = tuple(rng.randint(-3, 3) for _ in range(spec.m))
        base = {}
        for j in range(1, spec.n + 1):
            if rng.random() < 0.6:
                base[j] = LaurentPoly(spec.m, {
                    tuple(rng.randint(-2, 2) for _ in range(spec.m)): rng.randint(-5, 5)
                    for _ in range(rng.randint(1, 3))})
        g = spec.element(active=active, base=base)
        assert parse_element(str(g), spec) == g


# -- hypothesis: group axioms and the action convention -----------------------------


def element_strategy(spec):
    poly = st.lists(
        st.tuples(st.tuples(*([st.integers(-2, 2)] * spec.m)), st.integers(-4, 4)),
        max_size=3,
    ).map(lambda pairs: LaurentPoly(spec.m, _accumulate(pairs)))
    return st.builds(
        lambda active, base: WreathElement(spec, active, tuple(base)),
        st.tuples(*([st.integers(-3, 3)] * spec.m)),
        st.tuples(*([poly] * spec.n)))


def _accumulate(pairs):
    terms = {}
    for mono, coeff in pairs:
        terms[mono] = terms.get(mono, 0) + coeff
    return terms


@given(element_strategy(S22), element_strategy(S22), element_strategy(S22))
def test_group_axioms(g, h, k):
    assert (g * h) * k == g * (h * k)
    assert (g * g.inverse()).is_identity()
    assert g * S22.identity() == g


@given(element_strategy(S22), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_action_convention(g, active):
    u = WreathElement(S22, (0, 0), g.base)
    x = S22.element(active=active)
    mono = LaurentPoly.monomial(2, active)
    assert u.commutator(x) == module_action(u, mono - 1)


@given(element_strategy(S22), st.integers(-6, 6))
def test_integer_powers(g, e):
    expected = S22.identity()
    step = g if e >= 0 else g.inverse()
    for _ in range(abs(e)):
        expected = expected * step
    assert g ** e == expected


# -- closed-form commutator and normal form of results -------------------------------


@st.composite
def flat_pair(draw):
    """Two elements of Z^n wr Z^m with m, n in 1..3; sometimes h is g."""
    spec = GroupSpec(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    g = draw(element_strategy(spec))
    h = draw(st.one_of(st.just(g), element_strategy(spec)))
    return g, h


@given(flat_pair())
def test_commutator_matches_the_product_of_four(pair):
    g, h = pair
    assert g.commutator(h) == g.inverse() * h.inverse() * g * h


def test_commutator_matches_the_product_of_four_on_edge_cases():
    rng = random.Random(11)
    for _ in range(200):
        spec = GroupSpec(rng.randint(1, 3), rng.randint(1, 3))
        g, h = (_random_element(rng, spec) for _ in range(2))
        variants = [
            (g, h), (g, g), (h, h),
            (WreathElement(spec, (0,) * spec.m, g.base), h),  # zero active parts
            (g, WreathElement(spec, (0,) * spec.m, h.base)),
            (spec.element(active=g.active), h),               # zero coordinates
            (g, spec.element(active=h.active)),
            (spec.identity(), h), (g, spec.identity()),
        ]
        for x, y in variants:
            assert x.commutator(y) == x.inverse() * y.inverse() * x * y


def test_commutator_matches_the_product_of_four_on_long_coordinates():
    """Rank-1 coordinates of a few hundred terms, the shape of a large root's witness."""
    rng = random.Random(14)
    for n in (1, 2):
        spec = GroupSpec(1, n)
        for _ in range(10):
            g, h = (spec.element(active=(rng.choice((0, rng.randint(-40, 40))),), base={
                j: LaurentPoly(1, {(e,): rng.randint(-9, 9)
                                   for e in rng.sample(range(-400, 400), rng.randint(200, 400))})
                for j in range(1, n + 1)}) for _ in range(2))
            for x, y in ((g, h), (h, g), (g, g), (g, spec.element(active=h.active))):
                assert x.commutator(y) == x.inverse() * y.inverse() * x * y


def _random_element(rng, spec):
    base = {}
    for j in range(1, spec.n + 1):
        if rng.random() < 0.7:
            base[j] = LaurentPoly(spec.m, {
                tuple(rng.randint(-2, 2) for _ in range(spec.m)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 4))})
    active = tuple(rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(spec.m))
    return spec.element(active=active, base=base)


def _assert_normal_poly(p):
    rebuilt = LaurentPoly(p.rank, dict(p.terms))
    assert p == rebuilt and hash(p) == hash(rebuilt)
    for mono, coeff in p.terms.items():
        assert type(mono) is tuple and len(mono) == p.rank
        assert all(type(e) is int for e in mono)
        assert type(coeff) is int and coeff != 0


def _assert_normal_element(g):
    assert type(g.active) is tuple and all(type(e) is int for e in g.active)
    assert type(g.base) is tuple
    for p in g.base:
        _assert_normal_poly(p)
    rebuilt = WreathElement(g.spec, g.active, g.base)
    assert g == rebuilt and hash(g) == hash(rebuilt)


def test_arithmetic_results_are_in_normal_form():
    rng = random.Random(12)
    for _ in range(200):
        spec = GroupSpec(rng.randint(1, 3), rng.randint(1, 3))
        g, h = (_random_element(rng, spec) for _ in range(2))
        p, q = g.base[0], h.base[-1]
        shift = tuple(rng.randint(-2, 2) for _ in range(spec.m))
        for poly in (p + q, p + 3, p - q, p - p, 2 - p, -p, p * q, p * 0,
                     p.times_monomial(shift), p ** 2):
            _assert_normal_poly(poly)
        u = WreathElement(spec, (0,) * spec.m, g.base)
        for element in (g * h, g * g.inverse(), g.inverse(), g.commutator(h),
                        g.commutator(g), g ** -3, module_action(u, q),
                        module_action(u, LaurentPoly.zero(spec.m))):
            _assert_normal_element(element)


def test_public_constructor_rejects_malformed_input():
    with pytest.raises(PreconditionError, match=r"active vector \(1,\) invalid for rank 2"):
        WreathElement(S21, (1,), (LaurentPoly.zero(2),))
    with pytest.raises(PreconditionError, match="expected 1 base coordinates, got 2"):
        WreathElement(S21, (0, 0), (LaurentPoly.zero(2),) * 2)
    with pytest.raises(PreconditionError, match="must have rank 2"):
        WreathElement(S21, (0, 0), (LaurentPoly.one(1),))
    with pytest.raises(PreconditionError, match="must have rank 2"):
        S21.element(base={1: LaurentPoly.one(1)})
    with pytest.raises(PreconditionError, match="invalid for rank 1"):
        WreathElement(S11, (1.0,), (LaurentPoly.zero(1),))


@pytest.mark.parametrize("build, message", [
    (lambda: GroupSpec(0, 1), "active rank must be a positive int, got 0"),
    (lambda: GroupSpec(1.0, 1), "active rank must be a positive int, got 1.0"),
    (lambda: GroupSpec(1, 0), "base rank must be a positive int, got 0"),
    (lambda: GroupSpec(0, 0), "active rank must be a positive int, got 0"),
    (lambda: S21.active_gen(3), "active generator index 3 out of range 1..2"),
    (lambda: S21.active_gen(0, 5), "active generator index 0 out of range 1..2"),
    (lambda: S21.generator(1, 3, -1), "active generator index 3 out of range 1..2"),
    (lambda: S21.base_gen(2), "base generator index 2 out of range 1..1"),
    (lambda: S21.generator(1, 1, 1.5), "active vector (1.5, 0) invalid for rank 2"),
    (lambda: S21.generator(2, 1, 1.5), "coefficient 1.5 is not an int"),
    (lambda: S21.generator(2, 0), "base generator index 0 out of range 1..1"),
    (lambda: GroupSpec(1, 1).generator(0, 1), "generator level 0 out of range 1..2"),
    (lambda: GroupSpec(1, 1).generator(7, 1, 2), "generator level 7 out of range 1..2"),
    (lambda: GroupSpec(1, 1).generator(3, 1), "generator level 3 out of range 1..2"),
    (lambda: GroupSpec(1, 1).generator("x", 1), "generator level x out of range 1..2"),
    (lambda: GroupSpec(1, 1).generator(1, "x"), "active generator index x out of range 1..1"),
    (lambda: GroupSpec(1, 1).generator(2, None), "base generator index None out of range 1..1"),
    (lambda: S21.element(base={2: LaurentPoly.zero(2)}), "base coordinate b2 out of range 1..1"),
    (lambda: S21.element(base={0: LaurentPoly.zero(2)}), "base coordinate b0 out of range 1..1"),
    # Levels, indices, powers and vector entries are ints; a float or a
    # bool that compares in range is refused as well.
    (lambda: S11.generator(1.0, 1), "generator level 1.0 out of range 1..2"),
    (lambda: S11.generator(True, 1), "generator level True out of range 1..2"),
    (lambda: S11.generator(1, 1.0), "active generator index 1.0 out of range 1..1"),
    (lambda: S11.generator(1, 1, True), "active vector (True,) invalid for rank 1"),
    (lambda: S11.generator(2, 1, True), "coefficient True is not an int"),
    (lambda: WreathElement(S11, (True,), (LaurentPoly(1),)),
     "active vector (True,) invalid for rank 1"),
    (lambda: S11.element(base={1.0: LaurentPoly.one(1)}), "base coordinate b1.0 out of range 1..1"),
    (lambda: S11.element(base={"x": LaurentPoly.one(1)}), "base coordinate bx out of range 1..1"),
    (lambda: S11.element(base={None: LaurentPoly.one(1)}),
     "base coordinate bNone out of range 1..1"),
    # Ranks and a literal's sign are ints as well, with the same rule.
    (lambda: GroupSpec(True, 1), "active rank must be a positive int, got True"),
    (lambda: GroupSpec(1, True), "base rank must be a positive int, got True"),
    (lambda: GroupSpec(True, True), "active rank must be a positive int, got True"),
    (lambda: IteratedSpec((True, 1, 1)), "ranks must be positive ints, got (True, 1, 1)"),
    (lambda: IteratedSpec((1, 1, 1.0)), "ranks must be positive ints, got (1, 1, 1.0)"),
    # Every rank is at most MAX_RANK; the message names the cap and the
    # largest entry.
    (lambda: GroupSpec(MAX_RANK + 1, 1), f"each rank must be at most {MAX_RANK}, got {MAX_RANK + 1}"),
    (lambda: GroupSpec(1, 10 ** 20), f"each rank must be at most {MAX_RANK}, got {10 ** 20}"),
    (lambda: IteratedSpec((1, 10 ** 8, 1, 10 ** 20)),
     f"each rank must be at most {MAX_RANK}, got {10 ** 20}"),
    (lambda: Literal("x", True), "literal sign must be +-1, got True"),
    (lambda: Literal("x", 1.0), "literal sign must be +-1, got 1.0"),
    (lambda: Literal("x", 2), "literal sign must be +-1, got 2"),
])
def test_spec_constructors_reject_malformed_input(build, message):
    with pytest.raises(PreconditionError) as caught:
        build()
    assert caught.type is PreconditionError and str(caught.value) == message


@pytest.mark.parametrize("build, message", [
    # A bool is an int to isinstance, and True compares equal to 1; an
    # exponent, an ideal power or a lower-central-series index refuses it
    # as it refuses a float.
    (lambda: S11.active_gen(1) ** True, "group power must be an int, got True"),
    (lambda: S11.active_gen(1) ** False, "group power must be an int, got False"),
    (lambda: S11.active_gen(1) ** 2.0, "group power must be an int, got 2.0"),
    (lambda: Power(Literal("x"), 1.5), "group power must be an int, got 1.5"),
    (lambda: Power(Literal("x"), True), "group power must be an int, got True"),
    (lambda: Power(Literal("x"), False), "group power must be an int, got False"),
    (lambda: delta_blocks(S11, True), "ideal power must be a positive int, got True"),
    (lambda: delta_blocks(S11, False), "ideal power must be a positive int, got False"),
    (lambda: delta_blocks(S11, 1.0), "ideal power must be a positive int, got 1.0"),
    (lambda: lcs_basis(True, S11), "lower-central-series index must be an int >= 2, got True"),
    (lambda: lcs_basis(False, S11),
     "lower-central-series index must be an int >= 2, got False"),
    (lambda: lcs_rank(True, S11), "lower-central-series index must be an int >= 2, got True"),
    (lambda: lcs_rank(False, S11), "lower-central-series index must be an int >= 2, got False"),
    (lambda: lcs_rank(2.0, S11), "lower-central-series index must be an int >= 2, got 2.0"),
    # The normalizing word builder refuses before its 0 and +-1 shortcuts.
    (lambda: power(Literal("x"), True), "group power must be an int, got True"),
    (lambda: power(Literal("x"), False), "group power must be an int, got False"),
    (lambda: power(Literal("x"), 1.0), "group power must be an int, got 1.0"),
    (lambda: power(Literal("x"), 0.0), "group power must be an int, got 0.0"),
    (lambda: power(Literal("x"), -1.0), "group power must be an int, got -1.0"),
    # The polynomial layer's int arguments.
    (lambda: parse_poly("a1", 1) ** True, "polynomial power must be a non-negative int, got True"),
    (lambda: parse_poly("a1", 1) ** 2.0, "polynomial power must be a non-negative int, got 2.0"),
    (lambda: parse_poly("a1", 2).times_monomial((True, 0)),
     "exponent vector (True, 0) invalid for rank 2"),
    (lambda: delta_membership(parse_poly("a1 - 1", 1), True),
     "ideal power must be a non-negative int, got True"),
    (lambda: delta_decompose(parse_poly("a1 - 1", 1), True),
     "ideal power must be a positive int, got True"),
    (lambda: delta_decompose(parse_poly("a1 - 1", 1), 1.0),
     "ideal power must be a positive int, got 1.0"),
    (lambda: geom_series(True), "exponent must be an int, got True"),
    (lambda: geom_series(2.0), "exponent must be an int, got 2.0"),
])
def test_int_arguments_reject_bools_and_floats(build, message):
    with pytest.raises(PreconditionError) as caught:
        build()
    assert caught.type is PreconditionError and str(caught.value) == message


def test_int_arguments_accept_ints():
    a1 = S11.active_gen(1)
    assert a1 ** 1 == a1 and (a1 ** 0).is_identity()
    assert Power(Literal("x"), 2).exponent == 2
    assert len(delta_blocks(S11, 1)) == 1
    assert lcs_rank(2, S11) == len(lcs_basis(2, S11)) == 1
    x = Literal("x")
    assert power(x, 1) == x and power(x, 0) == IDENTITY_WORD and power(x, -1) == Literal("x", -1)
    assert power(x, 2) == Power(x, 2)
    a1 = parse_poly("a1", 1)
    assert a1 ** 2 == parse_poly("a1^2", 1) and a1.times_monomial((1,)) == a1 ** 2
    assert delta_membership(a1 - 1, 1) and delta_decompose(a1 - 1, 1) == {(1,): 1}
    assert geom_series(2) == parse_poly("a1 + 1", 1)


S111 = IteratedSpec((1, 1, 1))


@pytest.mark.parametrize("value", [
    S21.element(active=(1, -2), base={1: parse_poly("a1 - 3*a2", 2)}),
    S111.embed(S11.active_gen(1)),
    S111.base_gen(1) * S111.embed(S11.base_gen(1)),
    parse_poly("a1^2 - 3*a2 + 1", 2),
    LaurentPoly(1, {(e,): 1 for e in range(40)}),
    parse_intpoly("z1*z2 - 6"),
], ids=["WreathElement", "NestedElement-pure-active", "NestedElement-with-support",
        "LaurentPoly-dict", "LaurentPoly-row", "IntPolynomial"])
def test_values_refuse_assignment_and_deletion(value):
    # Every value type is a `Frozen` subclass: setting or deleting a slot,
    # or any other name, raises and leaves every slot as it was.
    names = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    text, key = str(value), hash(value)
    slots = [getattr(value, name, None) for name in names]
    for name in names + ["unknown"]:
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable"):
            delattr(value, name)
    assert all(map(operator.is_, [getattr(value, name, None) for name in names], slots))
    assert (str(value), hash(value)) == (text, key)


def test_immutability_cases_cover_both_layouts_and_both_element_shapes():
    pure, supported = S111.embed(S11.active_gen(1)), S111.base_gen(1) * S111.embed(S11.base_gen(1))
    assert type(pure) is type(supported) is NestedElement and not pure.base and supported.base
    assert parse_poly("a1^2 - 3*a2 + 1", 2)._row is None
    assert LaurentPoly(1, {(e,): 1 for e in range(40)})._row is not None


# -- the variadic commutator ---------------------------------------------------------


@st.composite
def commutator_chain(draw):
    """(g, [h1, ..., hk]) over Z^n wr Z^m, m in 1..3, k in 1..5.

    Coordinates are zero, dense runs along a1 (one or several a1 fibres),
    sparse (exponents up to 10^9 apart), or a few small random terms.
    Active parts are zero, a power of a1 (negative ones included), or any
    small vector, so chains take both the row path and the dict path of
    `laurent._times_differences`; sometimes a later factor is pure base.
    """
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    spec = GroupSpec(m, n)
    rng = draw(st.randoms(use_true_random=False))

    def coordinate():
        kind = rng.choice(("zero", "dense", "dense", "dense", "sparse", "small"))
        terms = {}
        if kind == "dense":
            start, length = rng.randint(-40, 40), rng.randint(1, 90)
            for _ in range(rng.randint(1, 3)):
                rest = tuple(rng.randint(-2, 2) for _ in range(m - 1))
                for e in range(start, start + length):
                    if rng.random() < 0.9:
                        terms[(e,) + rest] = rng.randint(-9, 9)
        elif kind == "sparse":
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.choice((-1, 1)) * rng.randint(0, 10**9) for _ in range(m))
                terms[mono] = rng.randint(-9, 9)
        elif kind == "small":
            for _ in range(rng.randint(1, 4)):
                terms[tuple(rng.randint(-2, 2) for _ in range(m))] = rng.randint(-9, 9)
        return LaurentPoly(m, terms)

    def active(kinds):
        kind = rng.choice(kinds)
        if kind == "zero":
            return (0,) * m
        if kind == "a1":
            return (rng.choice((-1, 1)) * rng.randint(1, 4),) + (0,) * (m - 1)
        return tuple(rng.randint(-3, 3) for _ in range(m))

    def element(kinds):
        return WreathElement(spec, active(kinds), tuple(coordinate() for _ in range(n)))

    g = element(("zero", "zero", "a1", "any"))
    hs = [element(("zero", "a1", "a1", "a1", "a1", "any")) for _ in range(rng.randint(1, 5))]
    return g, hs


@given(commutator_chain())
def test_variadic_commutator_matches_the_pairwise_and_long_hand_folds(chain):
    g, hs = chain
    pairwise = long_hand = g
    for h in hs:
        pairwise = pairwise.commutator(h)
        long_hand = long_hand.inverse() * h.inverse() * long_hand * h
    value = g.commutator(*hs)
    assert value == pairwise == long_hand
    assert left_normed_commutator([g] + hs) == value
    _assert_normal_element(value)


def test_variadic_commutator_with_a_pure_base_later_factor_is_the_identity():
    spec = GroupSpec(2, 1)
    g = parse_element("{ active: (1,0); b1: a1^3 + 2*a2 }", spec)
    h = parse_element("{ active: (0,-2); b1: 5*a1 }", spec)
    base = parse_element("{ active: (0,0); b1: a1 - 7 }", spec)
    assert not g.commutator(h).is_identity()
    assert g.commutator(h, base).is_identity()
    assert g.commutator(h, spec.active_gen(1), base, spec.active_gen(2)).is_identity()


def test_variadic_commutator_checks_every_factor_spec():
    with pytest.raises(SpecMismatchError):
        S11.base_gen(1).commutator(S11.active_gen(1), S21.active_gen(1))


def test_sparse_chain_allocates_no_long_row(tmp_path, capsys):
    """`[x, @a1, @a1]` with the coordinate a1^10000000 + 1: a row along a1
    would hold 10^7 cells (about 80 MB); the dict path touches 2 terms."""
    import tracemalloc

    from zwreath.cli import main

    system = tmp_path / "sys.eqs"
    assignment = tmp_path / "x.asg"
    system.write_text("# vars: x\n[x, @a1, @a1] = 1\n", encoding="utf-8")
    assignment.write_text("x := { active: (0); b1: a1^10000000 + 1 }\n", encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["verify", "--ranks", "1,1", "--system", str(system),
                     "--assignment", str(assignment)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().out == "equation 1: FAIL\nunsatisfied: 1 of 1 equations fail\n"
    assert peak < 4 * 2**20
