import itertools
import math
import random

import pytest
import sympy
from hypothesis import given, strategies as st

from zwreath.errors import ParseError, PreconditionError, SpecMismatchError
from zwreath import laurent
from zwreath.laurent import (INFINITY, LaurentPoly, _add_terms, _deglex_terms_str, _shifted,
                             _times_differences, aug_valuation, delta_decompose,
                             delta_generator_product, delta_membership,
                             geom_series, parse_poly, terms_str)


def P(text, rank):
    return parse_poly(text, rank)


# -- independent oracle: symbolic expansion through sympy ----------------------


def sympy_valuation(p):
    """Clear denominators, substitute a_i = y_i + 1 symbolically, take min degree."""
    if p.is_zero():
        return INFINITY
    ys = sympy.symbols(f"v0:{p.rank}")
    mins = [min(m[i] for m in p.terms) for i in range(p.rank)]
    expr = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        term = sympy.Integer(coeff)
        for y, e, lo in zip(ys, mono, mins):
            term *= (y + 1) ** (e - lo)
        expr += term
    expr = sympy.expand(expr)
    if expr == 0:
        return INFINITY
    poly = sympy.Poly(expr, *ys)
    return min(sum(m) for m in poly.monoms())


# -- arithmetic ---------------------------------------------------------------


def test_add_cancellation():
    assert P("a1 - 1", 1) + P("1", 1) == P("a1", 1)


def test_add_identity():
    p = P("2*a1^3 - a2^-1 + 7", 2)
    assert p + LaurentPoly.zero(2) == p


def test_add_like_terms():
    assert P("2*a1*a2^-1", 2) + P("3*a1*a2^-1", 2) == P("5*a1*a2^-1", 2)


def test_mul_difference_of_squares():
    assert P("a1 - 1", 1) * P("a1 + 1", 1) == P("a1^2 - 1", 1)


def test_mul_identity():
    p = P("2*a1^3 - a2^-1 + 7", 2)
    assert p * LaurentPoly.one(2) == p


def test_mul_expansion():
    assert P("a1 - 1", 2) * P("a2 - 1", 2) == P("a1*a2 - a1 - a2 + 1", 2)


def test_rank_mismatch_rejected():
    with pytest.raises(SpecMismatchError):
        P("a1", 1) + P("a1", 2)
    with pytest.raises(SpecMismatchError):
        P("a1", 1) * P("a1", 2)


def test_int_coercion():
    assert P("a1", 1) - 1 == P("a1 - 1", 1)
    assert 2 * P("a1", 1) == P("2*a1", 1)


# -- valuation ----------------------------------------------------------------


def test_valuation_zero_polynomial():
    assert aug_valuation(LaurentPoly.zero(3)) == INFINITY


def test_valuation_product_of_generators():
    p = P("a1*a2 - a1 - a2 + 1", 2)
    assert aug_valuation(p) == 2
    assert sympy_valuation(p) == 2


def test_valuation_with_negative_exponents():
    p = P("a1^-1 - 1", 1)
    assert aug_valuation(p) == 1
    assert sympy_valuation(p) == 1


def test_valuation_matches_sympy_on_random_inputs():
    rng = random.Random(7)
    for _ in range(150):
        rank = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(0, 4)):
            mono = tuple(rng.randint(-3, 3) for _ in range(rank))
            terms[mono] = terms.get(mono, 0) + rng.randint(-9, 9)
        p = LaurentPoly(rank, terms)
        assert aug_valuation(p) == sympy_valuation(p)


def test_membership_examples():
    p = P("a1 - 1", 2) ** 2 * P("a2 - 1", 2)
    assert delta_membership(p, 3)
    assert not delta_membership(LaurentPoly.constant(1, 5), 1)
    q = P("a1^3 - 3*a1 + 2", 1)
    assert sympy_valuation(q) == 2
    assert delta_membership(q, 2)
    assert not delta_membership(q, 3)


def test_membership_level_zero_always_true():
    assert delta_membership(LaurentPoly.constant(1, 5), 0)
    assert delta_membership(LaurentPoly.zero(1), 0)


# -- decomposition ------------------------------------------------------------


def test_decompose_square():
    p = P("a1 - 1", 1) ** 2
    assert delta_decompose(p, 2) == {(2,): LaurentPoly.one(1)}


def test_decompose_zero():
    assert delta_decompose(LaurentPoly.zero(2), 2) == {}


def test_decompose_mixed():
    p = P("a1 - 1", 2) * P("a2 - 1", 2) + P("a1 - 1", 2) ** 2
    parts = delta_decompose(p, 2)
    assert parts == {(2, 0): LaurentPoly.one(2), (1, 1): LaurentPoly.one(2)}


def test_decompose_recomposes():
    rng = random.Random(11)
    for _ in range(100):
        rank = rng.randint(1, 2)
        k = rng.randint(1, 4)
        p = LaurentPoly.zero(rank)
        for _ in range(rng.randint(1, 3)):
            beta = [0] * rank
            for _ in range(k):
                beta[rng.randrange(rank)] += 1
            terms = {tuple(rng.randint(-2, 2) for _ in range(rank)): rng.randint(-5, 5)
                     for _ in range(rng.randint(1, 2))}
            p = p + delta_generator_product(tuple(beta), rank) * LaurentPoly(rank, terms)
        parts = delta_decompose(p, k)
        total = LaurentPoly.zero(rank)
        for beta, q in parts.items():
            assert sum(beta) == k
            total = total + delta_generator_product(beta, rank) * q
        assert total == p


def test_decompose_rejects_nonmembers():
    with pytest.raises(PreconditionError, match="valuation 1"):
        delta_decompose(P("a1 - 1", 1), 2)
    # Valuation 0 is read off the first split step over the 8000 cells,
    # where a full y-expansion of a1^8000 takes seconds.
    with pytest.raises(PreconditionError,
                       match="^polynomial has augmentation valuation 0, not in ideal power 1$"):
        delta_decompose(P("a1^8000 + 1", 1), 1)


def test_decompose_large_univariate_root():
    # (a1^n - 1 - n*(a1 - 1)) / (a1 - 1)^2 = sum_{j <= n-2} (n - 1 - j) a1^j
    n = 5000
    p = LaurentPoly(1, {(n,): 1, (1,): -n, (0,): n - 1})
    expected = LaurentPoly(1, {(j,): n - 1 - j for j in range(n - 1)})
    assert delta_decompose(p, 2) == {(2,): expected}


# -- reference decomposition: full y-expansion, lex-least bucketing -------------


def _reference_shift(terms, delta):
    """Substitute v_i := v_i + delta in non-negative-exponent terms, by binomials."""
    out = {}
    for mono, coeff in terms.items():
        per_var = [[(j, math.comb(e, j) * delta ** (e - j)) for j in range(e + 1)]
                   for e in mono]
        for combo in itertools.product(*per_var):
            c = coeff
            for _, factor in combo:
                c *= factor
            key = tuple(j for j, _ in combo)
            out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


def _reference_least_beta(gamma, k):
    beta, remaining, tail = [], k, sum(gamma)
    for g in gamma:
        tail -= g
        b = max(0, remaining - tail)
        beta.append(b)
        remaining -= b
    return tuple(beta)


def reference_decompose(p, k):
    """Returns (valuation, split); the split is None when the valuation is below k."""
    if p.is_zero():
        return INFINITY, {}
    mins = tuple(min(m[i] for m in p.terms) for i in range(p.rank))
    cleared = {tuple(e - lo for e, lo in zip(m, mins)): c for m, c in p.terms.items()}
    expanded = _reference_shift(cleared, 1)
    valuation = min(sum(g) for g in expanded)
    if valuation < k:
        return valuation, None
    buckets = {}
    for gamma, c in expanded.items():
        beta = _reference_least_beta(gamma, k)
        bucket = buckets.setdefault(beta, {})
        residue = tuple(g - b for g, b in zip(gamma, beta))
        bucket[residue] = bucket.get(residue, 0) + c
    split = {}
    for beta in sorted(buckets):
        back = _reference_shift({m: c for m, c in buckets[beta].items() if c}, -1)
        if back:
            split[beta] = LaurentPoly(p.rank, back).times_monomial(mins)
    return valuation, split


def _random_member(rng, rank, k):
    p = LaurentPoly.zero(rank)
    for _ in range(rng.randint(1, 2)):
        beta = [0] * rank
        for _ in range(k):
            beta[rng.randrange(rank)] += 1
        terms = {tuple(rng.randint(-4, 4) for _ in range(rank)): rng.randint(-5, 5)
                 for _ in range(rng.randint(1, 2))}
        p = p + delta_generator_product(tuple(beta), rank) * LaurentPoly(rank, terms)
    return p


def test_decompose_matches_reference_on_members():
    rng = random.Random(23)
    for _ in range(500):
        rank, k = rng.randint(1, 4), rng.randint(1, 5)
        p = _random_member(rng, rank, k)
        _, expected = reference_decompose(p, k)
        assert list(delta_decompose(p, k).items()) == list(expected.items()), (p, k)


def test_decompose_nonmembers_name_reference_valuation():
    rng = random.Random(29)
    rejected = 0
    for _ in range(200):
        rank, k = rng.randint(1, 4), rng.randint(1, 5)
        # One degree short of a member, plus noise: mostly below k.
        p = _random_member(rng, rank, k - 1) if k > 1 else LaurentPoly(rank, {})
        p = p + LaurentPoly(rank, {tuple(rng.randint(-4, 4) for _ in range(rank)):
                                   rng.randint(-5, 5)})
        valuation, expected = reference_decompose(p, k)
        if expected is not None:
            assert list(delta_decompose(p, k).items()) == list(expected.items())
            continue
        rejected += 1
        with pytest.raises(PreconditionError, match=f"valuation {valuation}, "):
            delta_decompose(p, k)
    assert rejected >= 100


@st.composite
def non_member(draw):
    """(p, k) with p outside the k-th ideal power: a random polynomial of
    rank 1..3 times up to three factors a_v - 1, and k above its valuation."""
    rank = draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(-6, 6)] * rank)
    terms = draw(st.dictionaries(monomials, st.integers(-9, 9).filter(bool),
                                 min_size=1, max_size=5))
    p = LaurentPoly(rank, terms)
    for v in draw(st.lists(st.integers(1, rank), max_size=3)):
        p = p * (LaurentPoly.variable(rank, v) - 1)
    return p, aug_valuation(p) + draw(st.integers(1, 3))


@given(non_member())
def test_decompose_refusal_names_the_augmentation_valuation(case):
    # The refusal reads the valuation off the split's remainders at a1;
    # it must be the one the full y-expansion finds.
    p, k = case
    with pytest.raises(PreconditionError) as caught:
        delta_decompose(p, k)
    assert str(caught.value) == (
        f"polynomial has augmentation valuation {aug_valuation(p)}, not in ideal power {k}")


# -- geometric series ----------------------------------------------------------


def test_geom_series_positive():
    assert geom_series(3) == P("1 + a1 + a1^2", 1)


def test_geom_series_zero():
    assert geom_series(0) == LaurentPoly.zero(1)


def test_geom_series_negative():
    s = geom_series(-2)
    assert s == P("-a1^-1 - a1^-2", 1)
    assert s * P("a1 - 1", 1) == P("a1^-2 - 1", 1)


def test_geom_series_contract_over_range():
    a1_minus_1 = P("a1 - 1", 1)
    for gamma in range(-50, 51):
        lhs = geom_series(gamma) * a1_minus_1
        assert lhs == LaurentPoly(1, {(gamma,): 1}) - 1


def test_public_constructor_rejects_malformed_input():
    with pytest.raises(PreconditionError, match=r"exponent vector \(1,\) invalid for rank 2"):
        LaurentPoly(2, {(1,): 1})
    with pytest.raises(PreconditionError, match=r"exponent vector \(1, 1.5\) invalid"):
        LaurentPoly(2, {(1, 1.5): 1})
    with pytest.raises(PreconditionError, match="coefficient 2.0 is not an int"):
        LaurentPoly(1, {(1,): 2.0})
    with pytest.raises(PreconditionError, match=r"exponent vector \(True,\) invalid for rank 1"):
        LaurentPoly(1, {(True,): 1})
    with pytest.raises(PreconditionError, match="coefficient False is not an int"):
        LaurentPoly(1, [((1,), False)])
    with pytest.raises(PreconditionError, match="rank must be a positive int"):
        LaurentPoly(0)
    with pytest.raises(PreconditionError, match="rank must be a positive int, got True"):
        LaurentPoly(True)
    with pytest.raises(PreconditionError, match="rank must be a positive int"):
        geom_series(3, rank=0)
    with pytest.raises(SpecMismatchError, match="monomial shift"):
        P("a1", 2).times_monomial((1,))
    with pytest.raises(PreconditionError, match="invalid for rank 1"):
        P("a1", 1).times_monomial((0.5,))


@pytest.mark.parametrize("index, message", [
    (0, "variable index 0 out of range 1..2"),
    (3, "variable index 3 out of range 1..2"),
    (1.5, "variable index 1.5 out of range 1..2"),
    (1.0, "variable index 1.0 out of range 1..2"),
    (True, "variable index True out of range 1..2"),
    ("x", "variable index x out of range 1..2"),
    (None, "variable index None out of range 1..2"),
])
def test_variable_refuses_an_index_that_is_not_an_int_in_range(index, message):
    with pytest.raises(PreconditionError) as caught:
        LaurentPoly.variable(2, index)
    assert caught.type is PreconditionError and str(caught.value) == message


def test_public_constructor_sums_repeated_exponents_and_drops_zero_sums():
    assert LaurentPoly(1, [((-1,), 2), ((-1,), -2)]).is_zero()
    p = LaurentPoly(2, [((1, -1), 2), ((0, 0), 0), ((1, -1), -2), ((1, -1), 5), ((0, 1), 1)])
    assert dict(p.terms) == {(1, -1): 5, (0, 1): 1}
    with pytest.raises(PreconditionError) as caught:
        LaurentPoly(1, {(0.5,): 2.0})
    assert str(caught.value) == "exponent vector (0.5,) invalid for rank 1"


# -- text round trip --------------------------------------------------------------


def test_parse_example_from_grammar():
    p = P("2*a1^3 - a2^-1 + 7", 2)
    assert p.terms == {(3, 0): 2, (0, -1): -1, (0, 0): 7}


def test_serialize_parse_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        rank = rng.randint(1, 3)
        terms = {tuple(rng.randint(-3, 3) for _ in range(rank)): rng.randint(-9, 9)
                 for _ in range(rng.randint(0, 4))}
        p = LaurentPoly(rank, terms)
        assert parse_poly(str(p), rank) == p


@st.composite
def first_variable_maps(draw):
    """Nonzero term maps of rank 2-4 whose monomials are powers of the first variable alone."""
    rank = draw(st.integers(2, 4))
    coeffs = st.integers(-2 ** 70, 2 ** 70).filter(bool) | st.sampled_from((1, -1))
    powers = draw(st.dictionaries(st.integers(-30, 30), coeffs, min_size=1, max_size=8))
    return {(e,) + (0,) * (rank - 1): c for e, c in powers.items()}


@given(first_variable_maps(), st.sampled_from("az"))
def test_powers_of_the_first_variable_print_as_the_deglex_path_prints_them(terms, letter):
    text = terms_str(terms, letter)
    assert text == _deglex_terms_str(terms, letter)
    if letter == "a":
        rank = len(next(iter(terms)))
        assert parse_poly(text, rank) == LaurentPoly(rank, terms)


def test_zero_serializes_as_zero():
    assert str(LaurentPoly.zero(2)) == "0"
    assert parse_poly("0", 2) == LaurentPoly.zero(2)


def test_parse_errors_report_position():
    for text, rank, col, message in [
            ("a1 +", 1, 5, "expected coefficient or variable, found 'end of input'"),
            ("b1", 1, 1, "expected coefficient or variable, found 'b1'"),
            ("a5", 2, 1, "variable a5 out of range for rank 2"),
            ("", 1, 1, "expected coefficient or variable, found 'end of input'")]:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, rank)
        assert (exc.value.line, exc.value.col) == (1, col)
        assert str(exc.value) == f"line 1, col {col}: {message}"


# -- hypothesis: ring axioms ------------------------------------------------------


def poly_strategy(rank):
    term = st.tuples(
        st.tuples(*([st.integers(-3, 3)] * rank)),
        st.integers(-9, 9))
    return st.lists(term, max_size=4).map(
        lambda pairs: LaurentPoly(rank, _accumulate(pairs)))


def _accumulate(pairs):
    terms = {}
    for mono, coeff in pairs:
        terms[mono] = terms.get(mono, 0) + coeff
    return terms


@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + (-p)).is_zero()


@given(poly_strategy(2), poly_strategy(2))
def test_valuation_laws(p, q):
    if not p.is_zero() and not q.is_zero():
        assert aug_valuation(p * q) == aug_valuation(p) + aug_valuation(q)
    assert aug_valuation(p + q) >= min(aug_valuation(p), aug_valuation(q))


@given(poly_strategy(2), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_valuation_unit_invariance(p, shift):
    assert aug_valuation(p.times_monomial(shift)) == aug_valuation(p)


# -- the flat kernels against a per-term reference ---------------------------------


@st.composite
def kernel_case(draw):
    """(rank, out, terms, sign, shift) for `_shifted` and `_add_terms`.

    Ranks 1-4, with a rank-1 case of 300 terms; shifts None, all zero or
    not; signs 1 and -1.  `out` is empty, random, or exactly minus the
    shifted terms, so that the sum cancels to {}.
    """
    rank = draw(st.integers(1, 4))
    if rank == 1 and draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        exponents = rng.sample(range(-1000, 1000), 300)
        terms = {(e,): rng.choice((-1, 1)) * rng.randint(1, 10**6) for e in exponents}
    else:
        terms = dict(draw(poly_strategy(rank)).terms)
    shift = draw(st.one_of(st.none(), st.just((0,) * rank),
                           st.tuples(*([st.integers(-5, 5)] * rank))))
    sign = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("empty", "random", "cancel")))
    if kind == "empty":
        out = {}
    elif kind == "random":
        out = dict(draw(poly_strategy(rank)).terms)
    else:
        out = dict(_reference_shifted(rank, terms, shift, -sign).terms)
    return rank, out, terms, sign, shift


def _reference_shifted(rank, terms, shift, sign):
    """sign * a^shift * terms, one term at a time through the checked constructor."""
    shift = shift or (0,) * rank
    return LaurentPoly(rank, [(tuple(e + s for e, s in zip(mono, shift)), sign * c)
                              for mono, c in terms.items()])


@given(kernel_case())
def test_kernels_match_the_per_term_reference(case):
    rank, out, terms, sign, shift = case
    terms_before, out_before = dict(terms), dict(out)
    shifted = _reference_shifted(rank, terms, shift, sign)

    copy = _shifted(terms, shift, sign)
    assert copy == shifted.terms
    assert copy is not terms

    _add_terms(out, _shifted(terms, shift), sign)
    assert out == (LaurentPoly(rank, out_before) + shifted).terms
    assert terms == terms_before


class _UnreadShift:
    """A shift that fails the test when anything iterates it."""

    def __iter__(self):
        raise AssertionError("the shift was read")


def test_a_sum_with_a_zero_moved_operand_never_reads_the_shift():
    # A product over Z^n wr Z^m sums each of its n base coordinates, most of
    # them zero; reading the m-entry shift for every one made it O(n·m).
    p, zero = P("a1^2 - 3*a2", 2), LaurentPoly.zero(2)
    assert laurent._sum(p, zero, 1, _UnreadShift()) is p
    assert laurent._sum(zero, zero, -1, _UnreadShift()).is_zero()


def _dense(lo, length, tail=()):
    """A row-sized polynomial: `length` cells from a1^lo, times a^tail, every
    seventh cell zero."""
    return LaurentPoly(1 + len(tail), {(e,) + tail: e % 7 - 3 for e in range(lo, lo + length)})


@given(poly_strategy(2), poly_strategy(2), st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       st.booleans())
def test_operations_neither_change_nor_return_their_operands_terms(p, q, shift, row):
    # Kernels fill only dicts they made: no result holds an operand's term
    # dict unless it is that operand, and every operand keeps its terms.
    # Rows are never written at all, so a result may share an operand's list.
    if row:
        p = p + _dense(-40, 50, (1,))
    before = (dict(p.terms), dict(q.terms))
    results = [p + q, q + p, p - q, p + 0, p - 0, -p, p.times_monomial(shift),
               p.times_monomial((0, 0)), p * q]
    for r in results:
        for operand in (p, q):
            assert r is operand or r._terms is None or r._terms is not operand._terms
    assert (dict(p.terms), dict(q.terms)) == before


# -- products of differences a^s - 1 ----------------------------------------------


@st.composite
def differences_case(draw):
    """(p, shifts, sign) for `_times_differences`.

    Ranks 1-3; p a dense run along a1 (short, or long enough to be a row)
    with one tail past a1, the same run with a second tail (a dict), or a
    few random terms; one to five shifts, all moving a1 alone (positive or
    negative), or each of them that, any small vector, or zero.  The choices
    come from a seeded `random.Random`, so that about a third of the cases
    take rows.
    """
    rank = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    terms = {}
    if rng.random() < 2 / 3:
        start = rng.randint(-20, 20)
        length = rng.randint(32, 80) if rng.random() < 2 / 3 else rng.randint(1, 10)
        for _ in range(rng.choice((1, 1, 2))):
            rest = tuple(rng.randint(-2, 2) for _ in range(rank - 1))
            for e in range(start, start + length):
                terms[(e,) + rest] = rng.randint(-5, 5) if rng.random() < 0.9 else 0
    else:
        terms = dict(draw(poly_strategy(rank)).terms)
    one_variable = rng.random() < 2 / 3

    def shift():
        kind = "a1" if one_variable else rng.choice(("a1", "any", "zero"))
        if kind == "a1":
            return (rng.choice((-3, -2, -1, 1, 2, 3)),) + (0,) * (rank - 1)
        if kind == "zero":
            return (0,) * rank
        return tuple(rng.randint(-2, 2) for _ in range(rank))

    shifts = [shift() for _ in range(rng.randint(1, 5))]
    return LaurentPoly(rank, terms), shifts, rng.choice((1, -1))


@given(differences_case())
def test_times_differences_matches_the_ring_product(case):
    p, shifts, sign = case
    before = dict(p.terms)
    expected = p * sign
    for shift in shifts:
        expected = expected * (LaurentPoly.monomial(p.rank, shift) - 1)
    out = _times_differences(p, shifts, sign)
    assert out == expected and dict(out.terms) == dict(expected.terms)
    assert str(out) == str(expected) and hash(out) == hash(expected)
    assert dict(p.terms) == before


def test_times_differences_on_rows_builds_no_term_dict(monkeypatch):
    def refuse(*args):
        raise AssertionError("dict path taken")

    dense, tailed = _dense(-50, 100), _dense(-50, 100, (2, -1))
    product = P("1", 1)
    for s in (1, 1, -2, 1):
        product = product * (LaurentPoly.monomial(1, (s,)) - 1)
    expected = dense * product * -1, tailed * P("a1^2 - 1", 3) * P("a1^-3 - 1", 3)
    monkeypatch.setattr(laurent, "_shifted", refuse)
    monkeypatch.setattr(laurent, "_row_dict", refuse)
    assert _times_differences(dense, [(1,), (1,), (-2,), (1,)], -1) == expected[0]
    assert _times_differences(tailed, [(2, 0, 0), (-3, 0, 0)]) == expected[1]
    assert all(p._row is not None for p in (dense, tailed) + expected)


def test_times_differences_leaves_rows_when_a_factor_would_not_stay_on_them():
    # A factor along a2, or shifts longer than the row, take the dict path
    # and give the ring product all the same.
    tailed = _dense(0, 40, (0,))
    for shifts in ([(0, 1)], [(1, 1)], [(41, 0)], [(20, 0), (-21, 0)]):
        expected = tailed
        for shift in shifts:
            expected = expected * (LaurentPoly.monomial(2, shift) - 1)
        assert _times_differences(tailed, shifts) == expected


def test_hash_is_kept_and_equal_polynomials_hash_equal():
    parsed = P("a1^2 - 3*a2 + 1", 2)
    built = LaurentPoly(2, {(0, 1): -3, (2, 0): 1, (0, 0): 1})
    summed = P("a1^2", 2) + P("1 - 3*a2", 2)
    shifted = P("a1^3*a2^-1 - 3*a1 + a1*a2^-1", 2).times_monomial((-1, 1))
    values = {hash(p) for p in (parsed, built, summed, shifted)}
    assert len(values) == 1
    assert hash(parsed) == hash(parsed) == parsed._hash
    assert {parsed: 1}[summed] == 1
    for name in ("rank", "_terms", "_hash"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(parsed, name, None)
    assert hash(parsed) in values


@pytest.mark.parametrize("value", [0, 1, -1, -7, 3 ** 200, -(2 ** 100), True, False])
def test_constant_polynomials_hash_as_the_ints_they_equal(value):
    # `==` takes a constant, zero included, for its int, so `hash` must agree,
    # also for a constant left when a dense row cancels.
    for rank in (1, 3):
        dense = P(" + ".join(f"a1^{i}" for i in range(1, 41)), rank)
        constant = LaurentPoly.constant(rank, int(value))
        for p in (constant, P(str(int(value)), rank), (dense + constant) - dense):
            assert p == value and value == p
            assert hash(p) == hash(value)
            assert len({p, value}) == 1
            assert {value: "int"}[p] == "int"
