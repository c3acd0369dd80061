"""The two layouts of a Laurent polynomial give the same results.

A polynomial whose monomials share their exponents past a1 is held as a
dense row along a1 when it has at least 32 terms and the row is at least half
full, and as a term dict otherwise.  Every operation is checked here against
a reference on plain term dicts, on operands drawn in both layouts and at the
rule's edges: the result must have the reference's value, terms, text and
hash, and be held as the rule says.  The operations that keep sparse
polynomials sparse are checked under `tracemalloc`.
"""

import random
import tracemalloc
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from zwreath.laurent import LaurentPoly, delta_decompose, geom_series, parse_poly, terms_str
from zwreath.wreath import GroupSpec, WreathElement

# -- the reference: term dicts, one term at a time -----------------------------------


def ref_sum(*parts):
    out = {}
    for sign, terms in parts:
        for mono, c in terms.items():
            out[mono] = out.get(mono, 0) + sign * c
    return {mono: c for mono, c in out.items() if c}


def ref_shift(terms, shift, sign=1):
    return {tuple(map(add, mono, shift)): sign * c for mono, c in terms.items()}


def ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(map(add, m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def ref_element_mul(g, h):
    (alpha, ps), (beta, qs) = g, h
    return (tuple(map(add, alpha, beta)),
            [ref_sum((1, ref_shift(p, beta)), (1, q)) for p, q in zip(ps, qs)])


def ref_inverse(g):
    alpha, ps = g
    neg = tuple(-e for e in alpha)
    return neg, [ref_shift(p, neg, -1) for p in ps]


def ref_commutator(g, *hs):
    for h in hs:
        g = ref_element_mul(ref_element_mul(ref_inverse(g), ref_inverse(h)),
                            ref_element_mul(g, h))
    return g


def held_as_row(terms):
    """The density rule, stated on a term dict."""
    if len(terms) < 32 or len({mono[1:] for mono in terms}) > 1:
        return False
    exponents = [mono[0] for mono in terms]
    return max(exponents) - min(exponents) + 1 <= 2 * len(terms)


def assert_matches(result, terms, rank):
    """`result` has the reference terms' value, terms, text and hash, and the rule's layout."""
    expected = LaurentPoly(rank, terms)
    assert result == expected and not result != expected
    assert dict(result.terms) == terms
    assert str(result) == terms_str(terms, "a")
    assert hash(result) == hash(expected)
    assert (result._row is not None) == held_as_row(terms)
    assert (result._terms is None) == held_as_row(terms)


# -- operands in both layouts ----------------------------------------------------------


@st.composite
def laid_out_terms(draw, rank):
    """Terms that are a row, a dict, or at the rule's edges.

    `count` nonzero cells among `width` from a1^lo, the first and last cells
    among them, times one tail past a1 (nonzero at ranks 2 and 3); a run of
    such cells with one term of another tail; a few terms far apart; or a
    few small terms.  Counts and widths straddle 32 and twice the count.
    """
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("run", "edge", "run", "other tail", "sparse", "small")))
    tail = tuple(rng.randint(-2, 2) for _ in range(rank - 1))
    if kind in ("run", "edge", "other tail"):
        if kind == "edge":
            count = rng.choice((31, 32, 33))
            width = rng.choice((count, 2 * count - 1, 2 * count, 2 * count + 1))
        else:
            count = rng.randint(2, 70)
            width = rng.randint(count, 2 * count + 3)
        lo = rng.randint(-60, 40)
        inner = rng.sample(range(lo + 1, lo + width - 1), count - 2) if count > 1 else []
        exponents = sorted({lo, lo + width - 1, *inner})
        terms = {(e,) + tail: rng.choice((-1, 1)) * rng.randint(1, 9) for e in exponents}
        if kind == "other tail" and rank > 1:
            terms[(lo,) + tuple(e + 1 for e in tail)] = 1
        return terms
    if kind == "sparse":
        return {(rng.choice((-1, 1)) * rng.randint(0, 10**9),) + tail: rng.randint(1, 9)
                for _ in range(rng.randint(1, 4))}
    return {tuple(rng.randint(-3, 3) for _ in range(rank)): rng.randint(-9, 9) or 1
            for _ in range(rng.randint(0, 4))}


def draw_case(data, rank=None):
    rank = rank or data.draw(st.integers(1, 3))
    terms = [data.draw(laid_out_terms(rank)) for _ in range(2)]
    return rank, terms, [LaurentPoly(rank, t) for t in terms]


@settings(max_examples=150)
@given(st.data())
def test_ring_operations_agree_with_the_reference(data):
    rank, (a, b), (p, q) = draw_case(data)
    shift = data.draw(st.tuples(*[st.integers(-40, 40)] * rank))
    for p_, a_ in ((p, a), (parse_poly(str(p), rank), a)):
        assert_matches(p_, a_, rank)
    assert_matches(p + q, ref_sum((1, a), (1, b)), rank)
    assert_matches(p - q, ref_sum((1, a), (-1, b)), rank)
    assert_matches(-p, ref_sum((-1, a)), rank)
    assert_matches(p - p, {}, rank)
    assert_matches(p + (-p), {}, rank)
    assert_matches(p * q, ref_mul(a, b), rank)
    assert_matches(p.times_monomial(shift), ref_shift(a, shift), rank)
    assert_matches(p + q.times_monomial(shift), ref_sum((1, a), (1, ref_shift(b, shift))), rank)


@settings(max_examples=150)
@given(st.data())
def test_group_operations_agree_with_the_reference(data):
    rank, terms, polys = draw_case(data)
    spec = GroupSpec(rank, 2)

    def active():
        kind = data.draw(st.sampled_from(("zero", "a1", "a1", "any")))
        if kind == "zero":
            return (0,) * rank
        if kind == "a1":
            return (data.draw(st.integers(-70, 70)),) + (0,) * (rank - 1)
        return data.draw(st.tuples(*[st.integers(-3, 3)] * rank))

    g_ref = (active(), terms)
    h_ref = (active(), terms[::-1])
    more = [(active(), [{}, {}]) for _ in range(data.draw(st.integers(0, 3)))]
    g = WreathElement(spec, g_ref[0], polys)
    h = WreathElement(spec, h_ref[0], polys[::-1])
    hs = [WreathElement(spec, alpha, [LaurentPoly.zero(rank)] * 2) for alpha, _ in more]

    for value, (alpha, coords) in ((g * h, ref_element_mul(g_ref, h_ref)),
                                   (g.inverse(), ref_inverse(g_ref)),
                                   (g.commutator(h, *hs), ref_commutator(g_ref, h_ref, *more))):
        assert value.active == alpha
        for poly, ref in zip(value.base, coords):
            assert_matches(poly, ref, rank)


def test_a_product_moves_the_tail_of_a_row():
    # (alpha, p)(beta, q) = (alpha + beta, p*a^beta + q): with beta moving a2,
    # p's row meets q's row only when their tails agree after the move.
    spec = GroupSpec(2, 1)
    p = {(e, 3): e + 1 for e in range(40)}
    for beta, q in (((5, 2), {(e, 3): 2 for e in range(10, 50)}),
                    ((5, 0), {(e, 3): 2 for e in range(10, 50)}),
                    ((-7, -3), {(e, 0): -1 for e in range(-20, 20)})):
        g = WreathElement(spec, (1, 1), [LaurentPoly(2, p)])
        h = WreathElement(spec, beta, [LaurentPoly(2, q)])
        alpha, (coord,) = ref_element_mul(((1, 1), [p]), (beta, [q]))
        assert (g * h).active == alpha
        assert_matches((g * h).base[0], coord, 2)


def ref_power(terms, factor, k):
    for _ in range(k):
        terms = ref_mul(terms, factor)
    return terms


@settings(max_examples=100)
@given(st.data())
def test_delta_decompose_agrees_with_the_reference(data):
    rank, (a, b), _ = draw_case(data)
    k = data.draw(st.integers(1, 3))
    one = (0,) * rank
    terms = ref_power(a, {one: -1, (1,) + one[1:]: 1}, k)  # a * (a1 - 1)^k
    if rank > 1 and data.draw(st.booleans()):  # plus b * (a2 - 1)^k
        terms = ref_sum((1, terms), (1, ref_power(b, {one: -1, (0, 1) + one[2:]: 1}, k)))
    parts = delta_decompose(LaurentPoly(rank, terms), k)
    total = {}
    for beta, quotient in parts.items():
        assert sum(beta) == k and quotient
        q = dict(quotient.terms)
        assert_matches(quotient, q, rank)
        for i, e in enumerate(beta):
            q = ref_power(q, {one: -1, tuple(int(v == i) for v in range(rank)): 1}, e)
        total = ref_sum((1, total), (1, q))
    assert total == terms
    # Cleared of its least exponents, a polynomial of one tail past a1 is
    # free of a2..am: it has the one quotient a.
    if terms and len({mono[1:] for mono in terms}) == 1:
        assert parts == {(k,) + one[1:]: LaurentPoly(rank, a)}


@pytest.mark.parametrize("count, width, tail, row", [
    (32, 32, (), True), (31, 31, (), False), (32, 64, (), True), (32, 65, (), False),
    (33, 66, (2, -1), True), (33, 67, (2, -1), False), (40, 40, (0, 0), True),
])
def test_the_rule_at_its_edges(count, width, tail, row):
    rng = random.Random(count * width)
    lo = -rng.randint(1, 100)
    inner = rng.sample(range(lo + 1, lo + width - 1), count - 2)
    terms = {(e,) + tail: rng.randint(1, 9) for e in (lo, lo + width - 1, *inner)}
    rank = 1 + len(tail)
    p = LaurentPoly(rank, terms)
    assert (p._row is not None) is row
    assert_matches(p, terms, rank)
    assert_matches(parse_poly(str(p), rank), terms, rank)
    # One term more or less crosses the rule one way or the other.
    top = (lo + width - 1,) + tail
    assert_matches(p - LaurentPoly(rank, {top: terms[top]}),
                   {m: c for m, c in terms.items() if m != top}, rank)
    assert_matches(p + LaurentPoly.monomial(rank, (lo - 1,) + tail),
                   terms | {(lo - 1,) + tail: 1}, rank)


def test_results_cross_the_rule_both_ways():
    # A row of ones times a1 - 1 leaves two terms, a dict; two 20-term dicts
    # that meet make a 40-term row.
    spec = GroupSpec(1, 1)
    cyclic = spec.element(base={1: geom_series(100)})
    assert cyclic.base[0]._row is not None
    value = spec.generator(1, 1).commutator(cyclic)
    assert_matches(value.base[0], {(0,): 1, (100,): -1}, 1)
    low = {(e,): 1 for e in range(20)}
    high = {(e,): 2 for e in range(20, 40)}
    assert LaurentPoly(1, low)._row is None
    assert_matches(LaurentPoly(1, low) + LaurentPoly(1, high), low | high, 1)
    # Row sums leaving 32 terms over 65 cells (a dict) and 33 over 65 (a row).
    full = {(e,): 1 for e in range(65)}
    for hole in (range(1, 34), range(2, 34)):
        cut = {(e,): -1 for e in hole}
        assert_matches(LaurentPoly(1, full) + LaurentPoly(1, cut), ref_sum((1, full), (1, cut)), 1)
    assert_matches(geom_series(-32), {(-j,): -1 for j in range(1, 33)}, 1)
    assert_matches(geom_series(31, 2), {(j, 0): 1 for j in range(31)}, 2)


# -- sparse polynomials stay sparse --------------------------------------------------


@pytest.mark.parametrize("terms", [
    {(10**8,): 1, (0,): 1},
    {(i * 10**4,): 1 + i for i in range(40)},
], ids=["a1^100000000 + 1", "40 terms 10^4 apart"])
def test_sparse_polynomials_stay_sparse(terms):
    """A row over either polynomial's a1-span would hold 4 * 10^5 cells or
    more (3 MB or more); each operation stays under 1 MiB.  So does a row of
    40 ones against a factor a1^100000000 - 1, whose product is sparse."""
    spec = GroupSpec(1, 1)
    p = LaurentPoly(1, terms)
    g = spec.element(base={1: p})
    a1 = spec.generator(1, 1)
    chain = g.commutator(a1, a1, a1).base[0]
    ones = spec.element(base={1: geom_series(40)})
    far = spec.generator(1, 1, 10**8)
    operations = {
        "+": lambda: p + p.times_monomial((1,)),
        "*": lambda: p * LaurentPoly(1, {(0,): 1, (3,): -2}),
        "times_monomial": lambda: p.times_monomial((-5,)),
        "commutator chain": lambda: g.commutator(a1, a1, a1),
        "delta_decompose": lambda: delta_decompose(chain, 3),
        "row and a far factor": lambda: ones.commutator(far, a1),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, operation in operations.items():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            operation()
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(peak < 2**20 for peak in peaks.values()), peaks
    assert p._row is None and chain._row is None
    assert chain == p * LaurentPoly(1, {(0,): -1, (1,): 1}) ** 3
    assert delta_decompose(chain, 3) == {(3,): p}
    assert ones.commutator(far, a1).base[0] == geom_series(40) * P(
        "a1^100000000 - 1") * P("a1 - 1")


def P(text):
    return parse_poly(text, 1)
