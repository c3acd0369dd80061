import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from zwreath import reduction
from zwreath.equations import (Commutator, Constant, Literal, System, check_system, concat,
                               equation, evaluate, free_vars, parse_assignment, parse_system,
                               serialize_assignment, serialize_system)
from zwreath.errors import ParseError, PreconditionError, SpecMismatchError
from zwreath.gadgets import delta_blocks, gadget_delta_power, witness_delta_power
from zwreath.laurent import (INFINITY, LaurentPoly, _ordered_monomials, aug_valuation,
                             delta_decompose, delta_generator_product, geom_series,
                             parse_poly)
from zwreath.interp import IteratedSpec
from zwreath.reduction import (IntPolynomial, Reduction, compile, extract_solution,
                               oracle_ef, parse_intpoly, witness)
from zwreath.selftest import (check_oracle, check_reduction_roundtrip,
                              rand_intpoly, rand_nonzero_poly)
from zwreath.wreath import GroupSpec, module_action

S11 = GroupSpec(1, 1)
S21 = GroupSpec(2, 1)


# -- IntPolynomial -----------------------------------------------------------


def test_parse_intpoly_example():
    f = parse_intpoly("z1^2*z2 - 3*z1 + 7")
    assert f.num_vars == 2
    assert f.terms == {(2, 1): 1, (1, 0): -3, (0, 0): 7}
    assert f.degree() == 3
    assert f.evaluate((2, 5)) == 4 * 5 - 6 + 7


def test_parse_intpoly_infers_and_checks_counts():
    assert parse_intpoly("7").num_vars == 0
    assert parse_intpoly("z2", num_vars=3).num_vars == 3
    with pytest.raises(ParseError):
        parse_intpoly("z3", num_vars=2)
    with pytest.raises(ParseError):
        parse_intpoly("z1 ^ -2")
    with pytest.raises(ParseError):
        parse_intpoly("")


def test_intpoly_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        f = rand_intpoly(rng)
        assert parse_intpoly(str(f), num_vars=f.num_vars) == f
    assert str(IntPolynomial(1)) == "0"


@pytest.mark.parametrize("build, message", [
    (lambda: IntPolynomial(-1), "variable count must be a non-negative int, got -1"),
    (lambda: IntPolynomial(1.0), "variable count must be a non-negative int, got 1.0"),
    (lambda: IntPolynomial(2, {(1,): 1}), "exponent vector (1,) invalid for 2 variables"),
    (lambda: IntPolynomial(2, {(1, -1): 1}), "exponent vector (1, -1) invalid for 2 variables"),
    (lambda: IntPolynomial(1, {(0.5,): 1}), "exponent vector (0.5,) invalid for 1 variables"),
    (lambda: IntPolynomial(1, {(-1,): 2.0}), "exponent vector (-1,) invalid for 1 variables"),
    (lambda: IntPolynomial(1, {(1,): 2.0}), "coefficient 2.0 is not an int"),
    (lambda: IntPolynomial(1, {(True,): 1}), "exponent vector (True,) invalid for 1 variables"),
    (lambda: IntPolynomial(1, {(1,): True}), "coefficient True is not an int"),
    (lambda: IntPolynomial(True), "variable count must be a non-negative int, got True"),
])
def test_intpolynomial_rejects_malformed_input(build, message):
    with pytest.raises(PreconditionError) as caught:
        build()
    assert caught.type is PreconditionError and str(caught.value) == message


@given(st.integers(1, 4).flatmap(lambda rank: st.tuples(st.just(rank), st.lists(st.tuples(
    st.tuples(*[st.integers(0, 3)] * rank), st.integers(-3, 3)), max_size=12))))
def test_intpolynomial_and_laurentpoly_share_one_normal_form(case):
    rank, pairs = case
    f = IntPolynomial(rank, pairs)
    assert f.terms == dict(LaurentPoly(rank, pairs).terms)
    assert f.support() == _ordered_monomials(f.terms)


def test_intpolynomial_sums_repeated_exponents_and_drops_zero_sums():
    assert IntPolynomial(1, [((1,), 2), ((1,), -2)]).is_zero()
    f = IntPolynomial(2, [((1, 0), 2), ((0, 0), 0), ((1, 0), -2), ((1, 0), 5), ((0, 1), 1)])
    assert f.terms == {(1, 0): 5, (0, 1): 1}


# -- compile ------------------------------------------------------------------


def test_compile_linear_example_shape():
    f = parse_intpoly("z1 - 2")
    out = compile(f, S11)
    assert out.solution_vars == ("x1",)
    assert f.degree() == 1
    assert out.system.declared_vars == ("x1", "y")
    # y in the base, the 2 chains equal to y's ideal-power chain
    assert len(out.system.equations) == 2


def test_compile_golden_text():
    out = compile(parse_intpoly("z1 - 2"), S11)
    expected = "\n".join([
        "# vars: x1 y",
        "[y, @b1] = 1",
        "[@b1, x1] [@b1^-2, @a1] [@a1, y, @a1] = 1",
    ]) + "\n"
    assert serialize_system(out.system) == expected


def test_compile_system_is_a_text_fixed_point():
    out = compile(parse_intpoly("z1 - 2"), S11)
    text = serialize_system(out.system)
    assert parse_system(text, S11) == out.system
    assert serialize_system(parse_system(text, S11)) == text


def test_compile_zero_polynomial_is_empty():
    out = compile(IntPolynomial(2), S11)
    assert out.system.equations == ()
    assert out.system.declared_vars == ()
    assert out.solution_vars == ()
    assert out.num_vars == 2


def test_compile_constant_polynomial_is_unsatisfiable_at_level_one():
    f = parse_intpoly("7")
    assert f.degree() == 0
    assert compile(f, S11).solution_vars == ()
    e_f, member = oracle_ef(f, ())
    assert e_f == parse_poly("7", 1)
    assert aug_valuation(e_f) == 0
    assert not member


# -- witness ----------------------------------------------------------------------


def carried(y, f):
    """The base coordinates of [y, a1, ..., a1] with d+1 copies of a1: each
    coordinate of y times (a1 - 1)^(d+1).  At a root that is the product of
    the chains, whose first coordinate is e_f."""
    m = y.spec.m
    delta = (LaurentPoly.variable(m, 1) - LaurentPoly.one(m)) ** (f.degree() + 1)
    return tuple(p * delta for p in y.base)


def test_witness_linear_root():
    f = parse_intpoly("z1 - 2")
    out = compile(f, S11)
    asg = witness(f, (2,), S11)
    assert check_system(out.system, asg, S11).ok
    # the carrier coordinate is (a1^2 - 1) - 2(a1 - 1) = (a1 - 1)^2, and y
    # holds its quotient by (a1 - 1)^2
    e_f = carried(asg["y"], f)[0]
    assert e_f == parse_poly("a1 - 1", 1) ** 2
    assert aug_valuation(e_f) == 2
    assert asg["y"] == S11.base_gen(1)


def test_witness_zero_polynomial():
    f = IntPolynomial(1)
    assert witness(f, (5,), S11) == {}
    assert check_system(compile(f, S11).system, {}, S11).ok


def test_witness_product_root():
    f = parse_intpoly("z1*z2 - 6")
    out = compile(f, S11)
    asg = witness(f, (2, 3), S11)
    assert check_system(out.system, asg, S11).ok


def test_witness_over_higher_rank_ambient_group():
    # the compiler only touches a1/b1 but must work inside any Z^n wr Z^m
    f = parse_intpoly("z1^2*z2 - 3")
    spec = GroupSpec(2, 2)
    out = compile(f, spec)
    asg = witness(f, (1, 3), spec)
    assert check_system(out.system, asg, spec).ok
    assert extract_solution(out, asg) == (1, 3)
    e_f, member = oracle_ef(f, (1, 3), rank=spec.m)
    assert member
    assert carried(asg["y"], f) == (e_f, LaurentPoly.zero(spec.m))


def test_flat_witness_makes_no_ring_product(monkeypatch):
    products = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__",
                        lambda p, q: products.append((p, q)) or mul(p, q))
    cases = [("z1*z2 - 6", (2, 3), S11), ("z1 - 2", (2,), S11),
             ("z1^2*z2 - 3", (1, 3), GroupSpec(2, 2)), ("z1 + 30", (-30,), S21)]
    witnesses = [(f, witness(parse_intpoly(f), z, spec), spec) for f, z, spec in cases]
    assert products == []
    monkeypatch.undo()
    for f, asg, spec in witnesses:
        assert check_system(compile(parse_intpoly(f), spec).system, asg, spec).ok


def test_witness_rejects_non_roots():
    f = parse_intpoly("z1 - 2")
    with pytest.raises(PreconditionError, match=r"f\(3\) = 1"):
        witness(f, (3,), S11)


def test_witness_matches_oracle_coordinate():
    rng = random.Random(19)
    for _ in range(25):
        f = rand_intpoly(rng)
        z = tuple(rng.randint(-4, 4) for _ in range(f.num_vars))
        terms = f.terms
        zero = (0,) * f.num_vars
        terms[zero] = terms.get(zero, 0) - f.evaluate(z)
        f = IntPolynomial(f.num_vars, terms)
        if f.is_zero():
            continue
        asg = witness(f, z, S11)
        e_f, member = oracle_ef(f, z, rank=1)
        assert member
        assert carried(asg["y"], f) == (e_f,)


def reference_witness(f, z, spec):
    """The witness built link by link with module actions, independently of
    the system's chains: each chain link multiplies the previous
    coordinates by a1 - 1, a1^{z_i} - 1 or a generator's a_i - 1, and y is
    the quotient of the product of the chains' values by (a1-1)^(d+1).  y
    acted on by a1 - 1, d + 1 times, must give the product back."""
    asg = {f"x{i}": spec.active_gen(1, zi) for i, zi in enumerate(z, start=1)}
    d = f.degree()
    one = LaurentPoly.one(spec.m)
    product = spec.identity()
    for alpha in f.support():
        multipliers = [LaurentPoly.variable(spec.m, 1) - one] * (d - sum(alpha))
        for zi, reps in zip(z, alpha):
            expo = (zi,) + (0,) * (spec.m - 1)
            multipliers += [LaurentPoly.monomial(spec.m, expo) - one] * reps
        cur = spec.base_gen(1, power=f.terms[alpha])
        for p in multipliers:
            cur = module_action(cur, p)
        product = product * cur
    k = d + 1
    beta = (k,) + (0,) * (spec.m - 1)
    cur = spec.element(base={j: delta_decompose(p, k)[beta]
                             for j, p in enumerate(product.base, start=1) if not p.is_zero()})
    asg["y"] = cur
    for _ in range(k):
        cur = module_action(cur, LaurentPoly.variable(spec.m, 1) - one)
    assert cur == product
    return asg


def reference_delta_power(g, k):
    spec = g.spec
    fragment = {}
    decomposed = [delta_decompose(p, k) for p in g.base]
    for bl in delta_blocks(spec, k):
        cur = spec.element(base={
            j + 1: parts[bl.beta] for j, parts in enumerate(decomposed) if bl.beta in parts})
        fragment[bl.y_name] = cur
        for i, reps in enumerate(bl.beta):
            unit = tuple(int(v == i) for v in range(spec.m))
            for _ in range(reps):
                cur = module_action(cur, delta_generator_product(unit, spec.m))
        fragment[bl.x_name] = cur
    return fragment


def test_witness_matches_module_action_reference():
    rng = random.Random(61)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            spec = GroupSpec(m, n)
            for _ in range(4):
                f = rand_intpoly(rng)
                z = tuple(rng.randint(-4, 4) for _ in range(f.num_vars))
                terms = f.terms
                zero = (0,) * f.num_vars
                terms[zero] = terms.get(zero, 0) - f.evaluate(z)
                f = IntPolynomial(f.num_vars, terms)
                if f.is_zero():
                    continue
                asg = witness(f, z, spec)
                assert list(asg.items()) == list(reference_witness(f, z, spec).items())
            # A root's y fills only the (k, 0, ..., 0) block; a random member
            # of the k-th ideal power fills the others too.
            k = rng.randint(1, 4)
            coords = {}
            for j in range(1, n + 1):
                poly = LaurentPoly.zero(m)
                for _ in range(3):
                    beta = [0] * m
                    for _ in range(k):
                        beta[rng.randrange(m)] += 1
                    poly = poly + delta_generator_product(tuple(beta), m) * LaurentPoly(
                        m, {tuple(rng.randint(-2, 2) for _ in range(m)): rng.randint(-5, 5)})
                coords[j] = poly
            g = spec.element(base=coords)
            assert (list(witness_delta_power(g, k).items())
                    == list(reference_delta_power(g, k).items()))


@pytest.mark.parametrize("spec", [S21, IteratedSpec((1, 1, 2)), IteratedSpec((1,) * 7 + (2,))],
                         ids=["flat", "depth-3", "depth-8"])
def test_chains_are_built_once_per_reduction(monkeypatch, spec):
    # `compile` builds the chain words for the system, one per support term,
    # and two for [y, b1] = 1 and the ideal-power constraint; the witness of
    # the same reduction evaluates the chains and builds none, over a tower
    # too, whose lift builds its brackets in `equations`.
    built = []
    real = reduction.Commutator

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(reduction, "Commutator", counting)
    f = parse_intpoly("z1^2*z2 - 4*z1")
    r = compile(f, spec)
    assert len(built) == 2 + 2
    assert check_system(r.system, r.witness((2, 2)), spec).ok
    assert len(built) == 2 + 2


def test_every_variable_of_a_wide_flat_solution_is_pinned():
    """Over Z^2 wr Z^3 the root has one solution up to the base parts of the
    x_i: the active parts of the x_i fix the product of the chains, and
    multiplication by (a1-1)^3 is injective on Z[A], so the product fixes
    y.  Moving y by any generator, or an x_i by any active generator,
    breaks an equation that names it.  Moving an x_i by a base generator
    breaks none: the chains start at base elements, so they read only the
    active part of an x_i.  The system gives that freedom up on purpose,
    for 2 equations in place of s + 2, and the moved assignment still
    extracts the root."""
    f = parse_intpoly("z1*z2 - 6")
    spec = GroupSpec(3, 2)
    out = compile(f, spec)
    asg = witness(f, (2, 3), spec)
    assert check_system(out.system, asg, spec).ok
    assert extract_solution(out, asg) == (2, 3)
    assert out.system.declared_vars[-1] == "y"
    bases = [spec.base_gen(j) for j in range(1, spec.n + 1)]
    actives = [spec.active_gen(i) for i in range(1, spec.m + 1)]
    for name in out.system.declared_vars:
        for g in actives + (bases if name == "y" else []):
            report = check_system(out.system, {**asg, name: asg[name] * g}, spec)
            assert not report.ok, (name, g)
            for idx in report.failures:
                assert name in free_vars(out.system.equations[idx])
    for name in out.solution_vars:
        for g in bases:
            moved = {**asg, name: asg[name] * g}
            assert check_system(out.system, moved, spec).ok
            assert extract_solution(out, moved) == (2, 3)


def test_system_size_is_closed_form_for_every_active_rank():
    # [y, b1] = 1 and one ideal-power block holding the product of the
    # chains, whatever the number of support terms and the ranks are: 2
    # equations and s + 1 variables, in a text that is the same over every
    # Z^n wr Z^m.
    rng = random.Random(67)
    for m in range(1, 7):
        for _ in range(8):
            f = rand_intpoly(rng)
            if f.is_zero():
                continue
            system = compile(f, GroupSpec(m, rng.randint(1, 2))).system
            assert len(system.equations) == 2
            assert len(system.declared_vars) == f.num_vars + 1
            assert serialize_system(system) == serialize_system(compile(f, S11).system)
    assert len(compile(parse_intpoly("z1^12 - 4096"), GroupSpec(6, 1)).system.equations) == 2
    assert len(compile(parse_intpoly("z1^12 - 4096"), GroupSpec(1, 6)).system.equations) == 2


def all_blocks_system(r):
    """`prod` defined as the product of the chains, and all C(d+m, m-1)
    blocks of `gadget_delta_power` for `prod` in place of the one
    ideal-power block and [y, b1] = 1 of `r.system`."""
    blocks = gadget_delta_power("prod", r.poly.degree() + 1, r.spec)
    return System((*r.system.equations[:-2], equation(concat(*r._chains), Literal("prod")),
                   *blocks.equations), r.solution_vars + blocks.declared_vars)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(1, 2).flatmap(lambda s: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * s), st.integers(-3, 3), max_size=3),
    st.tuples(*[st.integers(-3, 3)] * s), st.booleans())))
def test_one_block_and_all_blocks_accept_the_same_roots(m, n, case):
    terms, z, plant = case
    spec = GroupSpec(m, n)
    f = IntPolynomial(len(z), terms)
    if plant:
        f = IntPolynomial(len(z), list(terms.items()) + [((0,) * len(z), -f.evaluate(z))])
    assume(not f.is_zero())
    r = Reduction(f, spec)
    asg = {x: spec.active_gen(1, zi) for x, zi in zip(r.solution_vars, z)}
    product = asg["prod"] = evaluate(concat(*r._chains), asg, spec)
    k = f.degree() + 1
    beta = (k,) + (0,) * (m - 1)
    try:
        quotients = [delta_decompose(p, k) for p in product.base]
        one_block = all(set(parts) <= {beta} for parts in quotients)
    except PreconditionError:
        one_block = False
    try:
        all_blocks = witness_delta_power(product, k)
    except PreconditionError:
        all_blocks = None
    assert one_block == (all_blocks is not None) == (f.evaluate(z) == 0)
    head = all_blocks_system(r)
    if m == 1:
        # One block, prod = dp_x_1, [dp_y_1, b1] = 1 and dp_x_1 = [dp_y_1,
        # a1, ..., a1]; the reduction names dp_y_1 y and writes prod as the
        # chains and dp_x_1 as the inverse of [a1, y, a1, ..., a1].
        a1, b1 = Constant(spec.generator(1, 1)), Constant(spec.generator(2, 1))
        q, y = Literal("dp_y_1"), Literal("y")
        assert head.equations[-3:] == (equation(Literal("prod"), Literal("dp_x_1")),
                                       equation(Commutator(q, b1)),
                                       equation(Literal("dp_x_1"), Commutator(q, *[a1] * k)))
        assert r.system.equations[-2:] == (
            equation(Commutator(y, b1)),
            equation(concat(*r._chains, Commutator(a1, y, *[a1] * (k - 1)))))
    if not one_block:
        return
    new = r.witness(z)
    assert check_system(r.system, new, spec).ok
    if m == 1:
        assert all_blocks["dp_y_1"] == new["y"]
    assert check_system(head, {**asg, **all_blocks}, spec).ok
    assert extract_solution(r, new) == extract_solution(r, {**asg, **all_blocks}) == z


def candidate_witness(r, z):
    """What `r.witness` builds from z, a root or not: each x_i = a1^{z_i}
    and y the quotient by (a1-1)^(d+1) of e_f - f(z) (a1-1)^d, which is the
    product of the chains itself at a root."""
    spec, f = r.spec, r.poly
    asg = {x: spec.active_gen(1, zi) for x, zi in zip(r.solution_vars, z)}
    product = evaluate(concat(*r._chains), asg, spec)
    d = f.degree()
    shifted = product.base[0] - LaurentPoly.constant(spec.m, f.evaluate(z)) * (
        LaurentPoly.variable(spec.m, 1) - LaurentPoly.one(spec.m)) ** d
    quotient = delta_decompose(shifted, d + 1).get((d + 1,) + (0,) * (spec.m - 1))
    asg["y"] = spec.element(base={1: quotient} if quotient else {})
    return asg


def product_layout(r, asg):
    """The system and the assignment of the layout `r.system` replaced,
    rebuilt from `r._chains`: y the product of the chains, the quotient
    dp_y_1 in the base, and y = [dp_y_1, a1, ..., a1], with dp_y_1 taking
    the new y's value."""
    spec = r.spec
    a1 = Constant(spec.generator(1, 1))
    q, y = Literal("dp_y_1"), Literal("y")
    equations = (*r.system.equations[:-2], equation(concat(*r._chains), y),
                 equation(Commutator(q, Constant(spec.generator(2, 1)))),
                 equation(Commutator(q, *[a1] * (r.poly.degree() + 1)), y))
    declared = r.system.declared_vars[:-1] + ("y", "dp_y_1")
    values = {name: value for name, value in asg.items() if name != "y"}
    values["y"] = evaluate(concat(*r._chains), asg, spec)
    values["dp_y_1"] = asg["y"]
    return System(equations, declared), values


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(1, 2).flatmap(lambda s: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * s), st.integers(-3, 3), max_size=3),
    st.tuples(*[st.integers(-3, 3)] * s), st.booleans())))
def test_merged_layout_agrees_with_the_product_layout(m, n, case):
    # The system is the product layout with y replaced by its word and
    # dp_y_1 renamed y: the witness satisfies it exactly at a root, and
    # there the former witness without its y, and with dp_y_1 renamed y, is
    # the witness.
    terms, z, plant = case
    spec = GroupSpec(m, n)
    f = IntPolynomial(len(z), terms)
    if plant:
        f = IntPolynomial(len(z), list(terms.items()) + [((0,) * len(z), -f.evaluate(z))])
    assume(not f.is_zero())
    r = Reduction(f, spec)
    is_root = f.evaluate(z) == 0
    asg = candidate_witness(r, z)
    # No equation names an x_i alone.
    assert len(r.system.equations) == 2
    assert len(r.system.declared_vars) == len(z) + 1
    assert check_system(r.system, asg, spec).ok == is_root
    old_system, old_asg = product_layout(r, asg)
    assert len(old_system.equations) == 3
    assert check_system(old_system, old_asg, spec).ok == is_root
    if not is_root:
        with pytest.raises(PreconditionError, match="not a root"):
            r.witness(z)
        return
    assert r.witness(z) == asg
    renamed = [("y" if name == "dp_y_1" else name, value)
               for name, value in old_asg.items() if name != "y"]
    assert renamed == list(asg.items())
    assert extract_solution(r, asg) == extract_solution(r, old_asg) == z
    # y moved by b1 leaves it in the base and breaks exactly the merged
    # equation; moved by a1 it leaves the base, which [y, b1] = 1 sees.
    merged = len(r.system.equations) - 1
    moved = {**asg, "y": asg["y"] * spec.base_gen(1)}
    assert check_system(r.system, moved, spec).failures == (merged,)
    moved = {**asg, "y": asg["y"] * spec.active_gen(1)}
    assert check_system(r.system, moved, spec).failures[0] == merged - 1


# -- extraction ----------------------------------------------------------------------


def test_extract_round_trip():
    f = parse_intpoly("z1 - 2")
    out = compile(f, S11)
    assert extract_solution(out, witness(f, (2,), S11)) == (2,)


@pytest.mark.parametrize("spec", [S11, S21])
def test_high_degree_root_round_trip_holds_its_long_coordinates_as_rows(spec):
    # z1^300 - 2^300 at z = 2: the product of the chains (451 terms) and its
    # quotient y (300 terms) are dense coordinates in a1 alone, so rows, and
    # the products, inverses and decomposition that build them take rows as
    # operands.
    f = parse_intpoly(f"z1^300 - {2 ** 300}")
    out = compile(f, spec)
    asg = witness(f, (2,), spec)
    assert check_system(out.system, asg, spec).ok
    assert asg["y"].base[0]._row is not None
    product = evaluate(concat(*out._chains), asg, spec)
    assert len(product.base[0].terms) == 451 and product.base[0]._row is not None
    back = parse_assignment(serialize_assignment(asg), spec)
    assert back == asg
    assert extract_solution(out, back) == (2,)


def test_extract_identity_is_zero():
    out = compile(parse_intpoly("z1 - 2"), S11)
    asg = {"x1": S11.identity()}
    assert extract_solution(out, asg) == (0,)


def test_any_satisfying_assignment_over_1_1_extracts_a_root():
    # Over Z wr Z no equation reads an x_i's base part.  Try every x_i =
    # a1^c times a base part, with y the quotient of the product of the
    # chains by (a1-1)^(d+1) wherever one exists: an assignment satisfies
    # the system exactly when c is a root, whatever base part x_1 carries,
    # and it then extracts that root, whatever stale or unrelated values
    # ride along.
    f = parse_intpoly("z1^2*z2 - 4*z2")
    r = compile(f, S11)
    k = f.degree() + 1
    noise = [S11.identity(), S11.base_gen(1), S11.element(base={1: parse_poly("a1^-2 - 3", 1)})]
    satisfied = []
    for c1 in range(-3, 4):
        for c2 in (-1, 2):
            for part in noise:
                asg = {"x1": S11.active_gen(1, c1) * part, "x2": S11.active_gen(1, c2)}
                product = evaluate(concat(*r._chains), asg, S11)
                try:
                    asg["y"] = S11.element(base={
                        j: delta_decompose(p, k)[(k,)]
                        for j, p in enumerate(product.base, start=1) if not p.is_zero()})
                except (PreconditionError, KeyError):
                    asg["y"] = S11.identity()
                # What the three-equation cyclic gadget assigned to cyc_z_1.
                asg["cyc_z_1"] = S11.element(base={1: geom_series(c1, 1)})
                asg["t"] = S11.base_gen(1, 7)
                if check_system(r.system, asg, S11).ok:
                    satisfied.append((c1, c2))
                    assert extract_solution(r, asg) == (c1, c2)
                    assert f.evaluate((c1, c2)) == 0
    assert satisfied == [c for c in [(-2, -1), (-2, 2), (2, -1), (2, 2)] for _ in noise]


def a1_quotient(p, k):
    """p / (a1-1)^k in Z[A], or None where (a1-1)^k does not divide p.

    `delta_decompose` splits along the last variable first, and a multiple
    of (a_v - 1)^k has every restriction of that split zero; so with a1
    moved last, p is such a multiple iff its decomposition is the one block
    (0, ..., 0, k), whose part is the quotient."""
    m = p.rank
    try:
        parts = delta_decompose(LaurentPoly(m, {e[1:] + e[:1]: c for e, c in p.terms.items()}), k)
    except PreconditionError:
        return None
    top = (0,) * (m - 1) + (k,)
    if set(parts) - {top}:
        return None
    quotient = parts.get(top, LaurentPoly.zero(m))
    return LaurentPoly(m, {e[-1:] + e[:-1]: c for e, c in quotient.terms.items()})


def with_quotient_y(r, asg):
    """`asg` with y the quotient of the product of `r`'s chains at its x_i
    by (a1-1)^(d+1), coordinate by coordinate, where every coordinate has
    one, else with y the identity."""
    product = evaluate(concat(*r._chains), asg, r.spec)
    quotients = {j: a1_quotient(p, r.poly.degree() + 1)
                 for j, p in enumerate(product.base, start=1)}
    if None in quotients.values():
        return {**asg, "y": r.spec.identity()}
    return {**asg, "y": r.spec.element(base=quotients)}


def test_a1_quotient_divides_exactly():
    q = parse_poly("a2^-1 + 3*a1*a2^2 - 5*a1^-2", 2)
    cube = (LaurentPoly.variable(2, 1) - LaurentPoly.one(2)) ** 3
    assert a1_quotient(q * cube, 3) == q
    assert a1_quotient(q * cube, 4) is None
    assert a1_quotient(q * cube * (LaurentPoly.variable(2, 2) - LaurentPoly.one(2)), 3) is not None
    assert a1_quotient(LaurentPoly.variable(2, 2) - LaurentPoly.one(2), 1) is None


LEGACY_ACTING = Path(__file__).parent / "golden" / "legacy" / "acting"


def acting_layout(r):
    """The layout `r.system` replaced: one equation [x_i, a1] = 1 per
    solution variable, which put x_i in the acting subgroup, before
    `r.system`'s two equations, over the same variables."""
    a1 = Constant(r.spec.generator(1, 1))
    return System((*[equation(Commutator(Literal(x), a1)) for x in r.solution_vars],
                   *r.system.equations), r.system.declared_vars)


@pytest.mark.parametrize("stem, poly, spec", [
    ("product_1-1", "z1*z2 - 6", S11), ("product_2-3", "z1*z2 - 6", GroupSpec(3, 2)),
    ("negative_2-1", "z1^2 + 3*z1 + 2", GroupSpec(1, 2))],
    ids=["product_1-1", "product_2-3", "negative_2-1"])
def test_acting_layout_is_the_legacy_golden_system(stem, poly, spec):
    text = (LEGACY_ACTING / f"{stem}.eqs").read_text(encoding="utf-8")
    assert serialize_system(acting_layout(compile(parse_intpoly(poly), spec))) == text


@pytest.mark.parametrize("spec", [GroupSpec(1, 1), GroupSpec(1, 2), GroupSpec(2, 1),
                                  GroupSpec(2, 2), GroupSpec(3, 2)],
                         ids=["1-1", "1-2", "2-1", "2-2", "3-2"])
def test_any_satisfying_assignment_with_base_parts_extracts_a_root(spec):
    # No equation pins the a2..am exponents of an x_i, nor its base part.
    # Try every a1 exponent c_i in -3..3, each x_i with a random a2..am
    # tail or none, times a random base part on a random side half the
    # time, with y the quotient of the product of the chains by (a1-1)^(d+1)
    # wherever one exists.  Every assignment that satisfies the system
    # extracts a root, and some have nonzero tails (at m >= 2) or base
    # parts.  The former layout, with [x_i, a1] = 1 (the systems under
    # tests/golden/legacy/acting/), fails each one that gives some x_i a
    # base part exactly at those x_i's equations, and holds on the rest.
    rng = random.Random(spec.m * 10 + spec.n)
    satisfied = with_parts = with_tails = 0
    for text in ("z1*z2", "z1*z2 - 6", "z1^2*z2 - 4*z2", "z1^2 - z2^2", "z1 - 2",
                 "z1^2 + 3*z1 + 2", "z1*z2 + z2", "z1^3 - z2^3", "z1^2 - 4"):
        f = parse_intpoly(text)
        r = compile(f, spec)
        old = acting_layout(r)
        for c in itertools.product(range(-3, 4), repeat=f.num_vars):
            values, based, tails = {}, [], []
            for idx, (x, ci) in enumerate(zip(r.solution_vars, c)):
                tail = tuple(rng.randint(-3, 3) for _ in range(spec.m - 1))
                tails.append(rng.choice((tail, (0,) * (spec.m - 1))))
                g = spec.element(active=(ci,) + tails[-1])
                if rng.random() < 0.5:
                    part = spec.element(base={rng.randint(1, spec.n): rand_nonzero_poly(rng, spec.m)})
                    g = g * part if rng.random() < 0.5 else part * g
                    based.append(idx)
                values[x] = g
            asg = with_quotient_y(r, values)
            if check_system(r.system, asg, spec).ok:
                satisfied += 1
                with_parts += bool(based)
                with_tails += any(map(any, tails))
                assert f.evaluate(c) == 0 and extract_solution(r, asg) == c
                assert check_system(old, asg, spec).failures == tuple(based)
    assert with_parts > 0 and satisfied > with_parts and (with_tails > 0) == (spec.m > 1)
    if spec.m > 1:
        # z1*z2 at x1 = a1^-2 a2^5 and x2 = 1: the chain [b1, x1, x2] is 1,
        # so y = 1 solves the system, and the tail of x1 is read past.
        r = compile(parse_intpoly("z1*z2"), spec)
        asg = {"x1": spec.element(active=(-2, 5) + (0,) * (spec.m - 2)),
               "x2": spec.identity(), "y": spec.identity()}
        assert check_system(r.system, asg, spec).ok
        assert extract_solution(r, asg) == (-2, 0)


def test_extract_reads_a1_whatever_the_base_part():
    # z_i is the a1 exponent of x_i, whatever its a2..am exponents and its
    # base part: no equation of the system reads either.
    out = compile(parse_intpoly("z1 - 2"), S21)
    assert extract_solution(out, {"x1": S21.active_gen(2)}) == (0,)
    assert extract_solution(out, {"x1": S21.element(active=(-4, 7))}) == (-4,)
    assert extract_solution(out, {"x1": S21.base_gen(1)}) == (0,)
    assert extract_solution(out, {"x1": S21.base_gen(1, 5) * S21.element(active=(3, -1))}) == (3,)


def test_extract_zero_polynomial_defaults_to_zeros():
    out = compile(IntPolynomial(3), S11)
    assert extract_solution(out, {}) == (0, 0, 0)


def test_extract_rejects_a_value_from_another_group():
    out = compile(parse_intpoly("z1 - 7"), S11)
    # a1^7 of Z wr Z^2 is no element of Z wr Z, though its first coordinate is 7.
    with pytest.raises(SpecMismatchError, match="x1"):
        extract_solution(out, {"x1": S21.active_gen(1, power=7)})
    depth_three = IteratedSpec((1, 1, 1)).embed(S11.active_gen(1, power=7))
    with pytest.raises(SpecMismatchError, match="x1"):
        extract_solution(out, {"x1": depth_three})


def test_one_reduction_round_trips_over_a_tower():
    tower = IteratedSpec((1, 1, 1))
    f = parse_intpoly("z1 - 2")
    out = compile(f, tower)
    asg = witness(f, (2,), tower)
    assert all(value.spec == tower for value in asg.values())
    assert check_system(out.system, asg, tower).ok
    assert extract_solution(out, asg) == (2,)
    assert Reduction(IntPolynomial(1), tower).extract_solution({}) == (0,)


def test_a_reduction_needs_a_flat_or_an_iterated_spec():
    f = parse_intpoly("z1 - 2")
    for spec in ("1,1", (1, 1, 1), None):
        calls = [lambda: compile(f, spec), lambda: witness(f, (2,), spec),
                 lambda: Reduction(f, spec).extract_solution({"x1": S11.active_gen(1, 2)}),
                 lambda: Reduction(IntPolynomial(1), spec).system]
        for call in calls:
            with pytest.raises(PreconditionError, match="GroupSpec or an IteratedSpec"):
                call()


# -- oracle ------------------------------------------------------------------------


def test_oracle_non_root():
    f = parse_intpoly("z1 - 2")
    e_f, member = oracle_ef(f, (3,))
    assert e_f == parse_poly("a1^3 - 2*a1 + 1", 1)
    assert aug_valuation(e_f) == 1
    assert not member


def test_oracle_root():
    f = parse_intpoly("z1 - 2")
    e_f, member = oracle_ef(f, (2,))
    assert member
    assert e_f == parse_poly("a1 - 1", 1) ** 2


def test_oracle_zero_polynomial():
    e_f, member = oracle_ef(IntPolynomial(1), (9,))
    assert e_f.is_zero() and member
    assert aug_valuation(e_f) == INFINITY


def test_oracle_equivalence_random():
    failures = check_oracle(random.Random(41), 300)
    assert failures == []


def test_roundtrip_random():
    failures = check_reduction_roundtrip(random.Random(43), 40)
    assert failures == []
