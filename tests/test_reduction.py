import random

import pytest

from zwreath.equations import check_system, parse_system, serialize_system
from zwreath.errors import ParseError, PreconditionError
from zwreath.laurent import INFINITY, aug_valuation, parse_poly
from zwreath.reduction import (IntPolynomial, compile, extract_solution,
                               intpoly_str, oracle_ef, parse_intpoly, witness)
from zwreath.selftest import (check_oracle, check_reduction_roundtrip,
                              rand_intpoly)
from zwreath.wreath import GroupSpec

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
        assert parse_intpoly(intpoly_str(f), num_vars=f.num_vars) == f
    assert intpoly_str(IntPolynomial(1)) == "0"


# -- compile ------------------------------------------------------------------


def test_compile_linear_example_shape():
    f = parse_intpoly("z1 - 2")
    out = compile(f, S11)
    assert out.solution_vars == ("x1",)
    assert out.d == 1
    assert out.product_var == "y"
    assert out.system.declared_vars == (
        "x1", "cyc_z_1", "y_1", "y_0", "y", "dp_x_1", "dp_y_1", "dp_c_1_1")
    # 3 cyclic + 2 chains + product + 4 ideal-power equations
    assert len(out.system.equations) == 10


def test_compile_golden_text():
    out = compile(parse_intpoly("z1 - 2"), S11)
    expected = "\n".join([
        "# vars: x1 cyc_z_1 y_1 y_0 y dp_x_1 dp_y_1 dp_c_1_1",
        "[x1, @a1] = 1",
        "[cyc_z_1, @b1] = 1",
        "[@b1, x1] [@a1, cyc_z_1] = 1",
        "y_1 [x1, @b1] = 1",
        "y_0 [@a1, @b1^-2] = 1",
        "y y_0^-1 y_1^-1 = 1",
        "y dp_x_1^-1 = 1",
        "[dp_y_1, @b1] = 1",
        "dp_c_1_1 [@a1, dp_y_1] = 1",
        "dp_x_1 [@a1, dp_c_1_1] = 1",
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
    out = compile(f, S11)
    assert out.d == 0
    e_f, member = oracle_ef(f, ())
    assert e_f == parse_poly("7", 1)
    assert aug_valuation(e_f) == 0
    assert not member


# -- witness ----------------------------------------------------------------------


def test_witness_linear_root():
    f = parse_intpoly("z1 - 2")
    out = compile(f, S11)
    asg = witness(f, (2,), S11)
    assert check_system(out.system, asg, S11).ok
    # the carrier coordinate is (a1^2 - 1) - 2(a1 - 1) = (a1 - 1)^2
    e_f = asg["y"].base[0]
    assert e_f == parse_poly("a1 - 1", 1) ** 2
    assert aug_valuation(e_f) == 2


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
    assert asg["y"].base[0] == e_f
    assert asg["y"].base[1].is_zero()


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
        assert asg["y"].base[0] == e_f


# -- extraction ----------------------------------------------------------------------


def test_extract_round_trip():
    f = parse_intpoly("z1 - 2")
    out = compile(f, S11)
    assert extract_solution(out, witness(f, (2,), S11)) == (2,)


def test_extract_identity_is_zero():
    out = compile(parse_intpoly("z1 - 2"), S11)
    asg = {"x1": S11.identity()}
    assert extract_solution(out, asg) == (0,)


def test_extract_rejects_foreign_generators():
    out = compile(parse_intpoly("z1 - 2"), S21)
    with pytest.raises(PreconditionError, match="x1"):
        extract_solution(out, {"x1": S21.active_gen(2)})
    with pytest.raises(PreconditionError, match="x1"):
        extract_solution(out, {"x1": S21.base_gen(1)})


def test_extract_zero_polynomial_defaults_to_zeros():
    out = compile(IntPolynomial(3), S11)
    assert extract_solution(out, {}) == (0, 0, 0)


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
