import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from zwreath.equations import System, check_system
from zwreath.errors import PreconditionError
from zwreath.gadgets import (delta_blocks, gadget_cyclic, gadget_delta_power,
                             gadget_in_A, gadget_in_N, witness_cyclic,
                             witness_delta_power)
from zwreath.interp import IteratedSpec
from zwreath.laurent import LaurentPoly, delta_generator_product, parse_poly
from zwreath import selftest
from zwreath.selftest import check_gadget_cyclic, rand_base_element, run_suite
from zwreath.wreath import GroupSpec, in_delta_power, module_action

S11 = GroupSpec(1, 1)
S12 = GroupSpec(1, 2)
S21 = GroupSpec(2, 1)
S22 = GroupSpec(2, 2)


# -- base/active membership gadgets -------------------------------------------


def test_in_N_satisfied_by_base_elements():
    system = gadget_in_N("x", S12)
    assert check_system(system, {"x": S12.element(base={2: parse_poly("a1^2", 1)})}, S12).ok
    assert check_system(system, {"x": S12.identity()}, S12).ok


def test_in_N_violated_by_active_elements():
    system = gadget_in_N("x", S11)
    assert not check_system(system, {"x": S11.active_gen(1)}, S11).ok


def test_in_A_satisfied_by_active_elements():
    system = gadget_in_A("x", S22)
    assert check_system(system, {"x": S22.active_gen(2)}, S22).ok
    assert check_system(system, {"x": S22.identity()}, S22).ok


def test_in_A_violated_by_base_generator():
    system = gadget_in_A("x", S22)
    assert not check_system(system, {"x": S22.base_gen(1)}, S22).ok


# -- cyclic-subgroup gadget -------------------------------------------------------


def test_cyclic_gadget_structure():
    # At m = 1 the gadget is [x, a1] = 1 alone; at m >= 2 it has three
    # equations and the auxiliary cyc_z_1.
    system = gadget_cyclic("x", S11)
    assert system == gadget_in_A("x", S11)
    assert system.declared_vars == ("x",)
    assert len(system.equations) == 1
    system = gadget_cyclic("x", S21)
    assert system.declared_vars == ("x", "cyc_z_1")
    assert len(system.equations) == 3


def test_cyclic_witness_positive_power():
    asg = witness_cyclic(3, S11)
    assert asg == {"x": S11.element(active=(3,))}
    assert check_system(gadget_cyclic("x", S11), asg, S11).ok
    system = gadget_cyclic("x", S21)
    asg = witness_cyclic(3, S21)
    assert asg["x"] == S21.element(active=(3, 0))
    assert asg["cyc_z_1"] == S21.element(base={1: parse_poly("1 + a1 + a1^2", 2)})
    assert check_system(system, asg, S21).ok


def test_cyclic_witness_identity():
    for spec in (S11, S21):
        asg = witness_cyclic(0, spec)
        assert all(value.is_identity() for value in asg.values())
        assert check_system(gadget_cyclic("x", spec), asg, spec).ok


def test_cyclic_witness_gamma_one():
    assert witness_cyclic(1, S11) == {"x": S11.active_gen(1)}
    assert witness_cyclic(1, S21)["cyc_z_1"] == S21.base_gen(1)


def test_cyclic_witness_negative_power():
    assert witness_cyclic(-2, S11) == {"x": S11.active_gen(1, -2)}
    system = gadget_cyclic("x", S21)
    asg = witness_cyclic(-2, S21)
    assert asg["cyc_z_1"] == S21.element(base={1: parse_poly("-a1^-1 - a1^-2", 2)})
    assert check_system(system, asg, S21).ok
    # direct evaluation of the defining equality [b1, x] = [z, a1]
    lhs = S21.base_gen(1).commutator(asg["x"])
    rhs = asg["cyc_z_1"].commutator(S21.active_gen(1))
    assert lhs == rhs


def test_cyclic_witness_at_m1_is_one_generator_whatever_gamma():
    # No geometric series: the fragment for a1^(10^6) is the one generator.
    asg = witness_cyclic(10 ** 6, S12, x_name="x3", z_name="cyc_z_3")
    assert asg == {"x3": S12.element(active=(10 ** 6,))}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(-5, 5),
    st.dictionaries(st.integers(1, n), st.dictionaries(
        st.integers(-4, 4), st.integers(-3, 3).filter(bool), max_size=3), max_size=n))))
def test_at_m1_commuting_with_a1_means_no_base_part(case):
    # Over Z^n wr Z, x = (alpha, p) commutes with a1 iff p (a1 - 1) = 0, and
    # Z[a1^+-1] has no zero divisors: [x, a1] = 1 holds iff p = 0.
    n, alpha, coords = case
    spec = GroupSpec(1, n)
    x = spec.element(active=(alpha,), base={
        j: LaurentPoly(1, {(e,): c for e, c in terms.items()}) for j, terms in coords.items()})
    holds = check_system(gadget_cyclic("x", spec), {"x": x}, spec).ok
    assert holds == all(p.is_zero() for p in x.base)
    assert holds == (x == spec.active_gen(1, alpha))


def _nonzero_at_a1_equal_1(p):
    """Whether p(a1 := 1) is nonzero, that is, a1 - 1 does not divide p."""
    restricted = {}
    for expo, coeff in p.terms.items():
        restricted[expo[1:]] = restricted.get(expo[1:], 0) + coeff
    return any(restricted.values())


def test_at_m2_commuting_with_a1_is_not_enough():
    # Over Z wr Z^2 the centralizer of a1 is all of A: x = a2 and x = a1 a2
    # satisfy [x, a1] = 1, but not the three-equation gadget.  Its third
    # equation [b1, x] = [z, a1] asks, for z in the base, that the b1
    # coordinate of [b1, x] be (a1 - 1) times z's; that coordinate is
    # a nonzero multiple of a2 - 1 at a1 = 1, so no z exists.
    system = gadget_cyclic("x", S21)
    rng = random.Random(3)
    candidates = [S21.identity(), S21.base_gen(1), S21.active_gen(1)] + [
        rand_base_element(rng, S21) for _ in range(20)]
    for x in (S21.active_gen(2), S21.active_gen(1) * S21.active_gen(2)):
        assert check_system(gadget_in_A("x", S21), {"x": x}, S21).ok
        assert _nonzero_at_a1_equal_1(S21.base_gen(1).commutator(x).base[0])
        for z_val in candidates:
            assert not check_system(system, {"x": x, "cyc_z_1": z_val}, S21).ok


def test_cyclic_witnesses_over_a_range():
    system = gadget_cyclic("x", S21)
    for gamma in range(-20, 21):
        asg = witness_cyclic(gamma, S21)
        assert check_system(system, asg, S21).ok


def test_cyclic_refutation_for_independent_generator():
    # x = a2 forces a coordinate equation Q * (a1 - 1) = a2 - 1, impossible
    # because a2 - 1 is not divisible by a1 - 1 (setting a1 := 1 leaves it
    # nonzero), and satisfying values x produced by this artifact are powers of a1:
    for gamma in (-3, 0, 5):
        asg = witness_cyclic(gamma, S21)
        x = asg["x"]
        assert x.active[1] == 0 and all(p.is_zero() for p in x.base)


def test_cyclic_gadget_rejects_non_powers():
    system = gadget_cyclic("x", S21)
    # z would have to solve [b1, a2] = [z, a1]; no group element does, and in
    # particular the geometric-series witness shape fails.
    for z_val in [S21.identity(), S21.base_gen(1), rand_base_element(random.Random(1), S21)]:
        asg = {"x": S21.active_gen(2), "cyc_z_1": z_val}
        assert not check_system(system, asg, S21).ok


def test_selftest_cyclic_suite_catches_a_weak_gadget_at_either_rank(monkeypatch):
    # The suite samples m = 1 and m = 2 and tries outsiders on each.  With
    # [x, a1] = 1 alone at m = 2 too, a power of a2 times a1^gamma gets
    # through; with no equation at m = 1, an element with a base part does.
    assert run_suite("gadget-cyclic", check_gadget_cyclic, 60) == []
    for weak_at, weak in ((2, gadget_in_A), (1, lambda x, spec: System((), (x,)))):
        monkeypatch.setattr(selftest, "gadget_cyclic", lambda x, spec, weak_at=weak_at, weak=weak:
                            weak(x, spec) if spec.m == weak_at else gadget_cyclic(x, spec))
        failures = run_suite("gadget-cyclic", check_gadget_cyclic, 60)
        assert failures and all(f"m={weak_at}: " in failure and failure.endswith(" accepted")
                                for failure in failures)


# -- ideal-power gadget --------------------------------------------------------------


def test_delta_gadget_structure_k1_m1():
    system = gadget_delta_power("x", 1, S11)
    assert system.declared_vars == ("x", "dp_x_1", "dp_y_1")
    # x = x_1, [y_1, b1] = 1, x_1 = [y_1, a1]
    assert len(system.equations) == 3


def test_delta_gadget_block_count():
    assert len(delta_blocks(S21, 3)) == 4  # (0,3), (1,2), (2,1), (3,0)


def test_delta_blocks_match_filtered_product():
    for m in range(1, 6):
        for k in range(1, 7):
            blocks = delta_blocks(GroupSpec(m, 1), k)
            filtered = [b for b in itertools.product(range(k + 1), repeat=m) if sum(b) == k]
            assert [bl.beta for bl in blocks] == filtered
            assert len(blocks) == math.comb(k + m - 1, m - 1)
            assert [bl.y_name for bl in blocks] == [f"dp_y_{i}" for i in range(1, len(blocks) + 1)]


def test_delta_gadget_identity_witness():
    system = gadget_delta_power("x", 2, S21)
    asg = {"x": S21.identity()}
    asg.update(witness_delta_power(S21.identity(), 2))
    assert all(v.is_identity() for v in asg.values())
    assert check_system(system, asg, S21).ok


def test_delta_witness_square_univariate():
    g = S11.element(base={1: parse_poly("a1 - 1", 1) ** 2})
    fragment = witness_delta_power(g, 2)
    assert fragment["dp_y_1"] == S11.base_gen(1)
    assert fragment["dp_x_1"] == g
    system = gadget_delta_power("x", 2, S11)
    assert check_system(system, {"x": g, **fragment}, S11).ok


def test_delta_witness_mixed_bivariate():
    g = S21.element(base={1: parse_poly("a1 - 1", 2) * parse_poly("a2 - 1", 2)})
    fragment = witness_delta_power(g, 2)
    blocks = {bl.beta: bl for bl in delta_blocks(S21, 2)}
    assert fragment[blocks[(1, 1)].y_name] == S21.base_gen(1)
    for beta, bl in blocks.items():
        if beta != (1, 1):
            assert fragment[bl.y_name].is_identity()
    system = gadget_delta_power("x", 2, S21)
    assert check_system(system, {"x": g, **fragment}, S21).ok


def test_delta_witness_requires_membership():
    g = S11.base_gen(1)
    with pytest.raises(PreconditionError, match="valuation 0"):
        witness_delta_power(g, 1)


def test_delta_witness_names_the_coordinate_and_its_valuation():
    # The refusal is delta_decompose's, prefixed with the coordinate; a
    # sparse coordinate of valuation 0 is refused without a y-expansion.
    g = S12.element(base={1: parse_poly("a1^2 - 2*a1 + 1", 1), 2: parse_poly("a1^8000 + 1", 1)})
    with pytest.raises(PreconditionError) as caught:
        witness_delta_power(g, 1)
    assert str(caught.value) == (
        "element is not in the ideal-power-1 base subgroup: coordinate b2: "
        "polynomial has augmentation valuation 0, not in ideal power 1")
    with pytest.raises(PreconditionError, match="coordinate b1: polynomial has augmentation "
                                                "valuation 2, not in ideal power 3$"):
        witness_delta_power(g, 3)


def test_delta_witness_rejects_active_part():
    with pytest.raises(PreconditionError, match="active part"):
        witness_delta_power(S11.active_gen(1), 1)


def test_delta_gadget_unreachable_outside_the_ideal_power():
    # Whatever the auxiliary values, each block image lands in the ideal
    # power, and products of members stay members, so g outside never matches.
    rng = random.Random(9)
    k = 2
    g = S11.base_gen(1)
    assert not in_delta_power(g, k)
    for _ in range(50):
        product = S11.identity()
        for bl in delta_blocks(S11, k):
            y = rand_base_element(rng, S11)
            image = module_action(y, delta_generator_product(bl.beta, 1))
            assert in_delta_power(image, k)
            product = product * image
        assert in_delta_power(product, k)
        assert product != g


def test_delta_witness_random_members():
    rng = random.Random(13)
    for _ in range(30):
        spec = GroupSpec(rng.randint(1, 2), rng.randint(1, 2))
        k = rng.randint(1, 4)
        coords = {}
        for j in range(1, spec.n + 1):
            beta = [0] * spec.m
            for _ in range(k):
                beta[rng.randrange(spec.m)] += 1
            coords[j] = delta_generator_product(tuple(beta), spec.m) * LaurentPoly(
                spec.m, {tuple(rng.randint(-1, 1) for _ in range(spec.m)): rng.randint(-3, 3)})
        g = spec.element(base=coords)
        system = gadget_delta_power("x", k, spec)
        asg = {"x": g, **witness_delta_power(g, k)}
        assert check_system(system, asg, spec).ok


@pytest.mark.parametrize("build", [
    gadget_in_N, gadget_in_A, gadget_cyclic, lambda x, spec: gadget_delta_power(x, 2, spec),
], ids=["in_N", "in_A", "cyclic", "delta_power"])
def test_gadget_builders_return_systems_led_by_the_interface(build):
    for spec in (S11, S21, S22):
        system = build("w", spec)
        assert isinstance(system, System)
        assert system.declared_vars[0] == "w"
        assert "w" not in system.declared_vars[1:]


# Each builder that reads the active rank of a flat Z^n wr Z^m, called over a tower.
ITERATED_CALLS = {
    "delta_blocks": lambda tower: delta_blocks(tower, 2),
    "gadget_delta_power": lambda tower: gadget_delta_power("x", 2, tower),
    "gadget_cyclic": lambda tower: gadget_cyclic("x", tower),
    "witness_cyclic": lambda tower: witness_cyclic(2, tower),
    "witness_delta_power": lambda tower: witness_delta_power(tower.generator(2, 1), 1),
}


@pytest.mark.parametrize("name", ITERATED_CALLS)
def test_gadgets_refuse_an_iterated_spec(name):
    # An iterated spec has no active rank m; it is refused by name, not by
    # an AttributeError.
    with pytest.raises(PreconditionError, match=rf"^{name} needs a GroupSpec, got IteratedSpec"):
        ITERATED_CALLS[name](IteratedSpec((1, 1, 1)))
