import random

import pytest
from hypothesis import given, strategies as st

from zwreath.equations import (CheckReport, Commutator, Concat, Constant,
                               Literal, Power, System, check_system, concat,
                               equation, evaluate, flatten, free_vars,
                               inverse_word, normalize_word, parse_assignment, parse_system,
                               power, serialize_assignment, serialize_system,
                               serialize_word, system_of)
from zwreath.errors import Error, ParseError, PreconditionError, SpecMismatchError
from zwreath.gadgets import DeltaBlock
from zwreath.interp import IteratedSpec, compile_iterated, lift_system, spec_for_ranks
from zwreath.laurent import LaurentPoly, parse_poly
from zwreath.reduction import Reduction, compile, parse_intpoly
from zwreath.selftest import (_solve_definitions, rand_active_element, rand_base_element,
                              rand_element, rand_nested, rand_word)
from zwreath.wreath import GroupSpec, LcsBasisElement

S11 = GroupSpec(1, 1)
S12 = GroupSpec(1, 2)
S22 = GroupSpec(2, 2)

IDENTITY = Concat(())


# -- evaluation -----------------------------------------------------------------


def test_evaluate_commutator_matches_group_commutator():
    asg = {"x": S11.base_gen(1), "y": S11.active_gen(1)}
    value = evaluate(Commutator(Literal("x"), Literal("y")), asg, S11)
    assert value == S11.element(base={1: parse_poly("a1 - 1", 1)})


def test_left_normed_commutator_parses_and_checks_like_the_nested_one():
    flat = parse_system("[x, y, z] = 1\n", S22)
    nested = parse_system("[[x, y], z] = 1\n", S22)
    assert flat.equations == (Commutator(Literal("x"), Literal("y"), Literal("z")),)
    assert nested.equations == (Commutator(Commutator(Literal("x"), Literal("y")), Literal("z")),)
    assert serialize_system(flat) == "# vars: x y z\n[x, y, z] = 1\n"
    rng = random.Random(5)
    for _ in range(30):
        asg = {name: rand_element(rng, S22, exp_bound=1, max_terms=2) for name in "xyz"}
        assert evaluate(flat.equations[0], asg, S22) == evaluate(nested.equations[0], asg, S22)
        assert check_system(flat, asg, S22) == check_system(nested, asg, S22)
    # [w, f1, f2]^-1 = [f2, [w, f1]]
    assert inverse_word(flat.equations[0]) == Commutator(
        Literal("z"), Commutator(Literal("x"), Literal("y")))
    with pytest.raises(PreconditionError, match="at least one factor"):
        Commutator(Literal("x"))


def test_evaluate_empty_concat_is_identity():
    assert evaluate(IDENTITY, {}, S22) == S22.identity()


def test_evaluate_negative_power():
    value = evaluate(Power(Literal("x"), -2), {"x": S11.active_gen(1)}, S11)
    assert value == S11.element(active=(-2,))


def test_evaluate_unbound_variable_names_it():
    with pytest.raises(PreconditionError, match="'lonely'"):
        evaluate(Literal("lonely"), {}, S11)


def test_evaluate_rejects_foreign_constants():
    word = Constant(S11.identity())
    with pytest.raises(SpecMismatchError):
        evaluate(word, {}, S22)


def test_equal_specs_that_are_distinct_objects_still_combine():
    # Spec checks test identity first; an equal spec built separately must
    # still pass them, at both element types and in `evaluate`.
    for spec, twin in ((S22, GroupSpec(2, 2)), (IteratedSpec((1, 2, 1)), IteratedSpec((1, 2, 1)))):
        assert twin is not spec and twin == spec
        b, a = spec.base_gen(1), spec.generator(1, 1)
        b_twin, a_twin = twin.base_gen(1), twin.generator(1, 1)
        assert b * a_twin == b * a and b.commutator(a_twin) == b.commutator(a)
        word = Commutator(Literal("x"), Constant(a_twin))
        assert evaluate(word, {"x": b_twin}, spec) == b.commutator(a)


def test_inverse_word_inverts_evaluation():
    rng = random.Random(17)
    for _ in range(50):
        word = rand_word(rng, S22, ["x", "y"], depth=3)
        asg = {"x": S22.element(active=(1, 0), base={1: LaurentPoly.one(2)}),
               "y": S22.element(active=(0, -1), base={2: parse_poly("a2", 2)})}
        assert evaluate(inverse_word(word), asg, S22) == evaluate(word, asg, S22).inverse()


# -- systems ----------------------------------------------------------------------


def test_check_empty_system():
    assert check_system(System(), {}, S11).ok


def test_check_base_commutation():
    system = system_of([equation(Commutator(Literal("x"), Constant(S12.base_gen(1))))])
    good = {"x": S12.element(base={2: parse_poly("a1", 1)})}
    assert check_system(system, good, S12).ok
    bad = {"x": S12.active_gen(1)}
    report = check_system(system, bad, S12)
    assert not report.ok
    assert report.failures == (0,)


def test_check_requires_declared_assignments():
    system = system_of([equation(Literal("x"))])
    with pytest.raises(PreconditionError, match="x"):
        check_system(system, {}, S11)


def test_system_rejects_undeclared_variables():
    with pytest.raises(PreconditionError):
        System((equation(Literal("x")),), ())


def test_system_rejects_names_declared_twice_or_invalid():
    with pytest.raises(PreconditionError, match="equation 2 uses undeclared variable 'y'"):
        System((equation(Literal("x")), equation(Literal("x"), Literal("y"))), ("x",))
    with pytest.raises(PreconditionError, match="variable 'x' declared twice"):
        System((equation(Literal("x")),), ("x", "y", "x"))
    with pytest.raises(PreconditionError, match="invalid variable name"):
        System((), ("1x",))
    with pytest.raises(PreconditionError, match="not a word node: 'x'"):
        System(("x",), ())


def outcome(call):
    """What `call` returns, or its error as class and message."""
    try:
        return call()
    except Error as exc:
        return type(exc).__name__, str(exc)


@given(st.randoms(use_true_random=False), st.sampled_from([S11, S22, IteratedSpec((1, 1, 1))]))
def test_check_decides_top_level_powers_and_chains_as_full_evaluation(rng, spec):
    """A top-level power (N = 0 among the exponents) or left-normed chain,
    flat or nested, whose later factors have zero or non-zero active parts,
    and at times a foreign constant: `check_system` gives the verdict, or
    the error, of evaluating the whole word."""
    if isinstance(spec, GroupSpec):
        foreign = Constant(S12.generator(1, 1))
        kinds = [lambda: rand_element(rng, spec, exp_bound=2, max_terms=2),
                 lambda: rand_base_element(rng, spec, exp_bound=2, max_terms=2),
                 lambda: rand_active_element(rng, spec, exp_bound=1)]
    else:
        foreign = Constant(S11.generator(1, 1))
        kinds = [lambda: rand_nested(rng, spec), lambda: spec.embed(rand_nested(rng, spec.inner()))]
    asg = {name: rng.choice(kinds + [spec.identity])() for name in "xyz"}
    factors = [Literal(name, rng.choice((1, -1))) for name in "xyz"]
    factors += [Constant(spec.generator(1, 1)), Concat((Literal("x"), Literal("y")))]
    if rng.random() < 0.1:
        factors.append(foreign)

    def chain():
        return Commutator(*rng.choices(factors, k=rng.randint(2, 5)))

    word = chain()
    if rng.random() < 0.5:
        word = Power(rng.choice([word, chain(), rng.choice(factors)]), rng.randint(-2, 3))
    system = System((word,), ("x", "y", "z"))
    assert outcome(lambda: check_system(system, asg, spec).ok) == outcome(
        lambda: evaluate(word, asg, spec).is_identity())


S11_A1 = S11.generator(1, 1)
F = parse_intpoly("z1 - 2")


@pytest.mark.parametrize("value, twin, other, foreign, text", [
    (GroupSpec(1, 2), GroupSpec(m=1, n=2), GroupSpec(2, 1), (1, 2), "GroupSpec(m=1, n=2)"),
    (IteratedSpec((1, 2, 3)), IteratedSpec([1, 2, 3]), IteratedSpec((1, 1, 1)), ((1, 2, 3),),
     "IteratedSpec(ranks=(1, 2, 3))"),
    (LcsBasisElement(1, (1, 2)), LcsBasisElement(k=1, js=(1, 2)), LcsBasisElement(1, (2, 2)),
     (1, (1, 2)), "LcsBasisElement(k=1, js=(1, 2))"),
    (Literal("x"), Literal("x", 1), Literal("x", -1), ("x", 1), "Literal(name='x', sign=1)"),
    (Constant(S11_A1), Constant(value=S11.generator(1, 1)), Constant(S11.identity()), S11_A1,
     "Constant(value=WreathElement('{ active: (1); }'))"),
    (Concat(), Concat(parts=()), Concat((Literal("x"),)), Constant(()), "Concat(parts=())"),
    (Commutator(Literal("x"), Literal("y")), Commutator(Literal("x"), Literal("y")),
     Commutator(Literal("y"), Literal("x")), CheckReport(Literal("x"), (Literal("y"),)),
     "Commutator(word=Literal(name='x', sign=1), factors=(Literal(name='y', sign=1),))"),
    (Power(Literal("x"), 2), Power(body=Literal("x"), exponent=2), Power(Literal("x"), -2),
     Commutator(Literal("x"), 2), "Power(body=Literal(name='x', sign=1), exponent=2)"),
    (System((Literal("x"),), ("x",)), system_of([Literal("x")]), System((), ("x",)),
     ((Literal("x"),), ("x",)), "System(equations=(Literal(name='x', sign=1),), declared_vars=('x',))"),
    (CheckReport(True), CheckReport(ok=True, failures=()), CheckReport(False, (0,)), (True, ()),
     "CheckReport(ok=True, failures=())"),
    (DeltaBlock((1, 0), "dp_y_1", "dp_x_1"), DeltaBlock(beta=(1, 0), y_name="dp_y_1", x_name="dp_x_1"),
     DeltaBlock((0, 1), "dp_y_1", "dp_x_1"), ((1, 0), "dp_y_1", "dp_x_1"),
     "DeltaBlock(beta=(1, 0), y_name='dp_y_1', x_name='dp_x_1')"),
    (Reduction(F, S11), Reduction(poly=parse_intpoly("z1 - 2"), spec=GroupSpec(1, 1)),
     Reduction(F, S22), CheckReport(F, S11),
     "Reduction(poly=IntPolynomial(1, 'z1 - 2'), spec=GroupSpec(m=1, n=1))"),
    (Reduction(F, IteratedSpec((1, 1, 1))),
     Reduction(poly=parse_intpoly("z1 - 2"), spec=IteratedSpec((1, 1, 1))),
     Reduction(F, IteratedSpec((1, 1, 2))), CheckReport(F, IteratedSpec((1, 1, 1))),
     "Reduction(poly=IntPolynomial(1, 'z1 - 2'), spec=IteratedSpec(ranks=(1, 1, 1)))"),
])
def test_value_types_compare_hash_print_and_refuse_assignment(value, twin, other, foreign, text):
    """Each immutable value type: its repr, `==` and `hash` by class and
    fields (a value of another class is never equal, even with equal
    fields), and an AttributeError on assignment or deletion."""
    fields = tuple(getattr(value, name) for name in value._fields)
    assert repr(value) == text
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(fields)
    assert other != value and not other == value
    assert foreign != value and value != foreign and value.__eq__(foreign) is NotImplemented
    for name in value._fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, value._fields[0])
    assert tuple(getattr(value, name) for name in value._fields) == fields


# The golden CLI shapes: (polynomial, ranks).
GOLDEN_SHAPES = [("z1*z2 - 6", (1, 1)), ("z1*z2 - 6", (2, 3)), ("z1*z2 - 6", (1, 1, 1)),
                 ("z1*z2 - 6", (1, 2, 1, 1)), ("z1^2 + 3*z1 + 2", (2, 1)),
                 ("z1 - 2", (1,) * 8)]


@pytest.mark.parametrize("poly, ranks", GOLDEN_SHAPES)
def test_systems_built_without_a_second_check_pass_it(poly, ranks):
    # system_of, lift_system and parse_system (without a `# vars:` line)
    # skip the constructor's check; each result must equal its rebuild
    # through the checking constructor.
    f = parse_intpoly(poly)
    spec = spec_for_ranks(ranks)
    reduction = compile_iterated(f, spec)
    flat = compile(f, spec_for_ranks(ranks[-2:])).system
    text = serialize_system(reduction.system)
    systems = [reduction.system, flat,
               system_of(reduction.system.equations),
               parse_system(text, spec),
               parse_system(text.partition("\n")[2], spec)]
    lifted = system_of(flat.equations)
    for outer in spec.tower[1:]:
        lifted = lift_system(lifted, outer.base_gen(1))
        systems.append(lifted)
    for system in systems:
        assert type(system.equations) is tuple and type(system.declared_vars) is tuple
        assert system == System(system.equations, system.declared_vars)
    assert systems[2].declared_vars == systems[4].declared_vars


def test_equation_normalizes_rhs():
    eq = equation(Literal("x"), Literal("y"))
    assert eq == Concat((Literal("x"), Literal("y", -1)))
    assert equation(Literal("x"), IDENTITY) == Literal("x")
    rng = random.Random(5)
    for _ in range(50):
        left, right = (rand_word(rng, S22, ["x", "y"], depth=2) for _ in range(2))
        assert equation(left) is left
        if right != IDENTITY:
            assert equation(left, right) == concat(left, inverse_word(right))


# -- flatten ----------------------------------------------------------------------


def test_flatten_literal_is_noop():
    word, aux = flatten(Literal("x"))
    assert word == Literal("x")
    assert aux == System()


def test_flatten_single_commutator():
    word, aux = flatten(Commutator(Literal("x"), Literal("y")))
    assert word == Literal("t1")
    assert len(aux.equations) == 1
    expected = equation(
        Literal("t1"),
        Concat((Literal("x", -1), Literal("y", -1), Literal("x"), Literal("y"))))
    assert aux.equations[0] == expected


def test_flatten_nested_commutator():
    word, aux = flatten(Commutator(Commutator(Literal("x"), Literal("y")), Literal("z")))
    assert word == Literal("t2")
    assert len(aux.equations) == 2
    inner = equation(
        Literal("t1"),
        Concat((Literal("x", -1), Literal("y", -1), Literal("x"), Literal("y"))))
    outer = equation(
        Literal("t2"),
        Concat((Literal("t1", -1), Literal("z", -1), Literal("t1"), Literal("z"))))
    assert aux.equations == (inner, outer)


def test_flatten_defines_one_variable_per_chain_link():
    chain = Commutator(Literal("x"), Literal("y"), Literal("z"))
    nested = Commutator(Commutator(Literal("x"), Literal("y")), Literal("z"))
    assert flatten(chain) == flatten(nested)


def test_flatten_preserves_value_on_random_words():
    rng = random.Random(23)
    names = ["x", "y"]
    for _ in range(200):
        spec = GroupSpec(rng.randint(1, 2), rng.randint(1, 2))
        word = rand_word(rng, spec, names, depth=4)
        asg = {"x": spec.element(active=(1,) + (0,) * (spec.m - 1)),
               "y": spec.element(base={1: LaurentPoly.one(spec.m)})}
        flat, aux = flatten(word)
        extended = _solve_definitions(aux, asg, spec)
        assert evaluate(flat, extended, spec) == evaluate(word, asg, spec)
        assert check_system(aux, extended, spec).ok


def test_flatten_removes_powers():
    word, aux = flatten(Power(Literal("x"), 9))
    asg = {"x": S11.active_gen(1)}
    extended = _solve_definitions(aux, asg, S11)
    assert evaluate(word, extended, S11) == S11.element(active=(9,))
    for eq in aux.equations:
        assert "Power" not in repr(eq) and "Commutator" not in repr(eq)


# -- parsing and serialization -------------------------------------------------------


def test_parse_empty_system():
    assert parse_system("", S11) == System()


def test_parse_commutator_with_constant():
    system = parse_system("[x, {active:(1); }] = 1", S11)
    assert len(system.equations) == 1
    assert system.declared_vars == ("x",)
    assert system.equations[0] == Commutator(Literal("x"), Constant(S11.active_gen(1)))


def test_parse_serialize_round_trip_simple():
    text = "# vars: x y\n[x, y] x^-2 = 1\n"
    system = parse_system(text, S22)
    assert serialize_system(system) == text
    assert parse_system(serialize_system(system), S22) == system


def test_round_trip_with_constants_and_powers():
    source = "\n".join([
        "# a comment line",
        "x { active: (1,0); b2: a1 - 1 } = 1",
        "[x, y]^3 (x y)^-2 = 1",
        "y = x",
    ]) + "\n"
    system = parse_system(source, S22)
    redone = parse_system(serialize_system(system), S22)
    assert redone == system


def test_extra_declared_variables_survive_round_trip():
    text = "# vars: x spare\nx = 1\n"
    system = parse_system(text, S11)
    assert system.declared_vars == ("x", "spare")
    assert serialize_system(system) == text
    # checking demands every declared variable, including unused ones
    with pytest.raises(PreconditionError, match="spare"):
        check_system(system, {"x": S11.identity()}, S11)


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_system("x = 1\n[x, = 1\n", S11)
    assert exc.value.line == 2
    assert exc.value.col is not None


def test_parse_rejects_unbalanced_braces():
    with pytest.raises(ParseError):
        parse_system("{ active: (1) = 1", S11)


def test_assignment_round_trip():
    asg = {
        "x": S22.element(active=(1, 2), base={1: parse_poly("a1^-1", 2)}),
        "cyc_z_1": S22.identity(),
    }
    text = serialize_assignment(asg)
    assert parse_assignment(text, S22) == asg


def test_assignment_rejects_duplicates():
    text = "x := { active: (0); }\nx := { active: (1); }\n"
    with pytest.raises(ParseError, match="twice"):
        parse_assignment(text, S11)


def test_free_vars_first_occurrence_order():
    word = Concat((Literal("b"), Commutator(Literal("a"), Literal("b")), Literal("c")))
    assert free_vars(word) == ["b", "a", "c"]


def test_serialize_word_edge_cases():
    assert serialize_word(IDENTITY) == "1"
    assert serialize_word(Literal("x", -1)) == "x^-1"
    assert serialize_word(Power(Concat((Literal("x"), Literal("y"))), 3)) == "(x y)^3"
    assert serialize_word(power(Literal("x"), -1)) == "x^-1"


def rebuilt_normal_form(word):
    """`normalize_word` as it was first written, rebuilding every inner node."""
    if isinstance(word, Concat):
        parts = tuple(rebuilt_normal_form(p) for p in word.parts)
        return parts[0] if len(parts) == 1 else Concat(parts)
    if isinstance(word, Commutator):
        return Commutator(rebuilt_normal_form(word.word), *map(rebuilt_normal_form, word.factors))
    if isinstance(word, Power):
        return power(rebuilt_normal_form(word.body), word.exponent)
    return word


def test_normalize_word_returns_a_normal_word_itself():
    # Every equation of a compiled or lifted system, and every word once
    # normalized, is normal: it comes back as the same object.
    systems = [compile(parse_intpoly("z1*z2 - 6"), S22).system,
               compile_iterated(parse_intpoly("z1^2 + 3*z1 + 2"), IteratedSpec((1,) * 5)).system]
    for word in [w for system in systems for w in system.equations]:
        assert normalize_word(word) is word
    rng = random.Random(37)
    changed = 0
    for _ in range(300):
        word = rand_word(rng, S22, ["x", "y", "z"], depth=4)
        normal = normalize_word(word)
        # A word that is not normal normalizes as before.
        assert normal == rebuilt_normal_form(word)
        assert normalize_word(normal) is normal
        changed += normal != word
    assert changed > 50
    # Only the path to a change is rebuilt: a normal part is kept as it is.
    chain = systems[0].equations[-1]
    wrapped = normalize_word(Commutator(Concat((Literal("x"),)), chain, Power(chain, 1)))
    assert wrapped == Commutator(Literal("x"), chain, chain)
    assert wrapped.factors[0] is chain and wrapped.factors[1] is chain
    assert normalize_word(Concat((chain,))) is chain
    assert normalize_word(Power(Literal("x"), -1)) == Literal("x", -1)
    assert normalize_word(Concat((Power(Literal("x"), 0),))) == Concat(())


def test_a_system_prints_each_shared_constant_once(monkeypatch):
    # A lifted system shares one `Constant` node per distinct constant and
    # per level's base generator among all its equations.
    spec = IteratedSpec((1,) * 8)
    system = compile_iterated(parse_intpoly("z1*z2 - 6"), spec).system
    nodes = set()

    def walk(word):
        if isinstance(word, Constant):
            nodes.add(id(word))
        elif isinstance(word, Concat):
            for part in word.parts:
                walk(part)
        elif isinstance(word, Commutator):
            for part in (word.word,) + word.factors:
                walk(part)
        elif isinstance(word, Power):
            walk(word.body)

    for word in system.equations:
        walk(word)
    expected = serialize_system(system)
    printed = []
    for cls in (GroupSpec, IteratedSpec):
        def counting(self, g, _original=cls.generator_word):
            printed.append(g)
            return _original(self, g)
        monkeypatch.setattr(cls, "generator_word", counting)
    assert serialize_system(system) == expected
    # One call per node, and one more at most for the level of its core,
    # not one per level below it.
    assert sum(g.spec == spec for g in printed) == len(nodes)
    assert len(printed) <= 2 * len(nodes)


def test_word_round_trip_random():
    rng = random.Random(31)
    for _ in range(150):
        word = rand_word(rng, S22, ["x", "y", "z"], depth=3)
        text = serialize_word(word)
        system = parse_system(f"{text} = 1", S22)
        assert serialize_word(system.equations[0]) == text
