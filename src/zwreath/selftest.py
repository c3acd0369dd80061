"""Seeded randomized property suites.

Each check takes a random.Random and a sample count and returns a list of
failure descriptions (empty means the property held on every sample).  The
CLI `selftest` subcommand and the acceptance tests share these so the sample
counts and generators live in exactly one place.
"""

from __future__ import annotations

import random

from .equations import (Commutator, Concat, Constant, Literal, Power,
                        check_system, concat, equation, evaluate, flatten,
                        system_of)
from .gadgets import (delta_blocks, gadget_cyclic, gadget_delta_power,
                      witness_cyclic, witness_delta_power)
from .interp import IteratedSpec, NestedElement, lift_system, project_assignment
from .laurent import (LaurentPoly, aug_valuation, delta_decompose,
                      delta_generator_product, delta_membership, geom_series)
from .reduction import IntPolynomial, compile, extract_solution, oracle_ef, witness
from .wreath import (GroupSpec, WreathElement, in_A, in_N, in_delta_power,
                     lcs_basis, lcs_rank, module_action)


# -- random generators --------------------------------------------------------


def rand_poly(rng, rank, max_terms=4, exp_bound=3, coeff_bound=9, allow_zero=True):
    n_terms = rng.randint(0 if allow_zero else 1, max_terms)
    terms = {}
    for _ in range(n_terms):
        mono = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(rank))
        coeff = rng.randint(-coeff_bound, coeff_bound)
        terms[mono] = terms.get(mono, 0) + coeff
    return LaurentPoly(rank, terms)


def rand_nonzero_poly(rng, rank, **kw):
    while True:
        p = rand_poly(rng, rank, allow_zero=False, **kw)
        if not p.is_zero():
            return p


def rand_element(rng, spec, exp_bound=3, max_terms=4):
    active = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(spec.m))
    base = tuple(rand_poly(rng, spec.m, max_terms=max_terms, exp_bound=exp_bound)
                 for _ in range(spec.n))
    return WreathElement(spec, active, base)


def rand_base_element(rng, spec, **kw):
    g = rand_element(rng, spec, **kw)
    return WreathElement(spec, (0,) * spec.m, g.base)


def rand_active_element(rng, spec, exp_bound=3):
    active = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(spec.m))
    return spec.element(active=active)


def rand_spec(rng, max_rank=3):
    return GroupSpec(rng.randint(1, max_rank), rng.randint(1, max_rank))


def rand_intpoly(rng, max_vars=3, max_degree=3, max_terms=5, coeff_bound=10):
    s = rng.randint(1, max_vars)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = [0] * s
        for _ in range(rng.randint(0, max_degree)):
            alpha[rng.randrange(s)] += 1
        coeff = rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])
        alpha = tuple(alpha)
        terms[alpha] = terms.get(alpha, 0) + coeff
    return IntPolynomial(s, terms)


def rand_word(rng, spec, var_names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        name = rng.choice(var_names)
        return Literal(name, rng.choice((1, -1)))
    if roll < 0.45:
        return Constant(rand_element(rng, spec, exp_bound=1, max_terms=2))
    if roll < 0.65:
        return Concat(tuple(
            rand_word(rng, spec, var_names, depth - 1)
            for _ in range(rng.randint(0, 3))))
    if roll < 0.85:
        return Commutator(*(rand_word(rng, spec, var_names, depth - 1)
                            for _ in range(rng.randint(2, 4))))
    return Power(rand_word(rng, spec, var_names, depth - 1), rng.randint(-3, 3))


def rand_nested(rng, spec, exp_bound=2, max_support=2):
    if isinstance(spec, GroupSpec):
        return rand_element(rng, spec, exp_bound=exp_bound, max_terms=max_support)
    active = rand_nested(rng, spec.inner(), exp_bound, max_support)
    base = {}
    for _ in range(rng.randint(0, max_support)):
        key = rand_nested(rng, spec.inner(), 1, 1)
        vec = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(spec.ranks[0]))
        base[key] = vec
    return NestedElement(spec, active, base)


# -- laurent suites -------------------------------------------------------------


def check_ring_axioms(rng, samples):
    failures = []
    for i in range(samples):
        rank = rng.randint(1, 3)
        p, q, r = (rand_poly(rng, rank) for _ in range(3))
        if (p + q) + r != p + (q + r):
            failures.append(f"sample {i}: addition not associative")
        if p * q != q * p:
            failures.append(f"sample {i}: multiplication not commutative")
        if (p * q) * r != p * (q * r):
            failures.append(f"sample {i}: multiplication not associative")
        if p * (q + r) != p * q + p * r:
            failures.append(f"sample {i}: not distributive")
        if not (p + (-p)).is_zero():
            failures.append(f"sample {i}: additive inverse failed")
        if p + LaurentPoly.zero(rank) != p or p * LaurentPoly.one(rank) != p:
            failures.append(f"sample {i}: identity law failed")
    return failures


def check_valuation_properties(rng, samples):
    failures = []
    for i in range(samples):
        rank = rng.randint(1, 3)
        p = rand_nonzero_poly(rng, rank)
        q = rand_nonzero_poly(rng, rank)
        if aug_valuation(p * q) != aug_valuation(p) + aug_valuation(q):
            failures.append(f"sample {i}: valuation not multiplicative")
        expected_min = min(aug_valuation(p), aug_valuation(q))
        if aug_valuation(p + q) < expected_min:
            failures.append(f"sample {i}: valuation not superadditive")
        shift = tuple(rng.randint(-3, 3) for _ in range(rank))
        if aug_valuation(p.times_monomial(shift)) != aug_valuation(p):
            failures.append(f"sample {i}: valuation not unit-invariant")
    return failures


def check_decomposition(rng, samples):
    failures = []
    for i in range(samples):
        rank = rng.randint(1, 2)
        k = rng.randint(1, 4)
        # Assemble a guaranteed member of the k-th ideal power.
        p = LaurentPoly.zero(rank)
        for _ in range(rng.randint(1, 3)):
            beta = [0] * rank
            for _ in range(k):
                beta[rng.randrange(rank)] += 1
            p = p + delta_generator_product(tuple(beta), rank) * rand_poly(
                rng, rank, max_terms=2, exp_bound=2)
        if not delta_membership(p, k):
            failures.append(f"sample {i}: constructed element not a member")
            continue
        parts = delta_decompose(p, k)
        total = LaurentPoly.zero(rank)
        for beta, q in parts.items():
            if sum(beta) != k:
                failures.append(f"sample {i}: block {beta} has wrong degree")
            total = total + delta_generator_product(beta, rank) * q
        if total != p:
            failures.append(f"sample {i}: recomposition mismatch")
    return failures


def check_geom_series(rng=None, samples=50):
    failures = []
    for gamma in range(-samples, samples + 1):
        s = geom_series(gamma)
        a1 = LaurentPoly.variable(1, 1)
        lhs = s * (a1 - 1)
        rhs = LaurentPoly(1, {(gamma,): 1}) - 1
        if lhs != rhs:
            failures.append(f"gamma={gamma}: series contract violated")
    return failures


# -- wreath suites ---------------------------------------------------------------


def check_group_axioms(rng, samples):
    failures = []
    for i in range(samples):
        spec = rand_spec(rng)
        g, h, k = (rand_element(rng, spec) for _ in range(3))
        if (g * h) * k != g * (h * k):
            failures.append(f"sample {i}: multiplication not associative")
        if not (g * g.inverse()).is_identity() or not (g.inverse() * g).is_identity():
            failures.append(f"sample {i}: inverse law failed")
        e = spec.identity()
        if g * e != g or e * g != g:
            failures.append(f"sample {i}: identity law failed")
    return failures


def check_action_convention(rng, samples):
    """[u, x] with u in the base subgroup equals u^(monomial(x) - 1)."""
    failures = []
    for i in range(samples):
        spec = rand_spec(rng)
        u = rand_base_element(rng, spec)
        x = rand_active_element(rng, spec)
        mono = LaurentPoly.monomial(spec.m, x.active)
        if u.commutator(x) != module_action(u, mono - 1):
            failures.append(f"sample {i}: commutator/action convention mismatch")
    return failures


def check_centralizer_base(rng, samples):
    """Commuting with a nontrivial base element characterizes the base subgroup."""
    failures = []
    for i in range(samples):
        spec = rand_spec(rng)
        u = rand_base_element(rng, spec)
        while u.is_identity():
            u = rand_base_element(rng, spec)
        g_in = rand_base_element(rng, spec)
        if not g_in.commutator(u).is_identity():
            failures.append(f"sample {i}: base element failed to commute")
        g_out = rand_element(rng, spec)
        while in_N(g_out):
            g_out = rand_element(rng, spec)
        if g_out.commutator(u).is_identity():
            failures.append(f"sample {i}: non-base element commuted")
    return failures


def check_centralizer_active(rng, samples):
    """Commuting with a nontrivial active element characterizes the acting subgroup."""
    failures = []
    for i in range(samples):
        spec = rand_spec(rng)
        x = rand_active_element(rng, spec)
        while x.is_identity():
            x = rand_active_element(rng, spec)
        g_in = rand_active_element(rng, spec)
        if not g_in.commutator(x).is_identity():
            failures.append(f"sample {i}: active element failed to commute")
        g_out = rand_element(rng, spec)
        while in_A(g_out):
            g_out = rand_element(rng, spec)
        if g_out.commutator(x).is_identity():
            failures.append(f"sample {i}: non-active element commuted")
    return failures


def check_lcs(max_rank=3, max_index=5):
    """Basis enumeration, the closed-form rank, and valuation sandwiches agree."""
    import math as _math
    failures = []
    for m in range(1, max_rank + 1):
        for n in range(1, max_rank + 1):
            spec = GroupSpec(m, n)
            for i in range(2, max_index + 1):
                basis = lcs_basis(i, spec)
                expected = n * _math.comb(i + m - 2, m - 1)
                if lcs_rank(i, spec) != expected:
                    failures.append(f"m={m} n={n} i={i}: rank formula mismatch")
                if len(basis) != expected:
                    failures.append(f"m={m} n={n} i={i}: enumeration size mismatch")
                if len(set(basis)) != len(basis):
                    failures.append(f"m={m} n={n} i={i}: duplicate basis entries")
                for el in basis:
                    value = el.as_element(spec)
                    if not in_delta_power(value, i - 1):
                        failures.append(f"m={m} n={n} i={i}: {el} below expected depth")
                    if in_delta_power(value, i):
                        failures.append(f"m={m} n={n} i={i}: {el} above expected depth")
    return failures


# -- equations suites ---------------------------------------------------------------


def _solve_definitions(aux, assignment, spec):
    """Extend an assignment to flatten-style definitional equations."""
    extended = dict(assignment)
    for word in aux.equations:
        parts = word.parts if isinstance(word, Concat) else (word,)
        head = parts[0]
        rest = Concat(tuple(parts[1:]))
        extended[head.name] = evaluate(rest, extended, spec).inverse()
    return extended


def check_flatten(rng, samples):
    failures = []
    var_names = ["x", "y", "z"]
    for i in range(samples):
        spec = GroupSpec(rng.randint(1, 2), rng.randint(1, 2))
        word = rand_word(rng, spec, var_names, depth=4)
        assignment = {name: rand_element(rng, spec, exp_bound=1, max_terms=2)
                      for name in var_names}
        value = evaluate(word, assignment, spec)
        flat, aux = flatten(word)
        extended = _solve_definitions(aux, assignment, spec)
        if evaluate(flat, extended, spec) != value:
            failures.append(f"sample {i}: flattened word changed value")
            continue
        report = check_system(aux, {**extended,
                                    **{n: assignment[n] for n in var_names}}, spec)
        if not report.ok:
            failures.append(f"sample {i}: auxiliary system unsatisfied")
        for node in _iter_nodes(flat):
            if isinstance(node, (Commutator, Power)):
                failures.append(f"sample {i}: flatten left a structured node")
                break
    return failures


def _iter_nodes(word):
    yield word
    if isinstance(word, Concat):
        for p in word.parts:
            yield from _iter_nodes(p)
    elif isinstance(word, Commutator):
        for p in (word.word,) + word.factors:
            yield from _iter_nodes(p)
    elif isinstance(word, Power):
        yield from _iter_nodes(word.body)


def check_concat_homomorphism(rng, samples):
    failures = []
    var_names = ["x", "y"]
    for i in range(samples):
        spec = GroupSpec(rng.randint(1, 2), rng.randint(1, 2))
        u = rand_word(rng, spec, var_names, depth=2)
        v = rand_word(rng, spec, var_names, depth=2)
        assignment = {n: rand_element(rng, spec, exp_bound=1, max_terms=2) for n in var_names}
        lhs = evaluate(concat(u, v), assignment, spec)
        rhs = evaluate(u, assignment, spec) * evaluate(v, assignment, spec)
        if lhs != rhs:
            failures.append(f"sample {i}: concatenation not multiplicative")
    return failures


# -- gadget suites ---------------------------------------------------------------


def check_gadget_cyclic(rng, samples, gamma_bound=20):
    """Over m = 1 and m = 2: the witness of a1^gamma satisfies the cyclic
    gadget; a1^gamma with a base part does not, nor, at m = 2, a1^gamma
    times a nonzero power of a2, with cyc_z_1 the witness's or a random
    element."""
    failures = []
    for i in range(samples):
        spec = GroupSpec(rng.randint(1, 2), rng.randint(1, 2))
        system = gadget_cyclic("x", spec)
        gamma = rng.randint(-gamma_bound, gamma_bound)
        asg = witness_cyclic(gamma, spec)
        if not check_system(system, asg, spec).ok:
            failures.append(f"sample {i}, m={spec.m}: a1^{gamma} rejected")
        base_part = spec.element(base={rng.randint(1, spec.n): rand_nonzero_poly(
            rng, spec.m, max_terms=2, exp_bound=2)})
        outsiders = [asg["x"] * base_part]
        if spec.m >= 2:
            outsiders.append(asg["x"] * spec.generator(1, 2, rng.choice((-2, -1, 1, 3))))
        for x in outsiders:
            values = {**asg, "x": x}
            if spec.m >= 2 and rng.random() < 0.5:
                values["cyc_z_1"] = rand_element(rng, spec, exp_bound=2, max_terms=2)
            if check_system(system, values, spec).ok:
                failures.append(f"sample {i}, m={spec.m}: {x} accepted")
    return failures


def check_gadget_delta(rng, samples, max_k=4):
    failures = []
    for i in range(samples):
        spec = GroupSpec(rng.randint(1, 2), rng.randint(1, 2))
        k = rng.randint(1, max_k)
        coords = {}
        for j in range(1, spec.n + 1):
            beta = [0] * spec.m
            for _ in range(k):
                beta[rng.randrange(spec.m)] += 1
            coords[j] = delta_generator_product(tuple(beta), spec.m) * rand_poly(
                rng, spec.m, max_terms=2, exp_bound=1)
        g = spec.element(base=coords)
        asg = {"x": g}
        asg.update(witness_delta_power(g, k))
        if not check_system(gadget_delta_power("x", k, spec), asg, spec).ok:
            failures.append(f"sample {i}: ideal-power witness rejected (k={k})")
        # Negative side: chain images of arbitrary base elements always land in
        # the k-th ideal power, so the product never reaches an outsider.
        outsider = spec.base_gen(1)  # valuation 0 < k
        if in_delta_power(outsider, k):
            failures.append(f"sample {i}: outsider unexpectedly a member")
        product = spec.identity()
        for block in delta_blocks(spec, k):
            y = rand_base_element(rng, spec, exp_bound=1, max_terms=2)
            image = module_action(y, delta_generator_product(block.beta, spec.m))
            if not in_delta_power(image, k):
                failures.append(f"sample {i}: chain image escaped the ideal power")
            product = product * image
        if product == outsider:
            failures.append(f"sample {i}: product constraint reachable for outsider")
    return failures


# -- reduction suites ---------------------------------------------------------------


def check_oracle(rng, samples, z_bound=5):
    failures = []
    for i in range(samples):
        f = rand_intpoly(rng)
        z = tuple(rng.randint(-z_bound, z_bound) for _ in range(f.num_vars))
        if i % 2 == 0:
            # Plant a root half the time so both verdicts are exercised.
            shift = f.evaluate(z)
            terms = f.terms
            zero = (0,) * f.num_vars
            terms[zero] = terms.get(zero, 0) - shift
            f = IntPolynomial(f.num_vars, terms)
        e_f, verdict = oracle_ef(f, z)
        if verdict != (f.evaluate(z) == 0):
            failures.append(f"sample {i}: verdict disagrees with f{z} = {f.evaluate(z)}")
        if not e_f.is_zero() and aug_valuation(e_f) < f.degree():
            failures.append(f"sample {i}: membership polynomial below degree floor")
    return failures


def _planted_root_poly(rng, z_bound=5):
    while True:
        f = rand_intpoly(rng)
        if f.degree() >= 1:
            break
    z = tuple(rng.randint(-z_bound, z_bound) for _ in range(f.num_vars))
    terms = f.terms
    zero = (0,) * f.num_vars
    terms[zero] = terms.get(zero, 0) - f.evaluate(z)
    f = IntPolynomial(f.num_vars, terms)
    if f.is_zero():
        return _planted_root_poly(rng, z_bound)
    return f, z


def check_reduction_roundtrip(rng, samples):
    """Over Z^n wr Z^m, n in {1, 2} and m in {1, 2, 3}: the witness of a
    planted root verifies, extracts the root, and its y times (a1-1)^(d+1)
    is the oracle's e_f.  Then one x_i moved by a random a2..am tail: if the
    system still holds, the point extracted must still be the root z, read
    off the a1 exponents.  And one x_i moved by a random base element, on
    either side: no equation reads an x_i's base part, so the system must
    still hold and give back z."""
    failures = []
    for i in range(samples):
        spec = GroupSpec(rng.randint(1, 3), rng.randint(1, 2))
        f, z = _planted_root_poly(rng)
        out = compile(f, spec)
        asg = witness(f, z, spec)
        report = check_system(out.system, asg, spec)
        if not report.ok:
            failures.append(f"sample {i}: witness rejected at equations {report.failures}")
            continue
        recovered = extract_solution(out, asg)
        if recovered != z:
            failures.append(f"sample {i}: extracted {recovered}, planted {z}")
        # y is the quotient of e_f by (a1-1)^(d+1): multiplying back must give e_f.
        e_f, _ = oracle_ef(f, z, rank=spec.m)
        delta = (LaurentPoly.variable(spec.m, 1) - LaurentPoly.one(spec.m)) ** (f.degree() + 1)
        y_value = asg["y"]
        if (y_value.base[0] * delta != e_f
                or not all(p.is_zero() for p in y_value.base[1:])):
            failures.append(f"sample {i}: group route disagrees with direct polynomial")
        name = rng.choice(out.solution_vars)
        tail = spec.element(active=(0,) + tuple(rng.randint(-3, 3) for _ in range(spec.m - 1)))
        moved = {**asg, name: asg[name] * tail}
        if check_system(out.system, moved, spec).ok and extract_solution(out, moved) != z:
            failures.append(f"sample {i}: {name} moved by {tail} extracted as another point")
        part = rand_base_element(rng, spec)
        value = asg[name] * part if rng.random() < 0.5 else part * asg[name]
        moved = {**asg, name: value}
        if not check_system(out.system, moved, spec).ok or extract_solution(out, moved) != z:
            failures.append(f"sample {i}: {name} moved by the base element {part} "
                            "lost the root")
    return failures


# -- iterated suites ---------------------------------------------------------------


def check_nested_axioms(rng, samples):
    failures = []
    shapes = [(1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1)]
    for i in range(samples):
        spec = IteratedSpec(rng.choice(shapes))
        g, h, k = (rand_nested(rng, spec) for _ in range(3))
        if (g * h) * k != g * (h * k):
            failures.append(f"sample {i}: multiplication not associative")
        if not (g * g.inverse()).is_identity():
            failures.append(f"sample {i}: inverse law failed")
        e = spec.identity()
        if g * e != g or e * g != g:
            failures.append(f"sample {i}: identity law failed")
        if (g * h).project() != g.project() * h.project():
            failures.append(f"sample {i}: projection not multiplicative")
        if g.commutator(h) != g.inverse() * h.inverse() * g * h:
            failures.append(f"sample {i}: closed-form commutator differs from g^-1 h^-1 g h")
    return failures


def check_lift(rng, samples):
    """An outer assignment solves the lifted system iff its projection solves the inner one.

    Each sample lifts a random system with a known solution and checks three
    outer assignments: the embedded solution, the same with random base parts
    multiplied in (a solution that is not canonical), and a random one.
    """
    failures = []
    shapes = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1)]
    for i in range(samples):
        outer = IteratedSpec((rng.randint(1, 2),) + rng.choice(shapes))
        inner = outer.inner()
        var_names = ["x", "y"]
        assignment = {name: rand_nested(rng, inner) for name in var_names}
        eqs = []
        for _ in range(rng.randint(1, 3)):
            word = rand_word_nested(rng, inner, var_names, depth=2)
            value = evaluate(word, assignment, inner)
            eqs.append(equation(word, Constant(value)))
        system = system_of(eqs)
        lifted = lift_system(system, outer.base_gen(1))
        if (len(lifted.equations), lifted.declared_vars) != (
                len(system.equations), system.declared_vars):
            failures.append(f"sample {i}: lifting changed the system's size")
        embedded = {name: outer.embed(value) for name, value in assignment.items()}
        trials = [
            ("embedded solution", embedded, True),
            ("non-canonical solution",
             {name: value * _rand_base_part(rng, outer) for name, value in embedded.items()},
             True),
            ("random assignment", {name: rand_nested(rng, outer) for name in var_names}, False),
        ]
        for label, asg, is_solution in trials:
            lifted_ok = check_system(lifted, asg, outer).ok
            inner_ok = check_system(system, project_assignment(asg), inner).ok
            if lifted_ok != inner_ok:
                failures.append(f"sample {i}: {label}: lifted verdict {lifted_ok}, "
                                f"projected verdict {inner_ok}")
            elif is_solution and not lifted_ok:
                failures.append(f"sample {i}: {label} rejected")
    return failures


def _rand_base_part(rng, spec):
    """Random element of the base subgroup of an iterated spec (identity active part)."""
    return NestedElement(spec, spec.inner().identity(), rand_nested(rng, spec).base)


def rand_word_nested(rng, spec, var_names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return Literal(rng.choice(var_names), rng.choice((1, -1)))
    if roll < 0.55:
        return Constant(rand_nested(rng, spec))
    if roll < 0.8:
        return Concat(tuple(
            rand_word_nested(rng, spec, var_names, depth - 1)
            for _ in range(rng.randint(0, 2))))
    return Commutator(*(rand_word_nested(rng, spec, var_names, depth - 1)
                        for _ in range(rng.randint(2, 3))))


# -- runner ------------------------------------------------------------------------


SUITES = (
    ("laurent-ring-axioms", check_ring_axioms, 1000),
    ("laurent-valuation", check_valuation_properties, 300),
    ("laurent-decompose", check_decomposition, 200),
    ("laurent-geom-series", check_geom_series, 50),
    ("wreath-group-axioms", check_group_axioms, 1000),
    ("wreath-action-convention", check_action_convention, 300),
    ("wreath-centralizer-base", check_centralizer_base, 1000),
    ("wreath-centralizer-active", check_centralizer_active, 1000),
    ("equations-concat", check_concat_homomorphism, 200),
    ("equations-flatten", check_flatten, 200),
    ("gadget-cyclic", check_gadget_cyclic, 100),
    ("gadget-delta-power", check_gadget_delta, 50),
    ("reduction-oracle", check_oracle, 2000),
    ("reduction-roundtrip", check_reduction_roundtrip, 200),
    ("interp-nested-axioms", check_nested_axioms, 1000),
    ("interp-lift", check_lift, 100),
)


def run_suite(name, check, samples, seed=0):
    rng = random.Random(f"{seed}:{name}")
    return check(rng, samples)


def run_all(samples=None, seed=0):
    """Run every suite, printing one verdict line per suite; returns True
    iff no property was violated."""
    all_ok = True
    print(f"# selftest seed={seed}")
    failures_lcs = check_lcs()
    status = "PASS" if not failures_lcs else "FAIL"
    print(f"wreath-lcs: {status} (exhaustive m,n<=3, i<=5)")
    for msg in failures_lcs[:5]:
        print(f"  {msg}")
    all_ok &= not failures_lcs
    for name, check, default in SUITES:
        n = samples if samples is not None else default
        failures = run_suite(name, check, n, seed)
        status = "PASS" if not failures else "FAIL"
        print(f"{name}: {status} ({n} samples)")
        for msg in failures[:5]:
            print(f"  {msg}")
        all_ok &= not failures
    return bool(all_ok)
