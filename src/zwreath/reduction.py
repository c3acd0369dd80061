"""Compiler from integer polynomial equations to group-equation systems.

Given f = sum_alpha t_alpha z^alpha of total degree d, the compiled system
over Z^n wr Z^m constrains each solution variable x_i to the cyclic subgroup
of a1, builds per-term commutator chains whose product y carries the base
coordinate

    e_f = sum_alpha t_alpha (a1-1)^(d-|alpha|) prod_i (a1^{z_i} - 1)^{alpha_i},

and requires y to lie in the (d+1)-st augmentation-ideal power -- which holds
exactly when f(z) = 0.  `witness` constructs a satisfying assignment from an
integer root, `extract_solution` reads a root back out of any satisfying
assignment, and `oracle_ef` evaluates the membership polynomial directly as
an independent check on the group-equation route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equations import (Commutator, Constant, Literal, System, concat,
                        equation, merge_systems)
from .errors import PreconditionError
from .gadgets import (gadget_cyclic, gadget_delta_power, witness_cyclic,
                      witness_delta_power)
from .laurent import LaurentPoly, delta_membership, read_terms, terms_str
from .lexer import parse_whole
from .wreath import in_A, module_action


class IntPolynomial:
    """Sparse integer polynomial in variables z1..zs with non-negative exponents."""

    __slots__ = ("num_vars", "_terms")

    def __init__(self, num_vars, terms=None):
        if not isinstance(num_vars, int) or num_vars < 0:
            raise PreconditionError(f"variable count must be a non-negative int, got {num_vars!r}")
        items = terms.items() if hasattr(terms, "items") else (terms or ())
        clean = {}
        for alpha, coeff in items:
            alpha = tuple(alpha)
            if len(alpha) != num_vars or not all(isinstance(e, int) and e >= 0 for e in alpha):
                raise PreconditionError(f"exponent vector {alpha!r} invalid for {num_vars} variables")
            if not isinstance(coeff, int):
                raise PreconditionError(f"coefficient {coeff!r} is not an int")
            if coeff:
                clean[alpha] = clean.get(alpha, 0) + coeff
                if not clean[alpha]:
                    del clean[alpha]
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def terms(self):
        return dict(self._terms)

    def is_zero(self):
        return not self._terms

    def degree(self):
        """Maximal total degree of the support; 0 for constant or zero f."""
        return max((sum(a) for a in self._terms), default=0)

    def evaluate(self, z):
        z = tuple(z)
        if len(z) != self.num_vars:
            raise PreconditionError(
                f"expected {self.num_vars} values, got {len(z)}")
        total = 0
        for alpha, coeff in self._terms.items():
            term = coeff
            for zi, e in zip(z, alpha):
                term *= zi ** e
            total += term
        return total

    def support(self):
        """Exponent vectors in degree-lexicographic descending order."""
        return sorted(self._terms, key=lambda a: (sum(a), a), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self._terms == other._terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self._terms.items())))

    def __str__(self):
        return intpoly_str(self)

    def __repr__(self):
        return f"IntPolynomial({self.num_vars}, {intpoly_str(self)!r})"


def intpoly_str(f):
    return terms_str(f._terms, "z")


def parse_intpoly(text, num_vars=None):
    """Parse `z1^2*z2 - 3*z1 + 7`; variable count is inferred when not given.

    The sum-of-monomials grammar of `laurent.read_terms` with letter `z` and
    non-negative exponents: one tokenizer pass and one descent, O(len(text)).
    """
    return IntPolynomial(*parse_whole(text, read_terms, "z", num_vars, negative_exponents=False))


# -- compilation ---------------------------------------------------------------


@dataclass(frozen=True)
class ReductionOutput:
    """Compiled system plus the bookkeeping needed to read solutions back."""

    system: System
    solution_vars: tuple
    d: int
    product_var: str
    num_vars: int
    spec: object


def _alpha_tag(alpha):
    return "_".join(str(e) for e in alpha) if alpha else "const"


def _chain_factors(f, alpha, d):
    """Per-term conjugator list: a1 (d-|alpha|) times, then z-variables."""
    factors = [("a", None)] * (d - sum(alpha))
    for i, reps in enumerate(alpha):
        factors.extend([("x", i + 1)] * reps)
    return factors


def compile(f, spec):
    """Compile f into a group-equation system solvable iff f has an integer root.

    Zero f compiles to the empty system (every tuple is a root).  Otherwise
    the system consists of a cyclic-subgroup gadget per variable, one
    commutator chain per support term, the product equation for y, and the
    ideal-power gadget for y at degree d+1.
    """
    if f.is_zero():
        return ReductionOutput(System(), (), 0, "y", f.num_vars, spec)
    d = f.degree()
    s = f.num_vars
    solution_vars = tuple(f"x{i}" for i in range(1, s + 1))
    parts = []
    for i, x in enumerate(solution_vars, start=1):
        parts.append(gadget_cyclic(x, spec, z_name=f"cyc_z_{i}").system)
    chain_eqs = []
    chain_declared = []
    y_names = []
    for alpha in f.support():
        tag = _alpha_tag(alpha)
        y_name = f"y_{tag}"
        y_names.append(y_name)
        base = Constant(spec.base_gen(1, power=f._terms[alpha]))
        factors = _chain_factors(f, alpha, d)
        if not factors:
            chain_eqs.append(equation(Literal(y_name), base))
            chain_declared.append(y_name)
            continue
        cur = base
        for step in range(len(factors) - 1):
            name = f"c_{tag}_{step + 1}"
            chain_declared.append(name)
            chain_eqs.append(equation(Literal(name), Commutator(cur, _factor_word(factors[step], spec))))
            cur = Literal(name)
        chain_declared.append(y_name)
        chain_eqs.append(equation(
            Literal(y_name), Commutator(cur, _factor_word(factors[-1], spec))))
    parts.append(System(tuple(chain_eqs), solution_vars + tuple(chain_declared)))
    product_eq = equation(Literal("y"), concat(*[Literal(name) for name in y_names]))
    parts.append(System((product_eq,), ("y",) + tuple(y_names)))
    parts.append(gadget_delta_power("y", d + 1, spec).system)
    ordered = merge_systems(
        System((), solution_vars), *parts)
    return ReductionOutput(ordered, solution_vars, d, "y", s, spec)


def _factor_word(factor, spec):
    kind, index = factor
    if kind == "a":
        return Constant(spec.active_gen(1))
    return Literal(f"x{index}")


def witness(f, z, spec):
    """Satisfying assignment for `compile(f, spec)` from an integer root z."""
    z = tuple(z)
    if len(z) != f.num_vars:
        raise PreconditionError(f"expected {f.num_vars} solution values, got {len(z)}")
    value = f.evaluate(z)
    if value != 0:
        point = ",".join(str(v) for v in z)
        raise PreconditionError(f"not a root: f({point}) = {value}")
    if f.is_zero():
        return {}
    d = f.degree()
    asg = {}
    for i, zi in enumerate(z, start=1):
        asg.update(witness_cyclic(zi, spec, x_name=f"x{i}", z_name=f"cyc_z_{i}"))
    one = LaurentPoly.one(spec.m)
    a1_monomial = LaurentPoly.variable(spec.m, 1)
    y_value = spec.identity()
    for alpha in f.support():
        tag = _alpha_tag(alpha)
        cur = spec.base_gen(1, power=f._terms[alpha])
        factors = _chain_factors(f, alpha, d)
        for step, (kind, index) in enumerate(factors):
            if kind == "a":
                multiplier = a1_monomial - one
            else:
                zi = z[index - 1]
                expo = tuple(zi if v == 0 else 0 for v in range(spec.m))
                multiplier = LaurentPoly.monomial(spec.m, expo) - one
            cur = module_action(cur, multiplier)
            name = f"y_{tag}" if step == len(factors) - 1 else f"c_{tag}_{step + 1}"
            asg[name] = cur
        if not factors:
            asg[f"y_{tag}"] = cur
        y_value = y_value * cur
    asg["y"] = y_value
    asg.update(witness_delta_power(y_value, d + 1))
    return asg


def extract_solution(out, asg):
    """Read the integer root (z1..zs) off a satisfying assignment.

    Each solution variable must be assigned a pure power of a1; anything else
    signals an assignment outside the reduction's image and raises
    PreconditionError.  Variables absent from the system (zero polynomial)
    extract as 0.
    """
    values = []
    for name in out.solution_vars:
        try:
            g = asg[name]
        except KeyError:
            raise PreconditionError(f"assignment missing solution variable {name!r}") from None
        if not in_A(g) or any(g.active[1:]):
            raise PreconditionError(
                f"solution variable {name!r} is not a pure power of a1: {g}")
        values.append(g.active[0])
    if not out.solution_vars:
        return (0,) * out.num_vars
    return tuple(values)


def oracle_ef(f, z, rank=1):
    """Directly evaluate the membership polynomial and its ideal-power verdict.

    Returns (e_f, verdict) where verdict is True exactly when e_f lies in the
    (d+1)-st augmentation-ideal power, which happens iff f(z) = 0.
    """
    z = tuple(z)
    if len(z) != f.num_vars:
        raise PreconditionError(f"expected {f.num_vars} solution values, got {len(z)}")
    d = f.degree()
    one = LaurentPoly.one(rank)
    a1 = LaurentPoly.variable(rank, 1)
    e_f = LaurentPoly.zero(rank)
    for alpha, coeff in f._terms.items():
        term = LaurentPoly.constant(rank, coeff) * (a1 - one) ** (d - sum(alpha))
        for zi, e in zip(z, alpha):
            expo = tuple(zi if v == 0 else 0 for v in range(rank))
            term = term * (LaurentPoly.monomial(rank, expo) - one) ** e
        e_f = e_f + term
    return e_f, delta_membership(e_f, d + 1)
