"""Compiler from integer polynomial equations to group-equation systems.

Given f = sum_alpha t_alpha z^alpha of total degree d, the compiled system
over Z^n wr Z^m writes per-term commutator chains in the solution variables
x_i whose product carries the base coordinate

    e_f = sum_alpha t_alpha (a1-1)^(d-|alpha|) prod_i (a1^{z_i} - 1)^{alpha_i},

and requires that product to lie in the (d+1)-st augmentation-ideal power --
which holds exactly when f(z) = 0.  One ideal-power block says so: the
product is [y, a1, ..., a1] with d+1 copies of a1 and y in the base
subgroup.  The system writes this as one equation, the chains followed by
[a1, y, a1, ..., a1]: [a1, y] = [y, a1]^-1 lies in the base, and a chain is
linear in a base head, so that last commutator is [y, a1, ..., a1]^-1.  The
system is the same 2 equations over every Z^n wr Z^m, and no equation pins
an x_i: every chain starts at a base element, so it reads only the active
part of an x_i, and the retraction a_j -> 1 (j >= 2) maps the product to
e_f at the x_i's a1 exponents (see `Reduction.system`).  A `Reduction`
holds f and the group, flat or iterated: over a right-iterated group it
works over the innermost flat pair and carries the result up the tower.
The chains are written once, each one left-normed commutator: its `system`
equates their product with the ideal-power chain, lifted through the tower
by `equations.lift_system`.  Its `witness` builds the assignment from an
integer root without the chains: y is e_f divided by (a1-1)^(d+1), with
e_f built by `_membership_poly`, one shift-and-subtract pass per support
term, and no group word is evaluated.  So a check of the witness against the
system compares two independent computations of e_f, the chains' and the
polynomial's.  Its `extract_solution` reads a root back out of any
satisfying assignment, and `oracle_ef` decides membership from the same
`_membership_poly`, with no group layer at all.  `compile`, `witness` and
`extract_solution` are the module-level entry points to the same pipeline.
"""

from __future__ import annotations

from functools import cached_property

from .equations import Commutator, Constant, Literal, System, concat, equation, lift_system
from .errors import PreconditionError, SpecMismatchError, shown
from .laurent import (Frozen, LaurentPoly, _add_terms, _check_rank, _normal_terms,
                      _ordered_monomials, _terms_of, _times_differences, delta_decompose,
                      delta_membership, read_terms, terms_str)
from .lexer import parse_whole
from .wreath import GroupSpec


# Largest variable count `parse_intpoly` infers from text.  Every term stores
# one exponent per variable and `compile` writes one equation per variable, so
# without a cap `z1000000 + z1 - 2` would cost millions of tuple entries and
# equations before any check ran; an index above the cap is refused as it is
# read.  The cap keeps every accepted input small (`z256 + z1 - 2` compiles
# over Z wr Z to a 26 KB system) and refuses nothing in use: the tests, the
# README and the benchmark have at most three variables.
MAX_VARIABLES = 256


class IntPolynomial(Frozen):
    """Sparse integer polynomial in variables z1..zs with non-negative exponents."""

    __slots__ = ("num_vars", "_terms")

    def __init__(self, num_vars, terms=None):
        if type(num_vars) is not int or num_vars < 0:
            raise PreconditionError(f"variable count must be a non-negative int, got {num_vars!r}")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_terms",
                           _normal_terms(terms, num_vars, "{} variables", nonnegative=True))

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
        return _ordered_monomials(self._terms)

    # Its own `==` and `hash`: `Frozen`'s hash of the fields fails on the term dict.
    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self._terms == other._terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self._terms.items())))

    def __str__(self):
        return terms_str(self._terms, "z")

    def __repr__(self):
        return f"IntPolynomial({self.num_vars}, {str(self)!r})"


def parse_intpoly(text, num_vars=None):
    """Parse `z1^2*z2 - 3*z1 + 7`; variable count is inferred when not given.

    The sum-of-monomials grammar of `laurent.read_terms` with letter `z` and
    non-negative exponents: one tokenizer pass and one descent, O(len(text)).
    An inferred count above `MAX_VARIABLES` is a PreconditionError.
    """
    return IntPolynomial(*parse_whole(text, read_terms, "z", num_vars,
                                      negative_exponents=False, max_rank=MAX_VARIABLES))


# -- the reduction ---------------------------------------------------------------


class Reduction(Frozen):
    """The reduction of the integer polynomial `poly` over the group `spec`.

    `spec` is any group `interp.spec_for_ranks` returns: a flat `GroupSpec`,
    or an `IteratedSpec` whose innermost two ranks are a flat pair.  The
    reduction works over that flat pair, and over a tower it lifts the
    system, embeds the witness values and projects solution values back.
    `system` is compiled on first access and kept; `witness` and
    `extract_solution` need only `poly` and `spec`, so a caller that never
    reads the system never compiles it.  A reduction has a `__dict__`, where
    `cached_property` keeps what it builds.
    """

    _fields = ("poly", "spec")

    def __init__(self, poly, spec):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "spec", spec)

    @cached_property
    def solution_vars(self):
        """The solution variables x1..xs; zero f compiles to a system without them."""
        return () if self.poly.is_zero() else tuple(f"x{i + 1}" for i in range(self.num_vars))

    @property
    def num_vars(self):
        return self.poly.num_vars

    @cached_property
    def _tower(self):
        """The groups from the innermost flat pair out to `spec`, each the
        `inner()` of the next: `(spec,)` for a `GroupSpec`, L - 1 groups at
        depth L, walked once per reduction.  A spec of neither kind is a
        PreconditionError."""
        tower = [self.spec]
        while not isinstance(tower[-1], GroupSpec):
            if not hasattr(tower[-1], "inner"):
                raise PreconditionError(
                    f"a reduction needs a GroupSpec or an IteratedSpec, got {self.spec!r}")
            tower.append(tower[-1].inner())
        return tuple(reversed(tower))

    @cached_property
    def _chains(self):
        """The commutator chain of each support term over the flat pair, in
        order; built once per reduction, by `system`.

        Per support term alpha (degree-lex descending), the left-normed
        commutator [b1^{t_alpha}, a1, ..., a1, x_1, ..., x_s] of b1^{t_alpha}
        with a1 (d-|alpha| times), then with x_i (alpha_i times, i
        ascending); a term with no factors is b1^{t_alpha} itself.  Their
        product carries e_f.  O(t * d) word nodes for t terms.
        """
        spec = self._tower[0]
        f = self.poly
        d = f.degree()
        a1 = Constant(spec.generator(1, 1))
        xs = [Literal(x) for x in self.solution_vars]
        chains = []
        for alpha in f.support():
            base = Constant(spec.generator(2, 1, f._terms[alpha]))
            factors = [a1] * (d - sum(alpha)) + [
                x for x, reps in zip(xs, alpha) for _ in range(reps)]
            chains.append(Commutator(base, *factors) if factors else base)
        return tuple(chains)

    @cached_property
    def system(self):
        """A group-equation system solvable iff f has an integer root.

        Zero f compiles to the empty system (every tuple is a root).
        Otherwise, whatever the active rank m, the system is, in this order,

            [y, b1] = 1,
            [chain_1] ... [chain_t] [a1, y, a1, ..., a1] = 1

        over x_1, ..., x_s and y, with the support terms' chains (`_chains`)
        in order and k = d+1 copies of a1 in the last commutator, one before
        y and d after it.  [y, b1] = 1 puts y in the base subgroup B, the
        centralizer of b1.  B is abelian and normal, so for u in B the
        commutator [u, g] depends only on the active part of g, and
        u -> [u, g] is a homomorphism of B: it multiplies each base
        coordinate by a^gamma - 1 for g = a^gamma c.  Every chain starts at
        a base element, so it reads only the active part a^{gamma_i} of each
        x_i and never its base part, and it is linear in its head.  With
        [a1, y] = [y, a1]^-1 the last commutator is [y, a1, ..., a1]^-1 (k
        copies), which reads only y's base part, so the last equation says
        that the product of the chains has each base coordinate (a1-1)^k
        times that of y.  That product has only a b1 coordinate, e_f(gamma),
        which is the module docstring's e_f with each a1^{z_i} replaced by
        a^{gamma_i}.  This is the block beta = (k, 0, ..., 0) of
        `gadgets.gadget_delta_power`, with the product in place of its
        x_beta and y in place of its y_beta.

        The retraction phi: a_j -> 1 (j >= 2) is a ring map of Z[A] onto
        Z[a1^{+-1}] that fixes Z[a1^{+-1}].  It maps e_f(gamma) to e_f(z),
        where z_i is the a1 exponent of gamma_i, and (a1-1)^k q to
        (a1-1)^k phi(q).  Soundness: a solution has e_f(gamma) = (a1-1)^k q,
        so (a1-1)^k divides e_f(z) in Z[a1^{+-1}], where Delta^k is
        (a1-1)^k Z[a1^{+-1}]; so f(z) = 0.  Completeness: a root z with
        x_i = a1^{z_i} puts e_f(z) in Z[a1^{+-1}] and in Delta^k, whose image
        under phi is (a1-1)^k Z[a1^{+-1}]; so e_f(z) = phi(e_f(z)) is
        (a1-1)^k q for some q in Z[a1^{+-1}], and y = b1^q.  The active
        parts of the x_i pin y, since (a1-1)^k is not a zero divisor of
        Z[A]; their base parts are free, and no equation reads them.

        Size, for s variables and degree d, whatever m and the number t of
        support terms: 2 equations and s + 1 variables, whose words hold t
        chains of at most d factors and one chain of d + 1, built in time
        linear in their size.  The text does not depend on (n, m).  Its
        variables x1..xs and y are valid, distinct and cover every free
        variable, so it is built unchecked, with no walk of its words.

        Over an `IteratedSpec` of depth L the flat system is lifted through
        every level above the flat pair in one `lift_system` pass, with the
        first generator of each level's outermost base copy: each equation
        w = 1 becomes [w, b1_3, ..., b1_L] = 1, with no variable added.
        O(S + E·L) for a flat system of size S with E equations.
        """
        flat, *outer = self._tower
        if self.poly.is_zero():
            system = System()
        else:
            a1, y = Constant(flat.generator(1, 1)), Literal("y")
            ideal_power = Commutator(a1, y, *[a1] * self.poly.degree())
            system = System._unchecked((equation(Commutator(y, Constant(flat.generator(2, 1)))),
                                        equation(concat(*self._chains, ideal_power))),
                                       self.solution_vars + ("y",))
        return lift_system(system, *(g.base_gen(1) for g in outer)) if outer else system

    def witness(self, z):
        """Satisfying assignment for `system` from an integer root z; builds no system.

        Each x_i is a1^{z_i}, one generator.  y is b1^q for the quotient q
        of e_f by (a1-1)^(d+1), unique since the active parts of the x_i pin
        y (see `system`).  e_f comes from `_membership_poly`, O(t * 2^d)
        dict updates for t support terms, with no group word built or
        evaluated; q from `delta_decompose`: O(T log T + d * E) additions on
        T terms of a1-span E, free of a2..am, a dense row along a1 once it
        has 32 terms or more.  Over an `IteratedSpec` each value is then
        embedded straight into `spec`: one spec check and one wrapper per
        value, O(1) per value in the depth.
        """
        spec = self._tower[0]
        f = self.poly
        z = tuple(z)
        if len(z) != f.num_vars:
            raise PreconditionError(f"expected {f.num_vars} solution values, got {len(z)}")
        value = f.evaluate(z)
        if value != 0:
            point = ",".join(map(shown, z))
            raise PreconditionError(f"not a root: f({point}) = {shown(value)}")
        if f.is_zero():
            return {}
        asg = {x: spec.generator(1, 1, zi) for x, zi in zip(self.solution_vars, z)}
        k = f.degree() + 1
        y = delta_decompose(_membership_poly(f, z, spec.m), k)
        asg["y"] = spec.element(base={1: y[(k,) + (0,) * (spec.m - 1)]} if y else None)
        if spec is not self.spec:
            asg = {name: self.spec.embed(value) for name, value in asg.items()}
        return asg

    def extract_solution(self, assignment):
        """Read the integer root (z1..zs) off a satisfying assignment.

        Each solution variable must be assigned an element of `spec`
        (SpecMismatchError otherwise).  z_i is the a1 exponent of x_i,
        whatever its a2..am exponents and its base part, which no equation
        reads: by the retraction of `system`'s proof, z is a root whenever
        the assignment satisfies the system.  Over an `IteratedSpec` each
        value is first projected down to the flat pair: a solution of the
        lifted system projects to one of the flat system (see
        `lift_system`).  Variables absent from the
        system (zero polynomial) extract as 0.  One lookup, one spec
        comparison and one projection per level for each solution variable:
        O(s·L) for s variables at depth L, whatever the size of the system or
        of the values.
        """
        spec, levels = self.spec, len(self._tower) - 1
        values = []
        for name in self.solution_vars:
            try:
                g = assignment[name]
            except KeyError:
                raise PreconditionError(f"assignment missing solution variable {name!r}") from None
            if g.spec != spec:
                raise SpecMismatchError(
                    f"solution variable {name!r} belongs to {g.spec}, not {spec}")
            for _ in range(levels):
                g = g.project()
            values.append(g.active[0])
        return tuple(values) if self.solution_vars else (0,) * self.num_vars


def compile(f, spec):
    """The `Reduction` of f over the flat or iterated group `spec`, its system built."""
    reduction = Reduction(f, spec)
    reduction.system  # built here, so its cost falls to compiling
    return reduction


def witness(f, z, spec):
    """`Reduction(f, spec).witness(z)`: a satisfying assignment from a root z."""
    return Reduction(f, spec).witness(z)


def extract_solution(reduction, assignment):
    """`reduction.extract_solution(assignment)`, for a flat or iterated reduction."""
    return reduction.extract_solution(assignment)


def oracle_ef(f, z, rank=1):
    """Directly evaluate the membership polynomial and its ideal-power verdict.

    Returns (e_f, verdict) where verdict is True exactly when e_f lies in the
    (d+1)-st augmentation-ideal power, which happens iff f(z) = 0.  Costs one
    `_membership_poly`, O(t * 2^d) dict updates for t support terms, and one
    `delta_membership`, that is one `aug_valuation` of e_f.
    """
    e_f = _membership_poly(f, z, rank)
    return e_f, delta_membership(e_f, f.degree() + 1)


def _membership_poly(f, z, rank):
    """The membership polynomial e_f at z, over rank `rank` (see the module docstring).

    The one builder of e_f.  Each support term alpha is the constant t_alpha
    times d - |alpha| factors a1 - 1 and alpha_i factors a1^{z_i} - 1: one
    `_times_differences` shift-and-subtract on a term dict, which at most
    doubles the terms per factor, so a term costs O(2^d) dict updates (O(d^2)
    for s = 1) and no ring product.  The terms accumulate into one dict, in
    O(T) updates for T terms in all, at most t * 2^d for t support terms.
    """
    z = tuple(z)
    if len(z) != f.num_vars:
        raise PreconditionError(f"expected {f.num_vars} solution values, got {len(z)}")
    _check_rank(rank)
    pad = (0,) * (rank - 1)
    moves = [(zi,) + pad for zi in z]
    for zi, move in zip(z, moves):
        if f._terms and type(zi) is not int:
            raise PreconditionError(f"exponent vector {move!r} invalid for rank {rank}")
    d = f.degree()
    a1 = (1,) + pad
    terms = {}
    for alpha, coeff in f._terms.items():
        shifts = [a1] * (d - sum(alpha)) + [
            move for move, reps in zip(moves, alpha) for _ in range(reps)]
        term = LaurentPoly.constant(rank, coeff)
        _add_terms(terms, _terms_of(_times_differences(term, shifts) if shifts else term), 1)
    return LaurentPoly._unchecked(rank, terms)
