"""Restricted wreath products Z^n wr Z^m in exact coordinate normal form.

An element is a pair (active, base): an integer exponent vector for the
acting free abelian group of rank m, and n Laurent-polynomial coordinates of
rank m for the base part, one per base generator.  Conjugating a base element
by the active monomial a^gamma multiplies every coordinate by a^gamma, which
turns the base subgroup into a free module over the group ring with the base
generators as basis.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from operator import add

from .errors import PreconditionError, SpecMismatchError
from .laurent import (LaurentPoly, _add_shifted, _shifted, binary_power,
                      delta_membership, poly_str, read_poly)
from .lexer import is_name, parse_whole


@dataclass(frozen=True)
class GroupSpec:
    """Ambient group Z^n wr Z^m: `m` active generators, `n` base generators."""

    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise PreconditionError(f"active rank must be a positive int, got {self.m!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise PreconditionError(f"base rank must be a positive int, got {self.n!r}")

    def identity(self):
        return WreathElement(self, (0,) * self.m, (LaurentPoly.zero(self.m),) * self.n)

    @property
    def ranks(self):
        """The rank list (n, m), outermost base first, as `interp.IteratedSpec` has it."""
        return (self.n, self.m)

    def active_gen(self, i, power=1):
        """The generator a_i of the acting group (1-based), optionally raised."""
        if not 1 <= i <= self.m:
            raise PreconditionError(f"active generator index {i} out of range 1..{self.m}")
        return WreathElement(
            self,
            tuple(power if j == i - 1 else 0 for j in range(self.m)),
            (LaurentPoly.zero(self.m),) * self.n)

    def base_gen(self, j, power=1):
        """The generator b_j of the base group (1-based), optionally raised."""
        if not 1 <= j <= self.n:
            raise PreconditionError(f"base generator index {j} out of range 1..{self.n}")
        return self.element(base={j: LaurentPoly.constant(self.m, power)})

    def element(self, active=None, base=None):
        """Build an element from an exponent vector and a {j: poly} mapping."""
        act = tuple(active) if active is not None else (0,) * self.m
        coords = [LaurentPoly.zero(self.m)] * self.n
        for j, poly in (base or {}).items():
            if not 1 <= j <= self.n:
                raise PreconditionError(f"base coordinate b{j} out of range 1..{self.n}")
            coords[j - 1] = poly
        return WreathElement(self, act, tuple(coords))

    def generator(self, level, j, power=1):
        """Generator j of `level` raised to `power`: level 1 is a_j, level 2 is b_j."""
        return self.active_gen(j, power) if level == 1 else self.base_gen(j, power)

    # Literal and generator-word bridge used by the system and assignment formats.
    def read_element(self, tokens):
        return read_element(tokens, self)

    def serialize_element(self, g):
        return element_str(g)

    def generator_word(self, g):
        """`@a<i>^e` or `@b<j>^e` when g is a nonzero power of one generator, else None."""
        if not any(g.active):
            nonzero = [(j, p._terms) for j, p in enumerate(g.base) if p._terms]
            if len(nonzero) == 1:
                j, terms = nonzero[0]
                c = terms.get((0,) * self.m)
                if c is not None and len(terms) == 1:
                    return power_word(f"b{j + 1}", c)
        elif all(p.is_zero() for p in g.base):
            nonzero = [(i, e) for i, e in enumerate(g.active) if e]
            if len(nonzero) == 1:
                i, e = nonzero[0]
                return power_word(f"a{i + 1}", e)
        return None


def group_power(g, exponent):
    """g ** exponent for any int exponent, by square-and-multiply."""
    if not isinstance(exponent, int):
        raise PreconditionError(f"group power must be an int, got {exponent!r}")
    if exponent < 0:
        g, exponent = g.inverse(), -exponent
    return binary_power(g, exponent, g.spec.identity())


class WreathElement:
    """Normal form a * f: active exponent vector plus base coordinates."""

    __slots__ = ("spec", "active", "base")

    def __init__(self, spec, active, base):
        active = tuple(active)
        base = tuple(base)
        if len(active) != spec.m or not all(isinstance(e, int) for e in active):
            raise PreconditionError(f"active vector {active!r} invalid for rank {spec.m}")
        if len(base) != spec.n:
            raise PreconditionError(f"expected {spec.n} base coordinates, got {len(base)}")
        for poly in base:
            if not isinstance(poly, LaurentPoly) or poly.rank != spec.m:
                raise PreconditionError(f"base coordinate {poly!r} must have rank {spec.m}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "base", base)

    @classmethod
    def _unchecked(cls, spec, active, base):
        """Results built from valid operands: no checks.

        `active` is an int tuple of length `spec.m` and `base` a tuple of
        `spec.n` rank-`spec.m` polynomials.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "spec", spec)
        object.__setattr__(g, "active", active)
        object.__setattr__(g, "base", base)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("WreathElement is immutable")

    def _check_spec(self, other):
        if not isinstance(other, WreathElement):
            raise SpecMismatchError(f"cannot combine WreathElement with {type(other).__name__}")
        if other.spec != self.spec:
            raise SpecMismatchError(f"group mismatch: {self.spec} vs {other.spec}")

    def __mul__(self, other):
        """(alpha, p)(beta, q) = (alpha + beta, p*a^beta + q), in O(n * terms)."""
        self._check_spec(other)
        m = self.spec.m
        shift = other.active
        active = tuple(map(add, self.active, shift))
        base = []
        for p, q in zip(self.base, other.base):
            out = _shifted(p._terms, shift)
            _add_shifted(out, q._terms, 1)
            base.append(LaurentPoly._unchecked(m, out))
        return WreathElement._unchecked(self.spec, active, tuple(base))

    def inverse(self):
        """(alpha, p)^-1 = (-alpha, -p*a^-alpha), in O(n * terms)."""
        m = self.spec.m
        neg = tuple(-x for x in self.active)
        base = tuple(LaurentPoly._unchecked(m, _shifted(p._terms, neg, -1)) for p in self.base)
        return WreathElement._unchecked(self.spec, neg, base)

    def commutator(self, other):
        """[g, h] in closed form, in O(n * terms) with no intermediate elements.

        For g = (alpha, p) and h = (beta, q), with (alpha, p)(beta, q) =
        (alpha + beta, p*a^beta + q) and (alpha, p)^-1 = (-alpha, -p*a^-alpha):

            g^-1 h^-1     = (-alpha - beta, -p*a^(-alpha-beta) - q*a^-beta)
            g^-1 h^-1 g   = (-beta, -p*a^-beta - q*a^(alpha-beta) + p)
            g^-1 h^-1 g h = (0, -p - q*a^alpha + p*a^beta + q)

        so [g, h] = (0, p*(a^beta - 1) - q*(a^alpha - 1)).  Each coordinate is
        built in one dict by four signed shift-adds; a zero alpha (beta)
        drops both q (p) terms.
        """
        self._check_spec(other)
        spec = self.spec
        alpha, beta = self.active, other.active
        move_p, move_q = any(beta), any(alpha)
        base = []
        for p, q in zip(self.base, other.base):
            out = {}
            if move_p:
                _add_shifted(out, p._terms, 1, beta)
                _add_shifted(out, p._terms, -1)
            if move_q:
                _add_shifted(out, q._terms, -1, alpha)
                _add_shifted(out, q._terms, 1)
            base.append(LaurentPoly._unchecked(spec.m, out))
        return WreathElement._unchecked(spec, (0,) * spec.m, tuple(base))

    __pow__ = group_power

    def is_identity(self):
        return not any(self.active) and all(p.is_zero() for p in self.base)

    def __eq__(self, other):
        if not isinstance(other, WreathElement):
            return NotImplemented
        return (self.spec == other.spec and self.active == other.active
                and self.base == other.base)

    def __hash__(self):
        return hash((self.spec, self.active, self.base))

    def sort_key(self):
        return (self.active,) + tuple(p.sort_key() for p in self.base)

    def __str__(self):
        return element_str(self)

    def __repr__(self):
        return f"WreathElement({element_str(self)!r})"


def left_normed_commutator(elements):
    """[g1, ..., gr] folded left: [[g1, g2], g3], ..."""
    elements = list(elements)
    if not elements:
        raise PreconditionError("left-normed commutator needs at least one element")
    acc = elements[0]
    for g in elements[1:]:
        acc = acc.commutator(g)
    return acc


def in_N(g):
    """True iff g lies in the base subgroup (active part trivial)."""
    return not any(g.active)


def in_A(g):
    """True iff g lies in the acting subgroup (all base coordinates zero)."""
    return all(p.is_zero() for p in g.base)


def module_action(u, p):
    """u^p for u in the base subgroup: multiply every coordinate by p."""
    if not in_N(u):
        raise PreconditionError("module action is defined on base-subgroup elements only")
    if p.rank != u.spec.m:
        raise SpecMismatchError(f"polynomial rank {p.rank} does not match active rank {u.spec.m}")
    return WreathElement._unchecked(u.spec, u.active, tuple(q * p for q in u.base))


def in_delta_power(g, k):
    """True iff g is in the base subgroup with every coordinate in the k-th ideal power.

    For k >= 1 this decides membership in the (k+1)-st lower-central-series
    term of the ambient wreath product.
    """
    return in_N(g) and all(delta_membership(p, k) for p in g.base)


# -- lower central series ----------------------------------------------------


@dataclass(frozen=True)
class LcsBasisElement:
    """Basis commutator [b_k, a_j1, ..., a_j(i-1)] with j1 <= ... <= j(i-1)."""

    k: int
    js: tuple

    def __post_init__(self):
        if list(self.js) != sorted(self.js):
            raise PreconditionError(f"conjugator indices {self.js!r} must be non-decreasing")

    def as_element(self, spec):
        parts = [spec.base_gen(self.k)] + [spec.active_gen(j) for j in self.js]
        return left_normed_commutator(parts)


def lcs_basis(i, spec):
    """Free basis of the i-th versus (i+1)-st lower-central-series quotient."""
    if not isinstance(i, int) or i < 2:
        raise PreconditionError(f"lower-central-series index must be an int >= 2, got {i!r}")
    out = []
    for k in range(1, spec.n + 1):
        for js in itertools.combinations_with_replacement(range(1, spec.m + 1), i - 1):
            out.append(LcsBasisElement(k, js))
    return out


def lcs_rank(i, spec):
    """Rank of the i-th lower-central-series quotient: n * C(i+m-2, m-1)."""
    if not isinstance(i, int) or i < 2:
        raise PreconditionError(f"lower-central-series index must be an int >= 2, got {i!r}")
    return spec.n * math.comb(i + spec.m - 2, spec.m - 1)


# -- element literals --------------------------------------------------------


def element_str(g):
    """Canonical literal: `{ active: (e1,...,em); b1: poly, ... }`."""
    vec = "(" + ",".join(str(e) for e in g.active) + ")"
    entries = [
        f"b{j + 1}: {poly_str(p)}" for j, p in enumerate(g.base) if not p.is_zero()]
    body = " " + ", ".join(entries) + " " if entries else " "
    return "{ active: " + vec + ";" + body + "}"


def parse_element(text, spec):
    """Parse the flat element literal; one tokenizer pass and one descent, O(len(text))."""
    return parse_whole(text, read_element, spec)


def read_element(tokens, spec):
    """`{ active: vector [;] { b<j>: poly [,] } }`; omitted base coordinates are zero."""
    tokens.expect("{")
    tokens.expect("active")
    tokens.expect(":")
    active = read_vector(tokens, spec.m)
    tokens.accept(";")
    base = {}
    while is_name(tokens.peek()):
        at = tokens.pos
        name = tokens.take()
        if not (name[0] == "b" and name[1:].isdigit()):
            raise tokens.error(f"malformed base entry {name!r}", at)
        j = int(name[1:])
        if not 1 <= j <= spec.n:
            raise tokens.error(f"base coordinate b{j} out of range 1..{spec.n}", at)
        if j in base:
            raise tokens.error(f"duplicate base coordinate b{j}", at)
        tokens.expect(":")
        base[j] = read_poly(tokens, spec.m)
        tokens.accept(",")
    tokens.expect("}")
    return spec.element(active=active, base=base)


def read_vector(tokens, length):
    """`( int {, int} [,] )` with exactly `length` entries."""
    at = tokens.pos
    tokens.expect("(")
    values = []
    while tokens.peek() != ")":
        values.append(tokens.signed_int())
        if not tokens.accept(","):
            break
    tokens.expect(")")
    if len(values) != length:
        raise tokens.error(f"vector has {len(values)} entries, expected {length}", at)
    return tuple(values)


# -- generator words -----------------------------------------------------------

# `@a<i>`, `@b<j>` or `@b<j>_<k>`; an index of more than 18 digits names no
# generator and is not converted.
_GENERATOR = re.compile(r"@([ab])([1-9][0-9]{0,17})(?:_([1-9][0-9]{0,17}))?\Z")


def power_word(name, exponent):
    """`@name`, with `^exponent` unless the exponent is 1."""
    return f"@{name}" if exponent == 1 else f"@{name}^{exponent}"


def read_generator(tokens, spec):
    """`@a<i>`, `@b<j>` or `@b<j>_<k>`, then an optional `^ exponent`: a generator power.

    Levels count outward from the acting group: `a<i>` is generator i of
    level 1 (rank `spec.ranks[-1]`), `b<j>` generator j of level 2, the base
    of the flat innermost Z^n wr Z^m, and `b<j>_<k>` with 3 <= k <= depth
    generator j of the base of level k, the group built from the innermost
    k ranks.  At every level above its own a generator stands for its
    embedding as a pure active part.  Any other name is malformed input.
    """
    at = tokens.pos
    token = tokens.take()
    match = _GENERATOR.match(token)
    ranks = spec.ranks
    if match is not None:
        letter, j, k = match.groups()
        level = 1 if letter == "a" else int(k) if k else 2
        j = int(j)
        named = k is None or (letter == "b" and 3 <= level <= len(ranks))
        if named and j <= ranks[-level]:
            power = tokens.signed_int() if tokens.accept("^") else 1
            return spec.generator(level, j, power)
    raise tokens.error(
        f"unknown generator {token!r} for ranks {','.join(map(str, ranks))}", at)
