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
from operator import add

from .errors import PreconditionError, SpecMismatchError, shown
from .laurent import (Frozen, LaurentPoly, _canonical_terms, _shift, _sum, _terms_of,
                      _times_differences, binary_power, delta_membership, read_poly)
from .lexer import is_name, parse_whole


# Largest rank entry accepted, in a `GroupSpec` or an `interp.IteratedSpec`.
# An element holds an exponent vector of m entries and n coordinates of rank
# m, so an entry of 10^20 ended in an OverflowError and one of 10^8 in a
# MemoryError as the identity was built.  Group operations cost O(n * m) at
# worst (a `z1*z2 - 6` witness over 20000,20000 verifies in about 4 s on a
# 2-core host); the cap admits the largest entry in use, the `lcs-rank
# --ranks 1,20000 --i 20000` probe, which the digit limit refuses.
MAX_RANK = 20000


def check_ranks(ranks):
    """Refuse a list of int ranks with an entry above `MAX_RANK` (PreconditionError)."""
    if max(ranks) > MAX_RANK:
        raise PreconditionError(f"each rank must be at most {MAX_RANK}, got {shown(max(ranks))}")


class GroupSpec(Frozen):
    """Ambient group Z^n wr Z^m: `m` active generators, `n` base generators.

    Each rank must be a positive int (a bool is not one) of at most
    `MAX_RANK`.  Every element operation compares specs; `Frozen`'s `==`
    tests identity first.
    """

    __slots__ = ("m", "n", "_identity")
    _fields = ("m", "n")

    def __init__(self, m, n):
        if not (type(m) is int and m >= 1):
            raise PreconditionError(f"active rank must be a positive int, got {m!r}")
        if not (type(n) is int and n >= 1):
            raise PreconditionError(f"base rank must be a positive int, got {n!r}")
        check_ranks((m, n))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_identity", self.element())

    def identity(self):
        return self._identity

    @property
    def ranks(self):
        """The rank list (n, m), outermost base first, as `interp.IteratedSpec` has it."""
        return (self.n, self.m)

    def active_gen(self, i, power=1):
        """The generator a_i of the acting group (1-based), optionally raised.

        One `generator(1, i, power)` call, O(m + n)."""
        return self.generator(1, i, power)

    def base_gen(self, j, power=1):
        """The generator b_j of the base group (1-based), optionally raised.

        One `generator(2, j, power)` call, O(m + n)."""
        return self.generator(2, j, power)

    def element(self, active=None, base=None):
        """Build an element from an exponent vector and a {j: poly} mapping."""
        act = tuple(active) if active is not None else (0,) * self.m
        coords = [LaurentPoly.zero(self.m)] * self.n
        for j, poly in (base or {}).items():
            if type(j) is not int or not 1 <= j <= self.n:
                raise PreconditionError(f"base coordinate b{j} out of range 1..{self.n}")
            coords[j - 1] = poly
        return WreathElement(self, act, tuple(coords))

    def generator(self, level, j, power=1):
        """Generator j of `level` raised to `power`: level 1 is a_j, level 2 is b_j.

        The one builder of a generator power, `active_gen` and `base_gen`
        included.  `level`, `j` and `power` must each be an int (a bool is
        not), the level 1 or 2 as `interp.IteratedSpec` refuses one outside
        its levels, and the index in 1..m or 1..n.  Power 0 is the shared
        identity; any other power is built unchecked in O(m + n).
        """
        if type(level) is not int or not 1 <= level <= 2:
            raise PreconditionError(f"generator level {level} out of range 1..2")
        m = self.m
        active = level == 1
        rank = m if active else self.n
        if type(j) is not int or not 1 <= j <= rank:
            raise PreconditionError(
                f"{'active' if active else 'base'} generator index {j} out of range 1..{rank}")
        zeros = self._identity.base
        if active:
            vector = (0,) * (j - 1) + (power,) + (0,) * (m - j)
            if type(power) is not int:
                raise PreconditionError(f"active vector {vector!r} invalid for rank {m}")
            return WreathElement._unchecked(self, vector, zeros) if power else self._identity
        if type(power) is not int:
            raise PreconditionError(f"coefficient {power!r} is not an int")
        if not power:
            return self._identity
        coordinate = LaurentPoly._unchecked(m, {(0,) * m: power})
        return WreathElement._unchecked(self, (0,) * m, zeros[:j - 1] + (coordinate,) + zeros[j:])

    # Literal and generator-word bridge used by the system and assignment formats.
    def read_element(self, tokens):
        return read_element(tokens, self)

    def read_canonical(self, text):
        """The element `text` spells if it is written as `str` writes it, else None."""
        return _read_canonical(text, self)

    def generator_word(self, g):
        """`@a<i>^e` or `@b<j>^e` when g is a nonzero power of one generator, else None."""
        if not any(g.active):
            nonzero = [(j, _terms_of(p)) for j, p in enumerate(g.base) if p]
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
    """g ** exponent for any int exponent (a bool is not one), by square-and-multiply."""
    if type(exponent) is not int:
        raise PreconditionError(f"group power must be an int, got {exponent!r}")
    if exponent < 0:
        g, exponent = g.inverse(), -exponent
    return binary_power(g, exponent, g.spec.identity())


class WreathElement(Frozen):
    """Normal form a * f: active exponent vector plus base coordinates.

    The constructor checks its arguments: `active` holds `spec.m` ints (a
    bool is not one) and `base` holds `spec.n` polynomials of rank `spec.m`.
    """

    __slots__ = ("spec", "active", "base")

    def __new__(cls, spec, active, base):
        active = tuple(active)
        base = tuple(base)
        if len(active) != spec.m or not all(type(e) is int for e in active):
            raise PreconditionError(f"active vector {active!r} invalid for rank {spec.m}")
        if len(base) != spec.n:
            raise PreconditionError(f"expected {spec.n} base coordinates, got {len(base)}")
        for poly in base:
            if not isinstance(poly, LaurentPoly) or poly.rank != spec.m:
                raise PreconditionError(f"base coordinate {poly!r} must have rank {spec.m}")
        return cls._unchecked(spec, active, base)

    @classmethod
    def _unchecked(cls, spec, active, base):
        """Results built from valid operands: no checks.

        `active` is an int tuple of length `spec.m` and `base` a tuple of
        `spec.n` rank-`spec.m` polynomials.  The one function that fills
        the slots, through their own setters (`_set_spec` and the rest).
        """
        g = object.__new__(cls)
        _set_spec(g, spec)
        _set_active(g, active)
        _set_base(g, base)
        return g

    def _check_spec(self, other):
        if not isinstance(other, WreathElement):
            raise SpecMismatchError(f"cannot combine WreathElement with {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise SpecMismatchError(f"group mismatch: {self.spec} vs {other.spec}")

    def __mul__(self, other):
        """(alpha, p)(beta, q) = (alpha + beta, p*a^beta + q): one `laurent._sum` per coordinate.

        Each pair of coordinates takes O(|p| + |q|) dict operations, a row
        read as its term dict; the sum is held by the density rule
        (`laurent._DENSE_MIN_TERMS`).
        """
        self._check_spec(other)
        shift = other.active
        active = tuple(map(add, self.active, shift))
        base = tuple(map(_sum, other.base, self.base, itertools.repeat(1),
                         itertools.repeat(shift)))
        return WreathElement._unchecked(self.spec, active, base)

    def inverse(self):
        """(alpha, p)^-1 = (-alpha, -p*a^-alpha): one `laurent._shift` per coordinate.

        Each coordinate is one comprehension over its terms, O(terms), a row
        read as its term dict; the result is held by the density rule.
        """
        neg = tuple(-x for x in self.active)
        base = tuple(map(_shift, self.base, itertools.repeat(neg), itertools.repeat(-1)))
        return WreathElement._unchecked(self.spec, neg, base)

    def commutator(self, other, *more):
        """The left-normed [g, h1, ..., hk] = [...[[g, h1], h2]..., hk] in closed form.

        For g = (alpha, p) and h = (beta, q), with (alpha, p)(beta, q) =
        (alpha + beta, p*a^beta + q) and (alpha, p)^-1 = (-alpha, -p*a^-alpha):

            g^-1 h^-1     = (-alpha - beta, -p*a^(-alpha-beta) - q*a^-beta)
            g^-1 h^-1 g   = (-beta, -p*a^-beta - q*a^(alpha-beta) + p)
            g^-1 h^-1 g h = (0, -p - q*a^alpha + p*a^beta + q)

        so [g, h] = (0, p*(a^beta - 1) - q*(a^alpha - 1)).  A zero alpha
        (beta) drops both q (p) terms.  That bracket has a trivial active
        part, so each later factor h_j = (beta_j, q_j) multiplies every
        coordinate by a^beta_j - 1, and a later factor with beta_j = 0 makes
        the whole chain the identity.  So each coordinate is the first
        bracket times prod_{j>=2} (a^beta_j - 1), one
        `laurent._times_differences` call; when only one side of the first
        bracket moves, its a^beta - 1 (or -(a^alpha - 1)) joins the same
        call.  No intermediate element is built.

        Cost per coordinate, for k factors: on a row (at least 32 terms, one
        tail past a1, at least half full) whose factors all move a1, each
        factor is one C-level `map(sub)`, O(k * cells), and only the result,
        if it has few terms, becomes a dict; on a dict, each factor is a
        shifted copy and one accumulation loop, O(k * T) dict updates for T
        the largest intermediate term count.  When both sides of the first
        bracket move, it is two such factors and one `laurent._sum`, which
        works on term dicts, O(|p| + |q|).
        """
        self._check_spec(other)
        later = []
        for h in more:
            self._check_spec(h)
            later.append(h.active)
        spec = self.spec
        alpha, beta = self.active, other.active
        move_p, move_q = any(beta), any(alpha)
        if not (move_p or move_q) or (later and not all(map(any, later))):
            return spec._identity
        base = []
        for p, q in zip(self.base, other.base):
            if move_p and move_q:
                out = _sum(_times_differences(p, [beta]), _times_differences(q, [alpha]), -1)
                if later:
                    out = _times_differences(out, later)
            elif move_p:
                out = _times_differences(p, [beta] + later)
            else:
                out = _times_differences(q, [alpha] + later, -1)
            base.append(out)
        return WreathElement._unchecked(spec, (0,) * spec.m, tuple(base))

    __pow__ = group_power

    def is_identity(self):
        return not any(self.active) and all(p.is_zero() for p in self.base)

    # Its own `==` and `hash`: `Frozen`'s field loop ran iterated-depth 5-10% slower.
    def __eq__(self, other):
        if not isinstance(other, WreathElement):
            return NotImplemented
        return (self.spec == other.spec and self.active == other.active
                and self.base == other.base)

    def __hash__(self):
        """The hash of the parts; the spec is left out, since equal elements share one."""
        return hash((self.active, self.base))

    def sort_key(self):
        return (self.active,) + tuple(p.sort_key() for p in self.base)

    def __str__(self):
        """Canonical literal: `{ active: (e1,...,em); b1: poly, ... }`."""
        vec = "(" + ",".join(str(e) for e in self.active) + ")"
        entries = [
            f"b{j + 1}: {p}" for j, p in enumerate(self.base) if not p.is_zero()]
        body = " " + ", ".join(entries) + " " if entries else " "
        return "{ active: " + vec + ";" + body + "}"

    def __repr__(self):
        return f"WreathElement({str(self)!r})"


# The slots' own setters, which `WreathElement._unchecked` calls past `Frozen.__setattr__`.
_set_spec, _set_active, _set_base = (WreathElement.__dict__[name].__set__
                                     for name in WreathElement.__slots__)


def left_normed_commutator(elements):
    """[g1, ..., gr] = [[g1, g2], g3], ...: one variadic `commutator` call.

    For flat elements that is one first bracket plus O(r * cells) on dense
    rows, else O(r * T) dict updates, per coordinate; a single element is
    returned as it is.
    """
    elements = list(elements)
    if not elements:
        raise PreconditionError("left-normed commutator needs at least one element")
    first, *rest = elements
    return first.commutator(*rest) if rest else first


def in_N(g):
    """True iff g lies in the base subgroup (active part trivial)."""
    return not any(g.active)


def in_A(g):
    """True iff g lies in the acting subgroup (all base coordinates zero)."""
    return all(p.is_zero() for p in g.base)


def module_action(u, p):
    """u^p for u in the base subgroup: multiply every coordinate by p.

    n polynomial products, the one of coordinate q in O(|q| * |p|)
    coefficient products.
    """
    if not in_N(u):
        raise PreconditionError("module action is defined on base-subgroup elements only")
    if p.rank != u.spec.m:
        raise SpecMismatchError(f"polynomial rank {p.rank} does not match active rank {u.spec.m}")
    return WreathElement._unchecked(u.spec, u.active, tuple(q * p for q in u.base))


def in_delta_power(g, k):
    """True iff g is in the base subgroup with every coordinate in the k-th ideal power.

    For k >= 1 this decides membership in the (k+1)-st lower-central-series
    term of the ambient wreath product.  Costs one `delta_membership`, so one
    `aug_valuation`, per base coordinate.
    """
    return in_N(g) and all(delta_membership(p, k) for p in g.base)


# -- lower central series ----------------------------------------------------


class LcsBasisElement(Frozen):
    """Basis commutator [b_k, a_j1, ..., a_j(i-1)] with j1 <= ... <= j(i-1)."""

    __slots__ = _fields = ("k", "js")

    def __init__(self, k, js):
        if list(js) != sorted(js):
            raise PreconditionError(f"conjugator indices {js!r} must be non-decreasing")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "js", js)

    def as_element(self, spec):
        parts = [spec.base_gen(self.k)] + [spec.active_gen(j) for j in self.js]
        return left_normed_commutator(parts)


def lcs_basis(i, spec):
    """Free basis of the i-th versus (i+1)-st lower-central-series quotient."""
    if type(i) is not int or i < 2:
        raise PreconditionError(f"lower-central-series index must be an int >= 2, got {i!r}")
    out = []
    for k in range(1, spec.n + 1):
        for js in itertools.combinations_with_replacement(range(1, spec.m + 1), i - 1):
            out.append(LcsBasisElement(k, js))
    return out


def lcs_rank(i, spec):
    """Rank of the i-th lower-central-series quotient: n * C(i+m-2, m-1)."""
    if type(i) is not int or i < 2:
        raise PreconditionError(f"lower-central-series index must be an int >= 2, got {i!r}")
    return spec.n * math.comb(i + spec.m - 2, spec.m - 1)


# -- element literals --------------------------------------------------------


def parse_element(text, spec):
    """Parse the flat element literal; one tokenizer pass and one descent, O(len(text))."""
    return parse_whole(text, read_element, spec)


# The literal `WreathElement.__str__` writes, separators exactly as written:
# the active vector's entries, then the `b<j>: <poly>` entries, if any.
_CANONICAL_ELEMENT = re.compile(
    r"\{ active: \((-?[0-9]+(?:,-?[0-9]+)*)\);"
    r"(?: (b[0-9]+: [^,{}]+(?:, b[0-9]+: [^,{}]+)*))? \}\Z")


def _read_canonical(text, spec):
    """The element `text` spells if it is a literal as `str(WreathElement)` writes it, else None.

    A second reader of the flat literal, for the assignment fast path.  It
    returns None, leaving the text to `read_element`, wherever it is not
    certain of the same value: any other spacing or separator, a vector of
    the wrong length, a base index out of range or repeated, an integer too
    long for `int()`, and each coordinate `laurent._canonical_terms`
    declines.  Cost: one regex match of the frame, one split of the vector
    and of the entries, and one `_canonical_terms` per coordinate, O(len(text)).
    """
    match = _CANONICAL_ELEMENT.match(text)
    if match is None:
        return None
    vector, entries = match.groups()
    m = spec.m
    zero = LaurentPoly._unchecked(m, {})
    base = [zero] * spec.n
    try:
        active = tuple(map(int, vector.split(",")))
        for entry in entries.split(", ") if entries else ():
            name, _, poly = entry.partition(": ")
            j = int(name[1:])
            if not 1 <= j <= spec.n or base[j - 1] is not zero:
                return None
            terms = _canonical_terms(poly, m)
            if terms is None:
                return None
            base[j - 1] = LaurentPoly._unchecked(m, terms)
    except ValueError:  # an integer of more digits than `int()` converts
        return None
    if len(active) != m:
        return None
    return WreathElement._unchecked(spec, active, tuple(base))


def read_element(tokens, spec):
    """`{ active: vector [;] { b<j>: poly [,] } }`; omitted base coordinates are zero.

    The grammar checks the vector's length, each coordinate's index and
    that none repeats, and `read_poly` reads each coordinate in normal
    form, so the element is built with no second check; the omitted
    coordinates share one zero polynomial.
    """
    tokens.expect("{")
    tokens.expect("active")
    tokens.expect(":")
    active = read_vector(tokens, spec.m)
    tokens.accept(";")
    zero = LaurentPoly._unchecked(spec.m, {})
    base = [zero] * spec.n
    while is_name(tokens.peek()):
        at = tokens.pos
        name = tokens.take()
        if not (name[0] == "b" and name[1:].isdigit()):
            raise tokens.error(f"malformed base entry {name!r}", at)
        # An index of more than 18 digits exceeds every rank; it is not
        # converted, since int() refuses long enough digit strings.
        j = int(name[1:]) if len(name) <= 19 else math.inf
        if not 1 <= j <= spec.n:
            if j == math.inf:
                raise tokens.error(f"base coordinate index of {len(name) - 1} digits "
                                   f"out of range 1..{spec.n}", at)
            raise tokens.error(f"base coordinate b{j} out of range 1..{spec.n}", at)
        if base[j - 1] is not zero:
            raise tokens.error(f"duplicate base coordinate b{j}", at)
        tokens.expect(":")
        base[j - 1] = read_poly(tokens, spec.m)
        tokens.accept(",")
    tokens.expect("}")
    return WreathElement._unchecked(spec, active, tuple(base))


def read_vector(tokens, length):
    """`( int {, int} [,] )` with exactly `length` entries; O(length)."""
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
