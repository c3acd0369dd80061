"""Sparse exact-integer Laurent polynomials and augmentation-ideal tools.

Polynomials live in Z[a1, a1^-1, ..., am, am^-1], the integer group ring of a
free abelian group of rank m written multiplicatively.  Coefficients are plain
Python ints, so every operation is exact.  The augmentation ideal -- the
kernel of the sum-of-coefficients map, generated by a1-1, ..., am-1 -- induces
the valuation computed by :func:`aug_valuation`; membership in its k-th power
is decided exactly by :func:`delta_membership` and witnessed constructively by
:func:`delta_decompose`.
"""

from __future__ import annotations

import itertools
import math
from operator import add
from types import MappingProxyType

from .errors import PreconditionError, SpecMismatchError
from .lexer import is_int, parse_whole

# Exponent vectors are plain int tuples; the all-zero tuple is the identity
# monomial.
Monomial = tuple

#: Valuation of the zero polynomial (compares above every integer).
INFINITY = math.inf


def binary_power(x, exponent, one):
    """x ** exponent for an int exponent >= 0 by square-and-multiply.

    `one` is the neutral element of `*`; the cost is O(log exponent) products.
    """
    result = one
    while exponent:
        if exponent & 1:
            result = result * x
        x = x * x if exponent > 1 else x
        exponent >>= 1
    return result


def _check_rank(rank):
    if not isinstance(rank, int) or rank < 1:
        raise PreconditionError(f"polynomial rank must be a positive int, got {rank!r}")


def _shifted(terms, shift, sign=1):
    """The term dict of sign * a^shift * terms, in one pass; `sign` is 1 or -1.

    Shifting is a bijection on monomials, so no terms merge or cancel.
    """
    if any(shift):
        return {tuple(map(add, mono, shift)): sign * c for mono, c in terms.items()}
    if sign > 0:
        return dict(terms)
    return {mono: -c for mono, c in terms.items()}


def _add_shifted(out, terms, sign, shift=None):
    """out += sign * a^shift * terms in place, dropping zeros; O(terms).

    `sign` is 1 or -1; `shift` None adds the terms unshifted.
    """
    get = out.get
    items = terms.items() if shift is None else (
        (tuple(map(add, mono, shift)), c) for mono, c in terms.items())
    for mono, c in items:
        s = get(mono, 0) + sign * c
        if s:
            out[mono] = s
        else:
            del out[mono]


class LaurentPoly:
    """A finitely supported integer combination of monomials a^gamma.

    Instances are immutable; `terms` maps exponent vectors of length `rank`
    to nonzero int coefficients.  Two polynomials are equal iff they have the
    same rank and the same term mapping.
    """

    __slots__ = ("rank", "_terms")

    def __init__(self, rank, terms=None):
        _check_rank(rank)
        items = terms.items() if hasattr(terms, "items") else (terms or ())
        clean = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != rank or not all(isinstance(e, int) for e in mono):
                raise PreconditionError(
                    f"exponent vector {mono!r} invalid for rank {rank}")
            if not isinstance(coeff, int):
                raise PreconditionError(f"coefficient {coeff!r} is not an int")
            if coeff:
                clean[mono] = clean.get(mono, 0) + coeff
                if not clean[mono]:
                    del clean[mono]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _unchecked(cls, rank, terms):
        """Results built from valid operands: no checks, no copy.

        `terms` must already be in normal form -- exponent tuples of length
        `rank` mapped to nonzero ints -- and belongs to the new polynomial.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "rank", rank)
        object.__setattr__(p, "_terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @property
    def terms(self):
        """Read-only view of the term mapping."""
        return MappingProxyType(self._terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def constant(cls, rank, value):
        return cls(rank, {(0,) * rank: value})

    @classmethod
    def one(cls, rank):
        return cls.constant(rank, 1)

    @classmethod
    def monomial(cls, rank, exponents, coeff=1):
        return cls(rank, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, rank, index):
        """The generator a_index (1-based)."""
        if not 1 <= index <= rank:
            raise PreconditionError(f"variable index {index} out of range 1..{rank}")
        expo = tuple(1 if i == index - 1 else 0 for i in range(rank))
        return cls(rank, {expo: 1})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.rank != self.rank:
                raise SpecMismatchError(
                    f"rank mismatch: {self.rank} vs {other.rank}")
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.rank, other)
        return None

    def __add__(self, other):
        """Sum in O(|p| + |q|) dict operations."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        _add_shifted(out, other._terms, 1)
        return LaurentPoly._unchecked(self.rank, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._unchecked(self.rank, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        """Product in O(|p| * |q|) coefficient products."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(map(add, m1, m2))
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return LaurentPoly._unchecked(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise PreconditionError(f"polynomial power must be a non-negative int, got {exponent!r}")
        return binary_power(self, exponent, LaurentPoly.one(self.rank))

    def times_monomial(self, exponents):
        """Multiply by the unit monomial a^exponents, in O(terms)."""
        shift = tuple(exponents)
        if len(shift) != self.rank:
            raise SpecMismatchError(f"monomial shift {shift!r} invalid for rank {self.rank}")
        if not all(isinstance(e, int) for e in shift):
            raise PreconditionError(f"exponent vector {shift!r} invalid for rank {self.rank}")
        return LaurentPoly._unchecked(self.rank, _shifted(self._terms, shift))

    def substitute_one(self, index):
        """Set the (0-based) variable `index` to 1, collapsing exponents."""
        out = {}
        for mono, c in self._terms.items():
            key = tuple(0 if i == index else e for i, e in enumerate(mono))
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return LaurentPoly._unchecked(self.rank, out)

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self._terms
            return self._terms == {(0,) * self.rank: other}
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    def __hash__(self):
        return hash((self.rank, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

    def sort_key(self):
        """Deterministic total-order key (deglex-descending term list)."""
        return tuple((m, self._terms[m]) for m in _ordered_monomials(self._terms))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"LaurentPoly({self.rank}, {poly_str(self)!r})"


# -- augmentation-ideal machinery -----------------------------------------


def _shift_variables(terms, delta):
    """Substitute v_i := v_i + delta in a dict of non-negative-exponent terms.

    Expands exactly via binomials; exponents in the input must be >= 0.
    """
    out = {}
    for mono, coeff in terms.items():
        per_var = []
        for e in mono:
            per_var.append([(j, math.comb(e, j) * delta ** (e - j)) for j in range(e + 1)])
        for combo in itertools.product(*per_var):
            new_mono = tuple(j for j, _ in combo)
            c = coeff
            for _, factor in combo:
                c *= factor
            if c:
                s = out.get(new_mono, 0) + c
                if s:
                    out[new_mono] = s
                else:
                    del out[new_mono]
    return out


def _cleared_terms(p):
    """Shift exponents so the componentwise minimum is zero.

    Returns (terms, mins) with p = a^mins * terms; multiplying by the unit
    a^-mins does not change membership in powers of the augmentation ideal.
    """
    mins = tuple(min(m[i] for m in p._terms) for i in range(p.rank))
    terms = {tuple(e - lo for e, lo in zip(m, mins)): c for m, c in p._terms.items()}
    return terms, mins


def aug_valuation(p):
    """Largest k with p in the k-th power of the augmentation ideal.

    Returns INFINITY for the zero polynomial.  Computed by clearing the
    denominator monomial, substituting a_i := y_i + 1 and taking the minimum
    total degree in y; the clearing step is harmless because each 1 + y_i is
    invertible modulo any power of (y_1, ..., y_m).
    """
    if p.is_zero():
        return INFINITY
    terms, _ = _cleared_terms(p)
    expanded = _shift_variables(terms, 1)
    return min(sum(m) for m in expanded)


def delta_membership(p, k):
    """True iff p lies in the k-th power of the augmentation ideal."""
    if not isinstance(k, int) or k < 0:
        raise PreconditionError(f"ideal power must be a non-negative int, got {k!r}")
    return aug_valuation(p) >= k


def delta_generator_product(beta, rank):
    """The generator product (a1-1)^beta1 * ... * (am-1)^betam."""
    result = LaurentPoly.one(rank)
    for i, b in enumerate(beta):
        gen = LaurentPoly.variable(rank, i + 1) - 1
        result = result * gen ** b
    return result


def delta_decompose(p, k):
    """Write p as a combination of degree-k generator products.

    Returns a dict mapping each beta (|beta| = k), in ascending lexicographic
    order, to a nonzero q_beta with p = sum_beta delta_generator_product(beta)
    * q_beta, exactly.  Requires p to lie in the k-th ideal power; raises
    PreconditionError otherwise, naming the valuation found.

    Algorithm: clear the denominator monomial (a unit, multiplied back onto
    every q_beta at the end) and split by exact synthetic division along the
    last variable a_v.  With D_v P = (P - P|_{a_v=1}) / (a_v - 1), which on
    each a_v fibre (the terms that agree off a_v) is the suffix sum of the
    fibre's coefficients,

        P = sum_{j<r} (a_v - 1)^j (D_v^j P)|_{a_v=1} + (a_v - 1)^r D_v^r P

    for the degree r still to place.  D_v^r P is q_beta for beta_v = r with
    nothing on the earlier variables; each restriction (D_v^j P)|_{a_v=1},
    free of a_v, is split the same way along the earlier variables with
    r - j and beta_v = j.  On the first variable nothing is left to take the
    missing degree, so a nonzero restriction there proves p is not in the
    k-th power: the split is its own membership test.

    The split is the lexicographically least one.  In y_i = a_i - 1 the part
    of P of y_v-degree j < r is exactly y_v^j (D_v^j P)|_{y_v=0}, and the
    part of y_v-degree >= r is y_v^r D_v^r P, so every y-monomial y^gamma
    lands on the lexicographically least beta <= gamma with |beta| = k
    (filled from the last variable) -- the split a full y-expansion bucketed
    by that beta gives -- without expanding anything.

    Cost, in integer additions and no multiplications: a D_v step costs at
    most E additions per fibre of a_v-span E, and a split takes at most k
    steps.  A split's restrictions have at most one term per fibre, so no
    split sees more terms, or a wider span, than the cleared p; and each
    split ends in its own block (0, ..., 0, r, beta_{v+1}, ..., beta_m), so
    at most C(k+m-1, m-1) splits run.  That bounds the work by
    C(k+m-1, m-1) * k * T * (E + 1) additions for T terms of largest span E,
    and by k * E at rank 1, where the y-expansion took about
    prod_i (gamma_i + 1) binomial products per term.
    """
    if not isinstance(k, int) or k < 1:
        raise PreconditionError(f"ideal power must be a positive int, got {k!r}")
    if p.is_zero():
        return {}
    terms, mins = _cleared_terms(p)
    rank = p.rank
    out = {}
    # Each pending split: (terms free of a_{v+1}..a_m, v, degree r to place,
    # beta_{v+1}..beta_m already fixed).
    pending = [(terms, rank - 1, k, ())]
    while pending:
        terms, v, r, beta_tail = pending.pop()
        fibres = {}
        for mono, c in terms.items():
            row = fibres.setdefault(mono[:v] + (0,) + mono[v + 1:], [])
            e = mono[v]
            if len(row) <= e:
                row.extend([0] * (e + 1 - len(row)))
            row[e] = c
        for j in range(r):
            restriction = {}
            shifted = {}
            for rest, row in fibres.items():
                sums = list(itertools.accumulate(reversed(row)))
                if sums[-1]:
                    restriction[rest] = sums[-1]
                if len(sums) > 1:
                    shifted[rest] = sums[-2::-1]
            fibres = shifted
            if not restriction:
                continue
            if v == 0:
                raise PreconditionError(
                    f"polynomial has augmentation valuation {aug_valuation(p)}, "
                    f"not in ideal power {k}")
            pending.append((restriction, v - 1, r - j, (j,) + beta_tail))
        quotient = {rest[:v] + (e,) + rest[v + 1:]: c
                    for rest, row in fibres.items() for e, c in enumerate(row) if c}
        if quotient:
            out[(0,) * v + (r,) + beta_tail] = quotient
    return {beta: LaurentPoly._unchecked(rank, _shifted(out[beta], mins))
            for beta in sorted(out)}


def geom_series(gamma, rank=1):
    """The partial geometric series s in a1 with s * (a1 - 1) = a1^gamma - 1.

    Explicitly sum(a1^j for 0 <= j < gamma) for gamma > 0, zero for
    gamma = 0, and -sum(a1^-j for 1 <= j <= |gamma|) for gamma < 0.
    """
    if not isinstance(gamma, int):
        raise PreconditionError(f"exponent must be an int, got {gamma!r}")
    _check_rank(rank)
    tail = (0,) * (rank - 1)
    if gamma > 0:
        terms = {(j,) + tail: 1 for j in range(gamma)}
    else:
        terms = {(-j,) + tail: -1 for j in range(1, -gamma + 1)}
    return LaurentPoly._unchecked(rank, terms)


# -- text form -------------------------------------------------------------


def _ordered_monomials(terms):
    return sorted(terms, key=lambda m: (sum(m), m), reverse=True)


def poly_str(p):
    """Canonical text form: terms in degree-lexicographic descending order."""
    return terms_str(p._terms, "a")


def terms_str(terms, letter):
    """Text of an {exponent vector: coefficient} map over variables letter1, letter2, ...

    Terms run in degree-lexicographic descending order; a unit coefficient
    is omitted before a variable part, and the zero map prints as `0`.
    """
    if not terms:
        return "0"
    pieces = []
    for mono in _ordered_monomials(terms):
        coeff = terms[mono]
        var_part = "*".join(
            f"{letter}{i + 1}" + (f"^{e}" if e != 1 else "")
            for i, e in enumerate(mono) if e)
        mag = abs(coeff)
        if var_part:
            body = var_part if mag == 1 else f"{mag}*{var_part}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


def parse_poly(text, rank):
    """Parse the polynomial grammar: `2*a1^3 - a2^-1 + 7`.

    Signed integer coefficients, `*` for products, `a<i>^<e>` powers with any
    integer exponent, terms joined by `+`/`-`; whitespace insignificant.  One
    tokenizer pass and one descent, O(len(text)).
    """
    return parse_whole(text, read_poly, rank)


def read_poly(tokens, rank):
    """A polynomial of the given rank, read from a token stream."""
    return LaurentPoly(rank, read_terms(tokens, "a", rank)[1])


def read_terms(tokens, letter, rank=None, negative_exponents=True, max_rank=None):
    """The sum-of-monomials grammar shared by both polynomial formats.

    Reads `[+|-] term {(+|-) term}`, each term a `*`-product of integers
    and variables `<letter><i>` with an optional `^` exponent, signed or
    not as `negative_exponents` says.  With `rank` None the variable count
    is the largest index used, and an index above `max_rank` is refused as
    it is read (PreconditionError), before any exponent tuple is built.
    Returns (rank, {exponent tuple: summed coefficient}) in O(tokens).
    """
    raw = []
    sign = 1
    while True:
        token = tokens.peek()
        if token == "+" or token == "-":
            tokens.take()
            sign = -1 if token == "-" else 1
        elif raw:
            break
        coeff = sign
        expo = [0] * (rank or 0)
        while True:
            at = tokens.pos
            token = tokens.take()
            if is_int(token):
                coeff *= tokens.int_at(at)
            elif token[:1] == letter and token[1:].isdigit():
                # An index of more than 18 digits exceeds every rank; it is
                # not converted, since int() refuses long enough digit strings.
                index = int(token[1:]) if len(token) <= 19 else math.inf
                if index < 1:
                    raise tokens.error(f"variable indices start at {letter}1", at)
                if rank is not None:
                    if index > rank:
                        raise tokens.error(f"variable {token} out of range for rank {rank}", at)
                elif max_rank is not None and index > max_rank:
                    raise PreconditionError(
                        f"variable {token} exceeds the limit of {max_rank} variables")
                e = 1
                if tokens.accept("^"):
                    if negative_exponents:
                        e = tokens.signed_int()
                    elif is_int(tokens.peek()):
                        e = tokens.take_int()
                    else:
                        raise tokens.expected("a non-negative exponent after '^'")
                if index > len(expo):
                    expo.extend([0] * (index - len(expo)))
                expo[index - 1] += e
            else:
                raise tokens.expected("coefficient or variable", at)
            if not tokens.accept("*"):
                break
        raw.append((expo, coeff))
    width = rank if rank is not None else max(len(expo) for expo, _ in raw)
    total = {}
    for expo, coeff in raw:
        key = tuple(expo) + (0,) * (width - len(expo))
        total[key] = total.get(key, 0) + coeff
    return width, total
