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
import re
from operator import add, itemgetter, sub
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


def _normal_terms(terms, width, where, nonnegative=False):
    """The normal form of a term mapping or of (exponent vector, coefficient) pairs.

    Repeated exponent vectors are summed and zero sums dropped.  Every
    vector must hold `width` ints, non-negative ones if `nonnegative`, and
    every coefficient must be an int, else PreconditionError; `where` is the
    message's "invalid for ..." format, filled with `width`.  This is the
    checked constructor of `LaurentPoly` and of `reduction.IntPolynomial`.
    O(terms * width).
    """
    items = terms.items() if hasattr(terms, "items") else (terms or ())
    clean = {}
    for mono, coeff in items:
        mono = tuple(mono)
        if len(mono) != width or not all(
                isinstance(e, int) and (not nonnegative or e >= 0) for e in mono):
            raise PreconditionError(
                f"exponent vector {mono!r} invalid for {where.format(width)}")
        if not isinstance(coeff, int):
            raise PreconditionError(f"coefficient {coeff!r} is not an int")
        if coeff:
            clean[mono] = clean.get(mono, 0) + coeff
            if not clean[mono]:
                del clean[mono]
    return clean


def _shifted(terms, shift, sign=1):
    """A fresh term dict of sign * a^shift * terms; `sign` is 1 or -1.

    Shifting is a bijection on monomials, so no terms merge or cancel and
    the copy is built in one pass: one dict comprehension over the terms,
    whose keys at rank 1 are `(e + s,)`.  A `shift` of None or all zeros
    copies the terms unshifted.
    """
    if shift is None or not any(shift):
        return dict(terms) if sign > 0 else {mono: -c for mono, c in terms.items()}
    if len(shift) == 1:
        s = shift[0]
        if sign > 0:
            return {(mono[0] + s,): c for mono, c in terms.items()}
        return {(mono[0] + s,): -c for mono, c in terms.items()}
    if sign > 0:
        return {tuple(map(add, mono, shift)): c for mono, c in terms.items()}
    return {tuple(map(add, mono, shift)): -c for mono, c in terms.items()}


def _add_shifted(out, terms, sign, shift=None):
    """out += sign * a^shift * terms in place, dropping zeros.

    `sign` is 1 or -1; `shift` None adds the terms unshifted.  Cost: one
    `_shifted` comprehension when a shift is given, then one accumulation
    loop over the terms, split by sign so that no term pays for a
    multiplication; `terms` itself is never changed.
    """
    if shift is not None:
        terms = _shifted(terms, shift)
    get = out.get
    if sign > 0:
        for mono, c in terms.items():
            s = get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                del out[mono]
    else:
        for mono, c in terms.items():
            s = get(mono, 0) - c
            if s:
                out[mono] = s
            else:
                del out[mono]


def _fibre_rows(terms, v, lo, cap=None, extra=0):
    """Nonzero `terms` laid out as dense rows along a_v, one row per a_v fibre.

    A fibre is the set of terms whose exponents agree off a_v; it is keyed
    by the exponents before and after a_v, `(mono[:v], mono[v + 1:])`, and
    its row holds at index e - lo the coefficient of its monomial of
    a_v-exponent e, up to the fibre's largest e.  `lo` is at most every
    a_v-exponent.  With a `cap`, returns None instead once the rows, each
    counted `extra` cells longer, would hold more than `cap` cells, before
    any longer row is allocated.  One pass over the terms, O(T + cells) for
    T terms; at rank 1 the one row is read off the terms by C-level
    lookups, one per cell.
    """
    # At rank 1 the general loop's two tuple slices per term cost about what
    # the rows save in `_times_differences` (measured on roots-large, Z wr Z).
    if len(next(iter(terms))) == 1:
        hi = max(terms)[0]
        if cap is not None and hi - lo + 1 + extra > cap:
            return None
        return {((), ()): list(map(terms.get, zip(range(lo, hi + 1)), itertools.repeat(0)))}
    rows = {}
    cells = 0
    for mono, c in terms.items():
        key = (mono[:v], mono[v + 1:])
        row = rows.get(key)
        if row is None:
            row = rows[key] = []
            cells += extra
        i = mono[v] - lo
        if len(row) <= i:
            cells += i + 1 - len(row)
            if cap is not None and cells > cap:
                return None
            row.extend([0] * (i + 1 - len(row)))
        row[i] = c
    return rows


def _row_terms(rows, lo):
    """The term dict of `_fibre_rows` rows whose index 0 is a_v-exponent
    `lo`, zero cells dropped: one comprehension over the cells, and at
    rank 1 one C-level filter of (exponent, coefficient) pairs."""
    if len(rows) == 1 and ((), ()) in rows:
        return dict(filter(itemgetter(1), zip(zip(itertools.count(lo)), rows[(), ()])))
    return {pre + (e,) + post: c for (pre, post), row in rows.items()
            for e, c in enumerate(row, lo) if c}


# Laying a coordinate out as rows and reading it back costs about two dict
# passes over its terms, and a factor on rows about a fifth of the two passes
# it takes on dicts.  So rows pay from two factors on, once the terms are
# enough to outweigh the rows' fixed cost of some twenty dict operations.
_ROW_MIN_TERMS = 32


def _times_differences(terms, shifts, sign=1):
    """A fresh term dict of sign * terms * prod_j (a^shifts[j] - 1).

    `shifts` holds k >= 1 exponent vectors and `sign` is 1 or -1; a zero
    shift makes the product zero.  With k >= 2 factors and at least
    `_ROW_MIN_TERMS` terms, `_differences_on_rows` takes the product on
    dense rows where they are at least half full: O(k * cells), so O(k * T)
    for T terms.  Otherwise each factor is a shifted copy and one
    accumulation loop over the current terms: O(k * T') dict updates for T'
    the largest intermediate term count.  A sparse operand such as
    a1^100000000 + 1 takes the dict path and never allocates a long row.
    """
    if len(shifts) > 1 and len(terms) >= _ROW_MIN_TERMS:
        out = _differences_on_rows(terms, shifts, sign)
        if out is not None:
            return out
    out = terms
    for shift in shifts:
        nxt = _shifted(out, shift, sign)
        _add_shifted(nxt, out, -sign)
        out, sign = nxt, 1
    return out


def _differences_on_rows(terms, shifts, sign):
    """`_times_differences` on `_fibre_rows` rows, or None.

    None unless every nonzero shift moves one and the same variable a_v
    and the rows, each grown by the cells the shifts add, are at least half
    full: at most 2 * T cells for T terms, checked before any row is
    allocated.  Then each factor a_v^s - 1 is one `map(sub, ...)` over each
    row (a zero shift zeroes them), and the rows are read back once:
    O(k * cells).
    """
    axes = {i for shift in shifts for i, e in enumerate(shift) if e}
    if len(axes) != 1:
        return None
    (v,) = axes
    steps = [shift[v] for shift in shifts]
    lo = min(terms)[0] if v == 0 else min(mono[v] for mono in terms)
    rows = _fibre_rows(terms, v, lo, 2 * len(terms), sum(map(abs, steps)))
    if rows is None:
        return None
    for step in steps:
        pad = [0] * abs(step)
        # a_v^s P - P: for s > 0 the copy P moves up; for s < 0 it moves
        # down and the rows start |s| lower.  The first step swaps its
        # operands to take the sign.
        for key, row in rows.items():
            shifted, kept = (pad + row, row + pad) if step > 0 else (row + pad, pad + row)
            if sign < 0:
                shifted, kept = kept, shifted
            rows[key] = list(map(sub, shifted, kept))
        if step < 0:
            lo += step
        sign = 1
    return _row_terms(rows, lo)


class LaurentPoly:
    """A finitely supported integer combination of monomials a^gamma.

    Instances are immutable; `terms` maps exponent vectors of length `rank`
    to nonzero int coefficients.  Two polynomials are equal iff they have the
    same rank and the same term mapping.  The hash is computed on first use
    and kept.
    """

    __slots__ = ("rank", "_terms", "_hash")

    def __init__(self, rank, terms=None):
        _check_rank(rank)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", _normal_terms(terms, rank, "rank {}"))

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
    def monomial(cls, rank, exponents):
        """The unit monomial a^exponents."""
        return cls(rank, {tuple(exponents): 1})

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
        """O(T) on the first call, then O(1): the value is kept in `_hash`."""
        try:
            return self._hash
        except AttributeError:
            h = hash((self.rank, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

    def sort_key(self):
        """Deterministic total-order key (deglex-descending term list)."""
        return tuple((m, self._terms[m]) for m in _ordered_monomials(self._terms))

    def __str__(self):
        """Canonical text form: terms in degree-lexicographic descending order."""
        return terms_str(self._terms, "a")

    def __repr__(self):
        return f"LaurentPoly({self.rank}, {str(self)!r})"


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

    Cost: every cleared term a^gamma expands fully into prod_i (gamma_i + 1)
    monomials, each one product of m big-int binomials C(gamma_i, j_i), so a
    call costs the sum of prod_i (gamma_i + 1) over the terms in binomial
    products and dict updates, however small the valuation turns out to be.
    """
    if p.is_zero():
        return INFINITY
    terms, _ = _cleared_terms(p)
    expanded = _shift_variables(terms, 1)
    return min(sum(m) for m in expanded)


def delta_membership(p, k):
    """True iff p lies in the k-th power of the augmentation ideal.

    One `aug_valuation`, at its full cost whatever k is.
    """
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

    Algorithm: clear the denominator monomial a^mins, the componentwise
    least exponents, and split by exact synthetic division along the last
    variable a_v.  The clearing costs nothing: each split lays its terms out
    as `_fibre_rows` rows whose index 0 is a_v^mins_v, and each quotient
    is emitted with the unit a^mins multiplied back on, in the
    comprehension that builds it (`_row_terms`).  With
    D_v P = (P - P|_{a_v=1}) / (a_v - 1), which on each a_v fibre (the
    terms that agree off a_v) is the suffix sum of the fibre's
    coefficients,

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
    rank = p.rank
    mins = [min(p._terms)[0]] + [min(mono[i] for mono in p._terms) for i in range(1, rank)]
    out = {}
    # Each pending split: (terms whose a_{v+1}..a_m exponents are the
    # minima, v, degree r to place, beta_{v+1}..beta_m already fixed).
    pending = [(p._terms, rank - 1, k, ())]
    while pending:
        terms, v, r, beta_tail = pending.pop()
        lo = mins[v]
        fibres = _fibre_rows(terms, v, lo)
        for j in range(r):
            restriction = {}
            shifted = {}
            for (pre, post), row in fibres.items():
                sums = list(itertools.accumulate(reversed(row)))
                if sums[-1]:
                    restriction[pre + (lo,) + post] = sums[-1]
                if len(sums) > 1:
                    shifted[pre, post] = sums[-2::-1]
            fibres = shifted
            if not restriction:
                continue
            if v == 0:
                raise PreconditionError(
                    f"polynomial has augmentation valuation {aug_valuation(p)}, "
                    f"not in ideal power {k}")
            pending.append((restriction, v - 1, r - j, (j,) + beta_tail))
        quotient = _row_terms(fibres, lo)
        if quotient:
            out[(0,) * v + (r,) + beta_tail] = quotient
    return {beta: LaurentPoly._unchecked(rank, out[beta]) for beta in sorted(out)}


def geom_series(gamma, rank=1):
    """The partial geometric series s in a1 with s * (a1 - 1) = a1^gamma - 1.

    Explicitly sum(a1^j for 0 <= j < gamma) for gamma > 0, zero for
    gamma = 0, and -sum(a1^-j for 1 <= j <= |gamma|) for gamma < 0: |gamma|
    terms, built in O(|gamma|) time.
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


def terms_str(terms, letter):
    """Text of an {exponent vector: coefficient} map over variables letter1, letter2, ...

    Terms run in degree-lexicographic descending order; a unit coefficient
    is omitted before a variable part, and the zero map prints as `0`.  When
    every monomial is a power of the first variable alone, as at rank 1,
    that order is the exponent's, so the terms are written directly: one
    sort of the monomials and one string per term, O(T log T) for T terms.
    """
    if not terms:
        return "0"
    rank = len(next(iter(terms)))
    rest = (0,) * (rank - 1)
    if rank == 1 or all(mono[1:] == rest for mono in terms):
        var = f"{letter}1"
        pieces = []
        for mono in sorted(terms, reverse=True):
            e, coeff = mono[0], terms[mono]
            sign = "+"
            if coeff < 0:
                sign, coeff = "-", -coeff
            if not e:
                pieces.append(f"{sign} {coeff}")
            elif coeff == 1:
                pieces.append(f"{sign} {var}" if e == 1 else f"{sign} {var}^{e}")
            else:
                pieces.append(f"{sign} {coeff}*{var}" if e == 1 else f"{sign} {coeff}*{var}^{e}")
        text = " ".join(pieces)
        # The first term takes no `+ `, and its `- ` closes up to `-`.
        return text[2:] if text[0] == "+" else "-" + text[2:]
    return _deglex_terms_str(terms, letter)


def _deglex_terms_str(terms, letter):
    """`terms_str` of a nonzero map of any monomials: one deglex sort with a
    key per monomial and one join of variable powers per term."""
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


# The terms of `terms_str`'s text over `a`, one match each: the first term's
# glued `-` or a single-spaced ` + `/` - `, then an optional
# `<coefficient>*` and either a power of `a1` alone, whose exponent has its
# own group, or any `*`-product of variable powers; or a coefficient alone.
# Any other character is a match of the last group, which makes the text not
# canonical.  `[0-9]` matches the ASCII digits alone, as the token grammar does.
_CANONICAL_TERMS = re.compile(r"""
    (\A-?|\ [+-]\ )
    (?: (?:([0-9]+)\*)?
        (?: a1(?:\^(-?[0-9]+))?(?![*^0-9])
          | (a[0-9]+(?:\^-?[0-9]+)?(?:\*a[0-9]+(?:\^-?[0-9]+)?)*) )
      | ([0-9]+) )
  | (.)
""", re.VERBOSE | re.DOTALL)


def _canonical_terms(text, rank):
    """The terms of `text` if it is a rank-`rank` polynomial as `terms_str` writes it, else None.

    A second reader of the text `str(LaurentPoly)` writes, for the
    assignment fast path.  It returns None, leaving the text to `read_poly`,
    wherever it is not certain of the same value: other spacing, a leading
    `+`, a zero coefficient, a repeated monomial, a variable repeated or out
    of order within a term or out of range, and an integer too long for
    `int()`.  Cost: one C-level `findall` pass over the text, then one tuple
    of strings per term, O(len(text)), with no per-token work.
    """
    found = _CANONICAL_TERMS.findall(text)
    if not found or found[0][0][:1] == " ":  # the first term must start the text
        return None
    zero = (0,) * rank
    tail = zero[1:]
    terms = {}
    try:
        for sign, coeff, expo, powers, constant, other in found:
            if other:
                return None
            if constant:
                coeff, key = int(constant), zero
            else:
                coeff = int(coeff) if coeff else 1
                if powers:
                    key = _canonical_monomial(powers, rank)
                    if key is None:
                        return None
                else:
                    key = (int(expo) if expo else 1,) + tail
            if not coeff or key in terms:
                return None
            terms[key] = -coeff if "-" in sign else coeff
    except ValueError:  # an integer of more digits than `int()` converts
        return None
    return terms


def _canonical_monomial(powers, rank):
    """The exponent vector of the product `a<i>^<e>*...` of `powers`, or None
    unless the indices increase and stay within `rank`."""
    vector = [0] * rank
    last = 0
    for power in powers.split("*"):
        index, _, expo = power[1:].partition("^")
        index = int(index)
        if not last < index <= rank:
            return None
        vector[index - 1] = int(expo) if expo else 1
        last = index
    return tuple(vector)


def parse_poly(text, rank):
    """Parse the polynomial grammar: `2*a1^3 - a2^-1 + 7`.

    Signed integer coefficients, `*` for products, `a<i>^<e>` powers with any
    integer exponent, terms joined by `+`/`-`; whitespace insignificant.  One
    tokenizer pass and one descent, O(len(text)).
    """
    return parse_whole(text, read_poly, rank)


def read_poly(tokens, rank):
    """A polynomial of the given rank, read from a token stream.

    The grammar checks every exponent vector and coefficient as it reads
    it, and `read_terms` sums repeated monomials and drops zero sums, so
    the result is built in normal form with no second check.
    """
    return LaurentPoly._unchecked(rank, read_terms(tokens, "a", rank)[1])


def read_terms(tokens, letter, rank=None, negative_exponents=True, max_rank=None):
    """The sum-of-monomials grammar shared by both polynomial formats.

    Reads `[+|-] term {(+|-) term}`, each term a `*`-product of integers
    and variables `<letter><i>` with an optional `^` exponent, signed or
    not as `negative_exponents` says.  With `rank` None the variable count
    is the largest index used, and an index above `max_rank` is refused as
    it is read (PreconditionError), before any exponent tuple is built.
    Returns (rank, {exponent tuple: nonzero summed coefficient}) in
    O(tokens).
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
                    if not negative_exponents and not is_int(tokens.peek()):
                        raise tokens.expected("a non-negative exponent after '^'")
                    e = tokens.signed_int()
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
    return width, {key: coeff for key, coeff in total.items() if coeff}
