"""Exact-integer Laurent polynomials and augmentation-ideal tools.

Polynomials live in Z[a1, a1^-1, ..., am, am^-1], the integer group ring of a
free abelian group of rank m written multiplicatively.  Coefficients are plain
Python ints, so every operation is exact.  A polynomial is held as a dense
coefficient row along a1 or as a term dict, by one density rule (see
`_DENSE_MIN_TERMS`).  The augmentation ideal -- the
kernel of the sum-of-coefficients map, generated by a1-1, ..., am-1 -- induces
the valuation computed by :func:`aug_valuation`; membership in its k-th power
is decided exactly by :func:`delta_membership` and witnessed constructively by
:func:`delta_decompose`.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import add, indexOf, itemgetter, sub
from types import MappingProxyType

from .errors import PreconditionError, SpecMismatchError
from .lexer import is_int, parse_whole


class Frozen:
    """Base of the package's immutable value types, driven by `_fields`.

    A subclass names its fields in `_fields`, holds them in its own
    `__slots__` (or, declaring none, in its `__dict__`) and fills them
    through `object.__setattr__` or its slots' own setters.
    Two values are equal when they are of one class and their fields are
    equal, a value hashes as the tuple of its fields, its repr is
    `Name(field=value, ...)`, and assigning or deleting any attribute
    raises AttributeError.  Each method costs one attribute read per field.

    Four subclasses keep their own `==` and `hash` (and repr), and take only
    the refusals from here.  The group elements, `wreath.WreathElement` and
    `interp.NestedElement`: with the generic field loop, iterated-depth,
    where elements are compared and hashed most, ran 5-10% slower (in
    process, 200 instances, Python 3.11 on a 2-core shared host).
    `LaurentPoly`: its `==` also compares with ints, and reads the row or
    dict layout.  `reduction.IntPolynomial`: its term dict does not hash.
    """

    __slots__ = ()
    _fields = ()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


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
    if type(rank) is not int or rank < 1:
        raise PreconditionError(f"polynomial rank must be a positive int, got {rank!r}")


def _normal_terms(terms, width, where, nonnegative=False):
    """The normal form of a term mapping or of (exponent vector, coefficient) pairs.

    Repeated exponent vectors are summed and zero sums dropped.  Every
    vector must hold `width` ints, non-negative ones if `nonnegative`, and
    every coefficient must be an int (a bool is not one), else
    PreconditionError; `where` is the message's "invalid for ..." format,
    filled with `width`.  This is the checked constructor of `LaurentPoly`
    and of `reduction.IntPolynomial`.  O(terms * width).
    """
    items = terms.items() if hasattr(terms, "items") else (terms or ())
    clean = {}
    for mono, coeff in items:
        mono = tuple(mono)
        if len(mono) != width or not all(
                type(e) is int and (not nonnegative or e >= 0) for e in mono):
            raise PreconditionError(
                f"exponent vector {mono!r} invalid for {where.format(width)}")
        if type(coeff) is not int:
            raise PreconditionError(f"coefficient {coeff!r} is not an int")
        if coeff:
            clean[mono] = clean.get(mono, 0) + coeff
            if not clean[mono]:
                del clean[mono]
    return clean


def _shifted(terms, shift, sign=1):
    """A fresh term dict of sign * a^shift * terms; `sign` is 1 or -1.

    Shifting is a bijection on monomials, so no terms merge or cancel and
    the copy is built in one pass: one dict comprehension over the terms.
    A `shift` of None or all zeros copies the terms unshifted.
    """
    if shift is None or not any(shift):
        return dict(terms) if sign > 0 else {mono: -c for mono, c in terms.items()}
    if sign > 0:
        return {tuple(map(add, mono, shift)): c for mono, c in terms.items()}
    return {tuple(map(add, mono, shift)): -c for mono, c in terms.items()}


def _add_terms(out, terms, sign):
    """out += sign * terms in place, dropping zeros; `sign` is 1 or -1.

    One accumulation loop over the terms, split by sign so that no term
    pays for a multiplication; `terms` itself is never changed.
    """
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


# The layout: a polynomial whose monomials all share their exponents past a1
# (the *tail*) is held as a dense coefficient row along a1 when it has at
# least _DENSE_MIN_TERMS terms and the row would be at least half full, and
# any other polynomial as a term dict.  The layout is a function of the value
# alone, so equal polynomials are held alike.  A row costs 8 bytes a cell,
# against about 120 a dict term, and a factor a1^s - 1 on it is one C-level
# `map(sub)`.  The floor of 32 is measured: on n ones, as a row against as a
# dict (Python 3.11, a shared 2-core Xeon, min of 25 repeats), the cyclic
# gadget's one-factor chain [@a1, .] took 1.0-1.3 times the dict's time at
# n = 8, 0.6-0.7 at 16 and 0.4-0.6 at 32; from 32 the chains, where the
# reduction spends its time, run in about half the time.  Sums, shifts and
# the input of `delta_decompose` read a row as its term dict.  A row sum by
# `map(add)` cost about what the dict loop does a cell, with the row's fixed
# costs on top (1.4-2.0 times the dict's time at n = 8 to 24, 1.3 at 32,
# 1.0-1.2 at 64), so it gained nothing, and no workload sums or shifts a
# row or decomposes one.
_DENSE_MIN_TERMS = 32


def _dense_row(terms):
    """`(lo, tail, coefficients)` of a normal-form term dict of at least
    `_DENSE_MIN_TERMS` terms that the density rule holds as a row, else
    None: the coefficient of a1^(lo + i) * a^tail is at index i.  One C-level
    min and max, a set of the tails at rank > 1, and one lookup per cell:
    O(T) for T terms.
    """
    (lo, *tail), hi = min(terms), max(terms)[0]
    if hi - lo >= 2 * len(terms) or tail and len(
            set(map(itemgetter(slice(1, None)), terms))) > 1:
        return None
    cells = zip(range(lo, hi + 1), *map(itertools.repeat, tail))
    return lo, tuple(tail), list(map(terms.get, cells, itertools.repeat(0)))


def _row_dict(lo, tail, coeffs):
    """The term dict of the row `(lo, tail, coeffs)`, zero cells dropped.

    C-level iterators pick the exponents and coefficients of the nonzero
    cells, so a zero cell costs a test and no allocation: O(cells) tests and
    O(terms) tuples."""
    exponents = itertools.compress(itertools.count(lo), coeffs)
    return dict(zip(zip(exponents, *map(itertools.repeat, tail)), filter(None, coeffs)))


def _new(rank, terms, row, p=None):
    """A polynomial held as the term dict `terms` or as `row`, the other
    None; no checks.  `p`, if given, is the instance to fill."""
    p = object.__new__(LaurentPoly) if p is None else p
    _set_rank(p, rank)
    _set_terms(p, terms)
    _set_row(p, row)
    return p


def _from_row(rank, lo, tail, coeffs):
    """The polynomial with coefficient coeffs[i] at a1^(lo + i) * a^tail, held by the density rule.

    `coeffs` may hold zeros anywhere.  When the rule keeps a row, the row
    is a trimmed copy of it.  One C-level count of the zeros, then the copy
    or one `_row_dict`: O(cells).
    """
    n = len(coeffs) - coeffs.count(0)
    if n >= _DENSE_MIN_TERMS:
        start = coeffs.index(next(filter(None, coeffs)))
        stop = len(coeffs) - indexOf(reversed(coeffs), next(filter(None, reversed(coeffs))))
        if stop - start <= 2 * n:
            return _new(rank, None, (lo + start, tail, coeffs[start:stop]))
    return _new(rank, _row_dict(lo, tail, coeffs), None)


def _terms_of(p):
    """p's term dict: its own, never to be changed, or a fresh one built from its row."""
    return p._terms if p._row is None else _row_dict(*p._row)


def _shift(p, shift, sign=1):
    """sign * a^shift * p; `sign` is 1 or -1, and a `shift` of None moves nothing.

    One `_shifted` comprehension over p's terms, O(T), or O(cells) from a
    row, whose result is held by the density rule.
    """
    return LaurentPoly._unchecked(p.rank, _shifted(_terms_of(p), shift, sign))


def _sum(p, q, sign=1, shift=None):
    """p + sign * a^shift * q; `sign` is 1 or -1, and a `shift` of None moves nothing.

    A zero q costs O(1), with `shift` never read, and a zero p at most a
    `_shift`.  Otherwise p's terms are accumulated into a moved copy of q's:
    one comprehension and one loop, O(|p| + |q|) dict operations, each row
    read as its term dict first.  The result is held by the density rule.
    """
    if q.is_zero():
        return p
    shift = shift if shift is not None and any(shift) else None
    if p.is_zero():
        return q if sign > 0 and shift is None else _shift(q, shift, sign)
    out = _shifted(_terms_of(q), shift, sign)
    _add_terms(out, _terms_of(p), 1)
    return LaurentPoly._unchecked(p.rank, out)


def _times_differences(p, shifts, sign=1):
    """sign * p * prod_j (a^shifts[j] - 1); `sign` is 1 or -1.

    `shifts` holds k >= 1 exponent vectors; a zero shift makes the product
    zero.  On a row, when every shift moves a1 alone and their sizes sum to
    at most the row's length, each factor a1^s - 1 is one `map(sub)` of the
    list against itself moved |s| cells: O(k * cells), with no term dict
    built until the result, held by the density rule, is few enough terms
    for one.  Otherwise each factor is a shifted copy and one accumulation
    loop over the current terms: O(k * T') dict updates for T' the largest
    intermediate term count.  A sparse polynomial such as a1^100000000 + 1
    is a dict, so no long list is ever allocated for it.  On either layout
    the first factor takes the sign, at no extra cost.
    """
    row = p._row
    if p.is_zero():
        return p
    if (row is not None and not any(e for shift in shifts for e in shift[1:])
            and sum(abs(shift[0]) for shift in shifts) <= len(row[2])):
        lo, tail, coeffs = row
        for s, *_ in shifts:
            # sign * (a1^s P - P): for s > 0 the copy a1^s P moves up; for
            # s < 0 it moves down and the row starts |s| lower.
            pad = [0] * abs(s)
            moved, kept = (pad + coeffs, coeffs + pad) if s > 0 else (coeffs + pad, pad + coeffs)
            coeffs = list(map(sub, moved, kept) if sign > 0 else map(sub, kept, moved))
            lo, sign = lo + min(s, 0), 1
        return _from_row(p.rank, lo, tail, coeffs)
    terms = _terms_of(p)
    for shift in shifts:
        nxt = _shifted(terms, shift, sign)
        _add_terms(nxt, terms, -sign)
        terms, sign = nxt, 1
    return LaurentPoly._unchecked(p.rank, terms)


class LaurentPoly(Frozen):
    """A finitely supported integer combination of monomials a^gamma.

    Instances are immutable; `terms` maps exponent vectors of length `rank`
    to nonzero int coefficients.  Internally the polynomial is `_terms`, a
    term dict, or `_row`, a dense row `(lo, tail, coefficients)` along a1,
    the other None, as the density rule picks (`_DENSE_MIN_TERMS`); no list
    or dict is written once it is held.  Two polynomials are equal iff they
    have the same rank and the same terms, and so the same layout.  The hash
    is computed on first use and kept.
    """

    __slots__ = ("rank", "_terms", "_row", "_hash")

    def __init__(self, rank, terms=None):
        _check_rank(rank)
        LaurentPoly._unchecked(rank, _normal_terms(terms, rank, "rank {}"), self)

    @classmethod
    def _unchecked(cls, rank, terms, p=None):
        """Results built from valid operands: no checks, no copy.

        `terms` must already be in normal form -- exponent tuples of length
        `rank` mapped to nonzero ints -- and belongs to the new polynomial,
        which holds it, or its row, by the density rule.  `__init__` passes
        its instance as `p`.
        """
        row = _dense_row(terms) if len(terms) >= _DENSE_MIN_TERMS else None
        return _new(rank, None if row else terms, row, p)

    @property
    def terms(self):
        """Read-only view of the term mapping; built afresh, O(cells), from a row."""
        return MappingProxyType(_terms_of(self))

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
        """The generator a_index (1-based); `index` must be an int in 1..rank, not a bool."""
        if type(index) is not int or not 1 <= index <= rank:
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
        """Sum by `_sum`: O(|p| + |q|) dict operations."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other)

    __radd__ = __add__

    def __neg__(self):
        return _shift(self, None, -1)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(other, self, -1)

    def __mul__(self, other):
        """Product in O(|p| * |q|) coefficient products, on the term dicts."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        right = _terms_of(other).items()
        for m1, c1 in _terms_of(self).items():
            for m2, c2 in right:
                mono = tuple(map(add, m1, m2))
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return LaurentPoly._unchecked(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if type(exponent) is not int or exponent < 0:
            raise PreconditionError(f"polynomial power must be a non-negative int, got {exponent!r}")
        return binary_power(self, exponent, LaurentPoly.one(self.rank))

    def times_monomial(self, exponents):
        """Multiply by the unit monomial a^exponents: one `_shift`, O(terms)."""
        shift = tuple(exponents)
        if len(shift) != self.rank:
            raise SpecMismatchError(f"monomial shift {shift!r} invalid for rank {self.rank}")
        if not all(type(e) is int for e in shift):
            raise PreconditionError(f"exponent vector {shift!r} invalid for rank {self.rank}")
        return _shift(self, shift)

    # -- comparisons / hashing --------------------------------------------

    # Its own `==` and `hash`: `==` also compares with ints, and reads the layout.
    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_zero() if other == 0 else self._terms == {(0,) * self.rank: other}
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.rank == other.rank and self._terms == other._terms
                and self._row == other._row)

    def __hash__(self):
        """O(T) on the first call, then O(1): the value is kept in `_hash`.

        A constant, zero included, equals its int (`__eq__`) and so hashes as it.
        """
        try:
            return self._hash
        except AttributeError:
            row, terms, zero = self._row, self._terms, (0,) * self.rank
            if row is None and terms.keys() <= {zero}:
                h = hash(terms.get(zero, 0))
            else:
                h = hash((self.rank, frozenset(terms.items()) if row is None
                          else (row[0], row[1], tuple(row[2]))))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self):
        return not self._terms and self._row is None

    def sort_key(self):
        """Deterministic total-order key (deglex-descending term list)."""
        terms = _terms_of(self)
        return tuple((m, terms[m]) for m in _ordered_monomials(terms))

    def __str__(self):
        """Canonical text form: terms in degree-lexicographic descending order."""
        if self._row is None or any(self._row[1]):
            return terms_str(_terms_of(self), "a")
        lo, _, coeffs = self._row
        exponents = range(lo + len(coeffs) - 1, lo - 1, -1)
        pairs = filter(itemgetter(1), zip(exponents, reversed(coeffs)))
        # Written 4096 terms at a time, so that a long row never has the
        # strings of all its terms alive at once (about 70 bytes a term).
        blocks = iter(lambda: _power_terms_str(itertools.islice(pairs, 4096), "a1"), "")
        return _signed(" ".join(blocks))

    def __repr__(self):
        return f"LaurentPoly({self.rank}, {str(self)!r})"


# The slots' own setters, which `_new` calls past `Frozen.__setattr__`.
_set_rank, _set_terms, _set_row = (LaurentPoly.__dict__[name].__set__
                                   for name in ("rank", "_terms", "_row"))


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
    terms = _terms_of(p)
    mins = [min(m[i] for m in terms) for i in range(p.rank)]
    cleared = {tuple(map(sub, m, mins)): c for m, c in terms.items()}
    return min(sum(m) for m in _shift_variables(cleared, 1))


def delta_membership(p, k):
    """True iff p lies in the k-th power of the augmentation ideal.

    One `aug_valuation`, at its full cost whatever k is.
    """
    if type(k) is not int or k < 0:
        raise PreconditionError(f"ideal power must be a non-negative int, got {k!r}")
    return aug_valuation(p) >= k


def delta_generator_product(beta, rank):
    """The generator product (a1-1)^beta1 * ... * (am-1)^betam."""
    result = LaurentPoly.one(rank)
    for i, b in enumerate(beta):
        gen = LaurentPoly.variable(rank, i + 1) - 1
        result = result * gen ** b
    return result


def _fibre_segments(terms, v):
    """`terms` as fibres along a_v, each a list of `(start, cells)` segments.

    A fibre is the set of terms whose exponents agree off a_v, keyed by the
    exponents before and after a_v, `(mono[:v], mono[v + 1:])`.  A fibre at
    least half full over its a_v-span is one dense segment, as the density
    rule would hold it; any other fibre is one single-cell segment per term,
    in ascending order of a_v-exponent, so a sparse polynomial takes no more
    cells than terms.  One pass, then per fibre one dense layout or one
    sort: O(T log T) for T terms.
    """
    fibres = {}
    for mono, c in terms.items():
        fibres.setdefault((mono[:v], mono[v + 1:]), {})[mono[v]] = c
    for key, cells in fibres.items():
        lo, hi = min(cells), max(cells)
        fibres[key] = ([(lo, list(map(cells.get, range(lo, hi + 1), itertools.repeat(0))))]
                       if hi - lo < 2 * len(cells) else [(e, [cells[e]]) for e in sorted(cells)])
    return fibres


def _split_step(segments):
    """One step D of the split on one fibre: (the fibre's coefficient sum, D P's segments).

    D P holds at a_v^i the sum of P's coefficients at exponents above i.  So
    on each segment it is the segment's suffix sums, shifted down one cell,
    and across each gap up to the next segment it is the constant sum of
    everything above the gap: a gap of nonzero sum is filled and joins its
    two segments into one, and a gap of zero sum stays empty.  Below the
    lowest segment it is the whole sum, left to the caller.  One C-level
    `accumulate` per segment: O(cells + filled gaps).
    """
    runs = []  # [start, lists from the top down] of D P, from the top down
    above = 0
    for start, cells in reversed(segments):
        sums = list(itertools.accumulate(reversed(cells), initial=above))
        if above and runs:
            runs[-1][1] += ([above] * (runs[-1][0] - start - len(cells)), sums[-2::-1])
            runs[-1][0] = start
        else:
            runs.append([start, [sums[-2::-1]]])
        above = sums[-1]
    return above, [(start, parts[0] if len(parts) == 1 else
                    list(itertools.chain.from_iterable(reversed(parts))))
                   for start, parts in reversed(runs)]


def delta_decompose(p, k):
    """Write p as a combination of degree-k generator products.

    Returns a dict mapping each beta (|beta| = k), in ascending lexicographic
    order, to a nonzero q_beta with p = sum_beta delta_generator_product(beta)
    * q_beta, exactly.  Requires p to lie in the k-th ideal power; raises
    PreconditionError otherwise, naming the valuation found.

    Algorithm: clear the denominator monomial a^mins, the componentwise
    least exponents, and split by exact synthetic division along the last
    variable a_v.  The clearing costs nothing: each split holds its fibres
    as segments of cells at their own exponents (`_fibre_segments`), places
    each restriction at a_v^mins_v, and emits each quotient with the unit
    a^mins multiplied back on.  With
    D_v P = (P - P|_{a_v=1}) / (a_v - 1), which on each a_v fibre (the
    terms that agree off a_v) is the suffix sum of the fibre's
    coefficients (`_split_step`),

        P = sum_{j<r} (a_v - 1)^j (D_v^j P)|_{a_v=1} + (a_v - 1)^r D_v^r P

    for the degree r still to place.  D_v^r P is q_beta for beta_v = r with
    nothing on the earlier variables; each restriction (D_v^j P)|_{a_v=1},
    free of a_v, is split the same way along the earlier variables with
    r - j and beta_v = j.  On the first variable nothing is left to take the
    missing degree, so a nonzero restriction there proves p is not in the
    k-th power: the split is its own membership test.  That restriction is
    the part of P of y-degree exactly k - r + j (see below), and every part
    of y-degree below k is one of them, so the least such degree over the
    whole split is the augmentation valuation that the refusal names, with
    no y-expansion.  A polynomial of one
    tail past a1, a row among them, passes whole through the splits along
    a_m..a_2, so its one split is along a1, and its quotient for
    (k, 0, ..., 0) is a row when the density rule holds it as one.

    The split is the lexicographically least one.  In y_i = a_i - 1 the part
    of P of y_v-degree j < r is exactly y_v^j (D_v^j P)|_{y_v=0}, and the
    part of y_v-degree >= r is y_v^r D_v^r P, so every y-monomial y^gamma
    lands on the lexicographically least beta <= gamma with |beta| = k
    (filled from the last variable) -- the split a full y-expansion bucketed
    by that beta gives -- without expanding anything.

    Cost, in integer additions and no multiplications: a D_v step costs one
    addition per cell of the fibre's segments, and fills only the gaps
    where D_v P is nonzero, so a step makes no more cells than its input and
    its output hold; a split takes at most k steps.  On a dense fibre of
    a1-span E that is O(k * E) C-level additions; laying out T terms costs
    O(T log T) more, and O(T) for a row.  A split's
    restrictions have at most one term per fibre, so no split sees more
    terms, or a wider span, than the cleared p; and each split ends in its
    own block (0, ..., 0, r, beta_{v+1}, ..., beta_m), so at most
    C(k+m-1, m-1) splits run.  That bounds the work by
    C(k+m-1, m-1) * k * T * (E + 1) additions for T terms of largest span E,
    where the y-expansion took about prod_i (gamma_i + 1) binomial products
    per term.  A refusal runs the same split to its end, so it costs what
    an accepted p of the same shape does: `a1^8000 + 1` at k = 1 is one
    step over 8000 cells, where `aug_valuation` of it takes seconds.
    """
    if type(k) is not int or k < 1:
        raise PreconditionError(f"ideal power must be a positive int, got {k!r}")
    if p.is_zero():
        return {}
    rank = p.rank
    terms = _terms_of(p)
    mins = [min(terms)[0]] + [min(mono[i] for mono in terms) for i in range(1, rank)]
    # Of one tail past a1, p would pass whole through the splits along
    # a_m..a_2: its one split is along a1.
    v = 0 if len(set(map(itemgetter(slice(1, None)), terms))) == 1 else rank - 1
    fibres = _fibre_segments(terms, v)
    # Each pending split: (fibres along a_v of terms whose a_{v+1}..a_m
    # exponents are the minima, v, degree r to place, beta_{v+1}..beta_m).
    pending = [(fibres, v, k, (0,) * (rank - 1 - v))]
    out = {}
    valuation = k  # the least y-degree of a nonzero remainder at a_1, if below k
    while pending:
        fibres, v, r, beta_tail = pending.pop()
        lo = mins[v]
        for j in range(r):
            restriction, stepped = {}, {}
            for (pre, post), segments in fibres.items():
                total, segments = _split_step(segments)
                if total:
                    if v == 0:
                        valuation = min(valuation, k - r + j)
                    else:
                        restriction[pre + (lo,) + post] = total
                    start, cells = segments[0]
                    segments[0] = (lo, [total] * (start - lo) + cells)
                if any(any(cells) for _, cells in segments):
                    stepped[pre, post] = segments
            fibres = stepped
            if restriction:
                pending.append((_fibre_segments(restriction, v - 1), v - 1, r - j,
                                (j,) + beta_tail))
        if v == 0 and len(fibres) == 1 and len(next(iter(fibres.values()))) == 1:
            (((), post), [(start, cells)]), = fibres.items()
            quotient = _from_row(rank, start, post, cells)
        else:
            quotient = LaurentPoly._unchecked(rank, {
                pre + (e,) + post: c for (pre, post), segments in fibres.items()
                for start, cells in segments for e, c in enumerate(cells, start) if c})
        if quotient:
            out[(0,) * v + (r,) + beta_tail] = quotient
    if valuation < k:
        raise PreconditionError(
            f"polynomial has augmentation valuation {valuation}, not in ideal power {k}")
    return {beta: out[beta] for beta in sorted(out)}


def geom_series(gamma, rank=1):
    """The partial geometric series s in a1 with s * (a1 - 1) = a1^gamma - 1.

    Explicitly sum(a1^j for 0 <= j < gamma) for gamma > 0, zero for
    gamma = 0, and -sum(a1^-j for 1 <= j <= |gamma|) for gamma < 0: |gamma|
    terms.  Full and free of a_2..a_m, s is a row by the density rule from
    32 terms on, built as `[1] * gamma` (or `[-1] * |gamma|`) in O(|gamma|)
    C-level time and 8 bytes a term; below that, a dict of |gamma| terms.
    """
    if type(gamma) is not int:
        raise PreconditionError(f"exponent must be an int, got {gamma!r}")
    _check_rank(rank)
    return _from_row(rank, min(gamma, 0), (0,) * (rank - 1), [1 if gamma > 0 else -1] * abs(gamma))


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
        monos = sorted(terms, reverse=True)
        pairs = zip(map(itemgetter(0), monos), map(terms.__getitem__, monos))
        return _signed(_power_terms_str(pairs, f"{letter}1"))
    return _deglex_terms_str(terms, letter)


def _power_terms_str(pairs, var):
    """The terms of nonzero (exponent, coefficient) pairs of powers of `var`,
    exponents descending, each with its `+ ` or `- `, joined by spaces: one
    string per term, O(T)."""
    pieces = []
    for e, coeff in pairs:
        sign = "+"
        if coeff < 0:
            sign, coeff = "-", -coeff
        if not e:
            pieces.append(f"{sign} {coeff}")
        elif coeff == 1:
            pieces.append(f"{sign} {var}" if e == 1 else f"{sign} {var}^{e}")
        else:
            pieces.append(f"{sign} {coeff}*{var}" if e == 1 else f"{sign} {coeff}*{var}^{e}")
    return " ".join(pieces)


def _signed(text):
    """`_power_terms_str` text as `terms_str` writes it: the first term takes
    no `+ `, and its `- ` closes up to `-`."""
    return text[2:] if text[0] == "+" else "-" + text[2:]


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


# The terms of `terms_str`'s text over `a` when every monomial is a power of
# `a1` alone, one match each: the first term's glued `-` or a single-spaced
# ` + `/` - `, then an optional `<coefficient>*` and a power of `a1`, whose
# exponent has its own group, or a coefficient alone.  Any other character,
# another variable among them, is a match of the last group, which makes the
# text not canonical here.  `[0-9]` matches the ASCII digits alone, as the
# token grammar does.
_CANONICAL_TERMS = re.compile(r"""
    (\A-?|\ [+-]\ )
    (?: (?:([0-9]+)\*)? a1(?:\^(-?[0-9]+))?(?![*^0-9])
      | ([0-9]+) )
  | (.)
""", re.VERBOSE | re.DOTALL)


def _canonical_terms(text, rank):
    """The terms of `text` if it is a rank-`rank` polynomial in a1 alone as
    `terms_str` writes it, else None.

    A second reader of the text `str(LaurentPoly)` writes, for the
    assignment fast path; every coordinate of a witness is a polynomial in
    a1 alone.  It returns None, leaving the text to `read_poly`, wherever
    it is not certain of the same value: other spacing, a leading `+`, a
    zero coefficient, a repeated monomial, any variable but a1, and an
    integer too long for `int()`.  Cost: one C-level `findall` pass over the
    text, then one tuple of strings per term, O(len(text)), with no
    per-token work.
    """
    found = _CANONICAL_TERMS.findall(text)
    if not found or found[0][0][:1] == " ":  # the first term must start the text
        return None
    zero = (0,) * rank
    tail = zero[1:]
    terms = {}
    try:
        for sign, coeff, expo, constant, other in found:
            if other:
                return None
            if constant:
                coeff, key = int(constant), zero
            else:
                coeff = int(coeff) if coeff else 1
                key = (int(expo) if expo else 1,) + tail
            if not coeff or key in terms:
                return None
            terms[key] = -coeff if "-" in sign else coeff
    except ValueError:  # an integer of more digits than `int()` converts
        return None
    return terms


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
