"""Right-iterated wreath products of free abelian groups.

The group for ranks (m_k, ..., m_1) is built recursively: the innermost two
ranks form the flat group Z^(m_2) wr Z^(m_1) (`GroupSpec`, `WreathElement`),
and every further rank m wraps the group built so far as Z^m wr (inner
group).  Elements at depth >= 3 hold an inner-group active part and a
finitely supported map from inner elements to integer vectors; multiplication
shifts the support of the left factor by right-multiplication with the
incoming active part, matching the coordinate convention of the flat
two-level representation.  An element with an empty base, such as every
embedded constant and witness value of a lifted system, holds the highest
part below it that is not pure active once, with the number of levels it
skips (see `NestedElement`): embedding, generators and the group
operations on such elements cost O(1) in the depth, not one step per level.

Every level has one element type, and all of them offer `*`, `inverse()`,
`commutator()`, `__pow__`, `is_identity()` and `sort_key()`, so equation
evaluation and checking work unchanged at any depth.  Each level computes
its commutator in closed form from one commutator one level down, so a
nested commutator costs O(1) group operations per level rather than the
five (two inverses, three products) of `g^-1 h^-1 g h`.

`equations.lift_system`, re-exported here, carries a system over an inner
group up to the wreath extension: every equation `w = 1` becomes
`[w, b] = 1` for a distinguished base generator b, with no variable added,
and a lift through many levels is one pass.  `project_assignment` maps an
assignment back down.  The polynomial reduction over these groups is
`reduction.Reduction`, the one reduction for every rank list; the names
`IteratedReduction` and `compile_iterated` here are the same objects as
`Reduction` and `reduction.compile`.  In system text every constant that is
a power of one generator is a generator word (`@a1`, `@b1^-6`, `@b1_3` for
level 3's base generator; see `wreath.read_generator`) of O(1) characters,
so a lifted system's text grows linearly in its depth.
"""

from __future__ import annotations

from .equations import lift_system
from .errors import ParseError, PreconditionError, SpecMismatchError, shown
from .lexer import parse_whole
from .laurent import Frozen
# The benchmark's traced run wraps these two names, so they stay as aliases
# of the one reduction until the benchmark names `reduction.compile` and
# `Reduction` itself.
from .reduction import Reduction as IteratedReduction, compile as compile_iterated
from .wreath import GroupSpec, check_ranks, group_power, power_word, read_vector


# Longest rank list accepted.  Element literals nest once per rank and the
# token grammar reads them recursively, as `str`, `sort_key` and the group
# operations walk an element with a support at every level, so the depth
# must stay well inside Python's recursion limit; a deeper list is refused
# up front (PreconditionError) instead of overflowing the stack.
MAX_RANKS = 64


def spec_for_ranks(ranks):
    """The group for a rank list, outermost base first.

    Two ranks (n, m) give the flat Z^n wr Z^m; longer lists, up to
    `MAX_RANKS`, give the right-iterated product.  A single rank names no
    wreath product, which is malformed input (ParseError).
    """
    ranks = tuple(ranks)
    if len(ranks) < 2:
        raise ParseError("need at least two ranks (base and acting group)")
    if len(ranks) == 2:
        return GroupSpec(m=ranks[1], n=ranks[0])
    return IteratedSpec(ranks)


class IteratedSpec(Frozen):
    """Rank list (m_k, ..., m_1) with 3 <= k <= MAX_RANKS, outermost base copy first.

    Each rank must be a positive int (a bool is not one) of at most
    `wreath.MAX_RANK`.  As for `GroupSpec`, `Frozen`'s `==` tests identity
    first.
    """

    __slots__ = ("ranks", "_inner", "_below", "_identity")
    _fields = ("ranks",)

    def __init__(self, ranks):
        ranks = tuple(ranks)
        if not all(type(r) is int and r >= 1 for r in ranks):
            raise PreconditionError(f"ranks must be positive ints, got {ranks!r}")
        if len(ranks) < 3:
            raise PreconditionError(
                f"an iterated spec needs at least three ranks, got {ranks!r}; "
                "two ranks are the flat GroupSpec")
        if len(ranks) > MAX_RANKS:
            raise PreconditionError(
                f"at most {MAX_RANKS} ranks are supported, got {len(ranks)}")
        check_ranks(ranks)
        # The groups below are built once, from the flat pair outward, with
        # no second check of their ranks: O(depth) specs.
        inner = GroupSpec(m=ranks[-1], n=ranks[-2])
        below = (inner,)
        for start in range(len(ranks) - 3, 0, -1):
            spec = object.__new__(IteratedSpec)
            spec._build(ranks[start:], inner, below)
            inner, below = spec, below + (spec,)
        self._build(ranks, inner, below)

    def _build(self, ranks, inner, below):
        # Every element construction compares against the inner group, and
        # embedding finds the group of an element's level in `_below`, the
        # groups below this one, flat first: `_below[k - 2]` is level k.
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_below", below)
        object.__setattr__(self, "_identity", NestedElement._unchecked(self, inner.identity(), {}))

    def inner(self):
        """The group acted on: flat at depth 3, iterated beyond."""
        return self._inner

    def identity(self):
        return self._identity

    def base_gen(self, j, power=1):
        """Generator j of the outermost base copy at the inner identity.

        One `generator(len(ranks), j, power)` call, O(m_k)."""
        return self.generator(len(self.ranks), j, power)

    def embed(self, element):
        """Canonical embedding of the inner group, or of any group below it.

        An element of level k < depth becomes a pure active part at every
        level from k + 1 up to this one.  In the normal form (see
        `NestedElement`) that is one wrapper around the element's core,
        whatever the number of levels crossed: one spec comparison and O(1)
        work in the depth.
        """
        level, depth = len(element.spec.ranks), len(self.ranks)
        if not 2 <= level < depth or element.spec != self._below[level - 2]:
            raise SpecMismatchError(f"element of {element.spec} cannot embed into {self}")
        return NestedElement._embed(self, element, depth - 1 - level)

    def generator(self, level, j, power=1):
        """Generator j of `level` raised to `power`, embedded up to this group.

        The one builder of a generator power, `base_gen` included.  Levels
        count outward from the acting group (see `wreath.read_generator`);
        `level`, `j` and `power` must each be an int (a bool is not), and
        the level is checked before it picks a group.  This group's own
        base is level `len(ranks)`, and its generator is one support point
        at the inner identity, O(m_k).  A generator of a level below is
        built by the group of that level and embedded under one wrapper, so
        building costs O(1) in the depth.
        """
        depth = len(self.ranks)
        if type(level) is not int or not 1 <= level <= depth:
            raise PreconditionError(f"generator level {level} out of range 1..{depth}")
        if level == depth:
            width = self.ranks[0]
            if type(j) is not int or not 1 <= j <= width:
                raise PreconditionError(f"base generator index {j} out of range 1..{width}")
            vec = (0,) * (j - 1) + (power,) + (0,) * (width - j)
            if type(power) is not int:
                raise PreconditionError(f"vector {vec!r} invalid for rank {width}")
            # One support point needs no sorting, so no checked constructor.
            identity = self._inner.identity()
            return NestedElement._unchecked(self, identity, {identity: vec})
        # Levels 1 and 2 are both generated by the flat group.
        below = max(level, 2)
        return NestedElement._embed(self, self._below[below - 2].generator(level, j, power),
                                    depth - 1 - below)

    # Literal and generator-word bridge used by the system and assignment formats.
    def read_element(self, tokens):
        return read_nested(tokens, self)

    def read_canonical(self, text):
        """The element `text` spells if it is the literal `str` writes for an
        embedded flat element, else None.

        That literal is `len(ranks) - 2` frames `{ active: ...; }` around a
        flat literal as `str(WreathElement)` writes it.  The frames are
        matched as two whole strings, and the flat literal is read by
        `wreath._read_canonical`, which declines all it is not certain of;
        the value is the flat element under one wrapper.  O(len(text)).
        """
        frames = len(self.ranks) - 2
        head, tail = "{ active: " * frames, "; }" * frames
        if not (text.startswith(head) and text.endswith(tail)):
            return None
        flat = self._below[0].read_canonical(text[len(head):len(text) - len(tail)])
        return None if flat is None else NestedElement._embed(self, flat, frames - 1)

    def generator_word(self, g):
        """`@b<j>_<k>^e` for a power of this level's base generator b_j, the
        word of the core for a pure active element, else None: O(1) in the depth."""
        if not g.base:
            core = g._part
            return core.spec.generator_word(core)
        if len(g.base) == 1 and g._part.is_identity():
            key, vec = g.base[0]
            nonzero = [j for j, v in enumerate(vec) if v]
            if len(nonzero) == 1 and key.is_identity():
                j = nonzero[0]
                return power_word(f"b{j + 1}_{len(self.ranks)}", vec[j])
        return None


class NestedElement(Frozen):
    """Element of an iterated wreath product of depth >= 3.

    `active` is an inner-group element; `base` is a canonically sorted tuple
    of (inner element, nonzero integer vector) pairs giving the finitely
    supported base coordinates.  A support point may occur only once.

    Normal form.  An element with an empty base is pure active: its active
    part embedded, and that part may be pure active in turn.  It holds its
    *core* once: the highest element below it that is not pure active, a
    flat `WreathElement` or a `NestedElement` with a support.  `_skip`
    counts the pure-active levels between the core and the active part.
    So `_part` is the active part when `_skip` is 0 and the core otherwise,
    and an element with a support holds its active part with `_skip` 0.
    Costs in the depth: embedding an element of any level below is one
    object, O(1); `active` builds the level below in O(1) when it is asked
    for; `==` and `hash` compare the parts, O(1) for a pure active element;
    `sort_key`, `str` and the generator word are the long-hand values, as
    if every level were stored.  `_trivial` records, once when the element
    is built, whether it is the identity, so `is_identity` is O(1).
    """

    __slots__ = ("spec", "base", "_part", "_skip", "_trivial")

    def __new__(cls, spec, active, base):
        """Check the parts, then take the normal form from `_unchecked`.

        `base` maps support points to vectors of `ranks[0]` ints (a bool is
        not one), or lists (point, vector) pairs.  Every part is checked
        before a repetition is reported; of several repeated points the
        least in canonical order is named.
        """
        inner = spec.inner()
        if active.spec != inner:
            raise SpecMismatchError(f"active part belongs to {active.spec}, not {inner}")
        width = spec.ranks[0]
        support = {}
        repeated = []
        for key, vec in (base.items() if hasattr(base, "items") else base):
            vec = tuple(vec)
            if key.spec != inner:
                raise SpecMismatchError(f"support point belongs to {key.spec}, not {inner}")
            if len(vec) != width or not all(type(e) is int for e in vec):
                raise PreconditionError(f"vector {vec!r} invalid for rank {width}")
            if key in support:
                repeated.append(key)
            support[key] = vec
        if repeated:
            first = min(repeated, key=lambda key: key.sort_key())
            raise PreconditionError(f"support point {shown(first)} is repeated")
        return cls._unchecked(spec, active, support)

    @classmethod
    def _unchecked(cls, spec, active, support):
        """Products and inverses of valid elements: no checks, only normal form.

        `support` maps distinct inner elements of `spec` to integer vectors of
        its base rank; they are put in canonical order and zero vectors
        dropped.  With none left, the element is `active` embedded.
        """
        entries = [(key, vec) for key, vec in support.items() if any(vec)]
        if not entries:
            return cls._embed(spec, active, 0)
        if len(entries) > 1:
            entries.sort(key=lambda entry: entry[0].sort_key())
        return _new_nested(spec, active, 0, False, tuple(entries))

    @classmethod
    def _embed(cls, spec, element, skip):
        """`element`, of the group `skip` levels below the inner group of
        `spec`, embedded as a pure active element of `spec`: O(1)."""
        if type(element) is cls and not element.base:
            return _new_nested(spec, element._part, skip + element._skip + 1, element._trivial)
        return _new_nested(spec, element, skip, element.is_identity())

    @property
    def active(self):
        """The inner-group part; built in O(1) when the element skips levels."""
        if not self._skip:
            return self._part
        return _new_nested(self.spec._inner, self._part, self._skip - 1, self._trivial)

    def _check(self, other):
        if not isinstance(other, NestedElement) or (
                other.spec is not self.spec and other.spec != self.spec):
            raise SpecMismatchError(f"cannot combine elements of different iterated groups")

    def __mul__(self, other):
        """(alpha, p)(beta, q) = (alpha beta, p.beta + q).

        `p.beta` right-multiplies every support point of p by beta.  Cost:
        one inner product for the active parts and one per support point
        of p (none when beta is the identity), |q| vector additions of
        width m_k, and sorting the result's support.  Two pure active
        operands multiply their cores once, at the higher core's level
        (`_cores`), and the product is embedded once.
        """
        self._check(other)
        if not self.base and not other.base:
            g, h, skip = _cores(self, other)
            return NestedElement._embed(self.spec, g * h, skip)
        beta = other.active
        support = {}
        _shift_add(support, self.base, beta, 1)
        _shift_add(support, other.base, None, 1)
        return NestedElement._unchecked(self.spec, self.active * beta, support)

    def inverse(self):
        """(alpha, p)^-1 = (alpha^-1, -p.alpha^-1).

        Cost: one inner inverse, one inner product per support point of p
        (none when alpha is the identity), and sorting the support.  A pure
        active element inverts its core, whose inverse is a core again.
        """
        if not self.base:
            return _new_nested(self.spec, self._part.inverse(), self._skip, self._trivial)
        ai = self._part.inverse()
        support = {}
        _shift_add(support, self.base, ai, -1)
        return NestedElement._unchecked(self.spec, ai, support)

    def commutator(self, other, *more):
        """[g, h] = g^-1 h^-1 g h in closed form, with no intermediate elements.

        With more factors, the left-normed [g, h, h2, ..., hk], folded
        pairwise: [[g, h], h2], and so on.

        For g = (alpha, p) and h = (beta, q), with (alpha, p)(beta, q) =
        (alpha beta, p.beta + q) and (alpha, p)^-1 = (alpha^-1, -p.alpha^-1),
        and c = [alpha, beta] in the inner group:

            g^-1 h^-1     = (alpha^-1 beta^-1, -p.alpha^-1 beta^-1 - q.beta^-1)
            g^-1 h^-1 g   = (alpha^-1 beta^-1 alpha,
                             -p.alpha^-1 beta^-1 alpha - q.beta^-1 alpha + p)
            g^-1 h^-1 g h = (c, -p.c - q.beta^-1 alpha beta + p.beta + q)

        and beta^-1 alpha beta = alpha c, so

            [g, h] = (c, p.beta - p.c + q - q.(alpha c)).

        The base is abelian, so the four shifted copies are summed into one
        support.  The p terms cancel when beta = c, and the q terms when
        alpha c = 1.  Cost: one inner commutator, one inner product alpha c
        (both skipped when alpha or beta is the identity, where c = 1, and
        the product when q is empty), and at most two inner products per
        support point of p and one per support point of q; at depth 2 the
        flat closed form `WreathElement.commutator` ends the recursion.  Two
        pure active operands take one commutator of their cores, at the
        higher core's level (`_cores`), embedded once.
        """
        if more:
            acc = self.commutator(other)
            for h in more:
                acc = acc.commutator(h)
            return acc
        self._check(other)
        if self._trivial or other._trivial:
            return self.spec._identity
        if not self.base and not other.base:
            g, h, skip = _cores(self, other)
            return NestedElement._embed(self.spec, g.commutator(h), skip)
        alpha, beta = self.active, other.active
        if alpha.is_identity() or beta.is_identity():
            c, alpha_c = self.spec.inner().identity(), alpha
        else:
            c = alpha.commutator(beta)
            alpha_c = alpha * c if other.base else None
        support = {}
        if self.base and beta != c:
            _shift_add(support, self.base, beta, 1)
            _shift_add(support, self.base, c, -1)
        if other.base and not alpha_c.is_identity():
            _shift_add(support, other.base, None, 1)
            _shift_add(support, other.base, alpha_c, -1)
        return NestedElement._unchecked(self.spec, c, support)

    __pow__ = group_power

    def is_identity(self):
        """O(1): the flag set when the element was built."""
        return self._trivial

    def project(self):
        """Quotient map onto the inner group (kill the base coordinates)."""
        return self.active

    def sort_key(self):
        """`(active key, support keys)`, nested once per level of a pure
        active element down to its core's key: O(depth) for one."""
        if self.base:
            return (self._part.sort_key(),
                    tuple((key.sort_key(), vec) for key, vec in self.base))
        key = self._part.sort_key()
        for _ in range(self._skip + 1):
            key = (key, ())
        return key

    # Its own `==` and `hash`: `Frozen`'s field loop ran iterated-depth 5-10% slower.
    def __eq__(self, other):
        if not isinstance(other, NestedElement):
            return NotImplemented
        return (self._skip == other._skip and self.spec == other.spec
                and self.base == other.base and self._part == other._part)

    def __hash__(self):
        return hash((self._part, self._skip, self.base))

    def __str__(self):
        """Canonical literal; the active part and support points print as inner literals.

        `str` of an element at any level is its canonical literal, so the
        innermost parts print as flat literals `{ active: (...); b1: ... }`.
        A pure active element prints one frame `{ active: ...; }` per level
        around its core.
        """
        if not self.base:
            frames = self._skip + 1
            return "{ active: " * frames + str(self._part) + "; }" * frames
        entries = [
            "[ " + str(key) + " -> (" + ",".join(str(v) for v in vec) + ") ]"
            for key, vec in self.base]
        return "{ active: " + str(self._part) + "; " + ", ".join(entries) + " }"

    def __repr__(self):
        return f"NestedElement({str(self)!r})"


# The slots' own setters, which `_new_nested` calls past `Frozen.__setattr__`.
_set_spec, _set_base, _set_part, _set_skip, _set_trivial = (
    NestedElement.__dict__[name].__set__ for name in NestedElement.__slots__)


def _new_nested(spec, part, skip, trivial, base=()):
    """The `NestedElement` of `spec` with these slots, pure active when `base`
    is empty; no checks.  The one function that fills the slots."""
    g = object.__new__(NestedElement)
    _set_spec(g, spec)
    _set_base(g, base)
    _set_part(g, part)
    _set_skip(g, skip)
    _set_trivial(g, trivial)
    return g


def _cores(g, h):
    """The cores of two pure active elements of one group, brought to the
    higher core's level, and the levels that lie between it and the
    group's inner group: (core, core, skip).  The lower core is lifted by
    one wrapper."""
    g_core, h_core, g_skip, h_skip = g._part, h._part, g._skip, h._skip
    if g_skip > h_skip:
        return (_new_nested(h_core.spec, g_core, g_skip - h_skip - 1, g._trivial),
                h_core, h_skip)
    if h_skip > g_skip:
        return (g_core,
                _new_nested(g_core.spec, h_core, h_skip - g_skip - 1, h._trivial),
                g_skip)
    return g_core, h_core, g_skip


def _shift_add(support, base, shift, sign):
    """Add `sign` times the support `base`, every point right-multiplied by
    `shift` (None or the identity: left in place), into the dict `support`."""
    if not base:
        return
    if shift is not None and shift.is_identity():
        shift = None
    for key, vec in base:
        if shift is not None:
            key = key * shift
        old = support.get(key)
        if old is not None:
            support[key] = tuple(a + sign * b for a, b in zip(old, vec))
        elif sign == 1:
            support[key] = vec
        else:
            support[key] = tuple(-v for v in vec)


# -- literals -----------------------------------------------------------------


def parse_nested(text, spec):
    """Parse the recursive element literal; one tokenizer pass and one descent, O(len(text))."""
    return parse_whole(text, read_nested, spec)


def read_nested(tokens, spec):
    """`{ active: inner [;] { [ inner -> vector ] [,] } }`, inner literals read in place.

    The grammar checks each vector's length and that no support point
    repeats, and the inner literals are read in normal form, so the element
    is built in normal form with no second check.
    """
    inner = spec.inner()
    tokens.expect("{")
    tokens.expect("active")
    tokens.expect(":")
    active = inner.read_element(tokens)
    tokens.accept(";")
    support = {}
    while tokens.accept("["):
        at = tokens.pos
        key = inner.read_element(tokens)
        if key in support:
            raise tokens.error(f"repeated support point {shown(key)}", at)
        tokens.expect("->")
        support[key] = read_vector(tokens, spec.ranks[0])
        tokens.expect("]")
        tokens.accept(",")
    tokens.expect("}")
    return NestedElement._unchecked(spec, active, support)


# -- projection -----------------------------------------------------------------


def project_assignment(assignment):
    """Push every assigned value through the quotient onto the inner group."""
    return {name: value.project() for name, value in assignment.items()}
