"""Right-iterated wreath products and equation-system lifting.

The group for ranks (m_k, ..., m_1) is built recursively: the innermost two
ranks form the flat group Z^(m_2) wr Z^(m_1) (`GroupSpec`, `WreathElement`),
and every further rank m wraps the group built so far as Z^m wr (inner
group).  Elements at depth >= 3 hold an inner-group active part and a
finitely supported map from inner elements to integer vectors; multiplication
shifts the support of the left factor by right-multiplication with the
incoming active part, matching the coordinate convention of the flat
two-level representation.

Every level has one element type, and all of them offer `*`, `inverse()`,
`commutator()`, `__pow__`, `is_identity()` and `sort_key()`, so equation
evaluation and checking work unchanged at any depth.  Each level computes
its commutator in closed form from one commutator one level down, so a
nested commutator costs O(1) group operations per level rather than the
five (two inverses, three products) of `g^-1 h^-1 g h`.

`lift_system` rewrites a system over an inner group into one over the
wreath extension by pinning each equation's value into the centralizer of a
distinguished base generator: every equation `w = 1` becomes the single
equation `[w, b] = 1`, so a lifted system has as many equations and
variables as the flat one, and each level adds one commutator around every
equation.  `compile_iterated` chains the flat polynomial reduction through
those lifts.  In system text every constant that is a power of one
generator is a generator word (`@a1`, `@b1^-6`, `@b1_3` for level 3's base
generator; see `wreath.read_generator`) of O(1) characters, so a lifted
system's text grows linearly in its depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import reduction as _reduction
from .equations import Commutator, Constant, Concat, Power, System, equation
from .errors import ParseError, PreconditionError, SpecMismatchError
from .lexer import parse_whole
from .wreath import GroupSpec, group_power, power_word, read_vector


# Longest rank list accepted.  Specs, element literals and lifted words nest
# once per rank and are built, printed and parsed recursively, so the depth
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


@dataclass(frozen=True)
class IteratedSpec:
    """Rank list (m_k, ..., m_1) with 3 <= k <= MAX_RANKS, outermost base copy first."""

    ranks: tuple

    def __post_init__(self):
        ranks = tuple(self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if not all(isinstance(r, int) and r >= 1 for r in ranks):
            raise PreconditionError(f"ranks must be positive ints, got {ranks!r}")
        if len(ranks) < 3:
            raise PreconditionError(
                f"an iterated spec needs at least three ranks, got {ranks!r}; "
                "two ranks are the flat GroupSpec")
        if len(ranks) > MAX_RANKS:
            raise PreconditionError(
                f"at most {MAX_RANKS} ranks are supported, got {len(ranks)}")
        # Built once: every element construction compares against the inner
        # group, and the identity recurses through every level.
        object.__setattr__(self, "_inner", spec_for_ranks(ranks[1:]))
        object.__setattr__(self, "_identity",
                           NestedElement._unchecked(self, self._inner.identity(), {}))
        object.__setattr__(self, "_generators", {})

    def inner(self):
        """The group acted on: flat at depth 3, iterated beyond."""
        return self._inner

    def identity(self):
        return self._identity

    def base_gen(self, j, power=1):
        """Generator j of the outermost base copy at the inner identity."""
        if not 1 <= j <= self.ranks[0]:
            raise PreconditionError(f"base generator index {j} out of range 1..{self.ranks[0]}")
        vec = tuple(power if v == j - 1 else 0 for v in range(self.ranks[0]))
        return NestedElement(self, self.inner().identity(),
                             ((self.inner().identity(), vec),))

    def embed(self, inner_element):
        """Canonical embedding of the inner group as the active part."""
        if inner_element.spec != self.inner():
            raise SpecMismatchError(
                f"element of {inner_element.spec} cannot embed into {self}")
        return NestedElement(self, inner_element, ())

    def generator(self, level, j, power=1):
        """Generator j of `level` raised to `power`, embedded up to this group.

        Levels count outward from the acting group (see
        `wreath.read_generator`); this group's own base is level
        `len(ranks)`.  Building costs O(depth - level) embeddings.  A
        lifted system names every level's base generator once per
        equation, so each level keeps the generators and their inverses it
        built: a set bounded by the ranks, unlike the other powers.
        """
        key = (level, j, power)
        g = self._generators.get(key)
        if g is None:
            if level == len(self.ranks):
                g = self.base_gen(j, power)
            else:
                g = NestedElement._unchecked(self, self.inner().generator(level, j, power), {})
            if power == 1 or power == -1:
                self._generators[key] = g
        return g

    # Literal and generator-word bridge used by the system and assignment formats.
    def read_element(self, tokens):
        return read_nested(tokens, self)

    def serialize_element(self, g):
        return nested_str(g)

    def generator_word(self, g):
        """`@b<j>_<k>^e` for a power of this level's base generator b_j, the
        inner word for an embedded inner element, else None."""
        if not g.base:
            return self.inner().generator_word(g.active)
        if len(g.base) == 1 and g.active.is_identity():
            key, vec = g.base[0]
            nonzero = [j for j, v in enumerate(vec) if v]
            if len(nonzero) == 1 and key.is_identity():
                j = nonzero[0]
                return power_word(f"b{j + 1}_{len(self.ranks)}", vec[j])
        return None


class NestedElement:
    """Element of an iterated wreath product of depth >= 3.

    `active` is an inner-group element; `base` is a canonically sorted tuple
    of (inner element, nonzero integer vector) pairs giving the finitely
    supported base coordinates.  A support point may occur only once.
    """

    __slots__ = ("spec", "active", "base")

    def __init__(self, spec, active, base):
        inner = spec.inner()
        if active.spec != inner:
            raise SpecMismatchError(f"active part belongs to {active.spec}, not {inner}")
        width = spec.ranks[0]
        keyed = []
        for key, vec in (base.items() if hasattr(base, "items") else base):
            vec = tuple(vec)
            if key.spec != inner:
                raise SpecMismatchError(f"support point belongs to {key.spec}, not {inner}")
            if len(vec) != width or not all(isinstance(e, int) for e in vec):
                raise PreconditionError(f"vector {vec!r} invalid for rank {width}")
            keyed.append((key.sort_key(), key, vec))
        keyed.sort(key=lambda item: item[0])
        for before, after in zip(keyed, keyed[1:]):
            if before[0] == after[0]:
                raise PreconditionError(f"support point {after[1]} is repeated")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "base", tuple((key, vec) for _, key, vec in keyed if any(vec)))

    @classmethod
    def _unchecked(cls, spec, active, support):
        """Products and inverses of valid elements: no checks, only normal form.

        `support` maps distinct inner elements of `spec` to integer vectors of
        its base rank; they are put in canonical order and zero vectors dropped.
        """
        entries = [(key, vec) for key, vec in support.items() if any(vec)]
        if len(entries) > 1:
            entries.sort(key=lambda entry: entry[0].sort_key())
        g = object.__new__(cls)
        object.__setattr__(g, "spec", spec)
        object.__setattr__(g, "active", active)
        object.__setattr__(g, "base", tuple(entries))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("NestedElement is immutable")

    def _check(self, other):
        if not isinstance(other, NestedElement) or other.spec != self.spec:
            raise SpecMismatchError(f"cannot combine elements of different iterated groups")

    def __mul__(self, other):
        """(alpha, p)(beta, q) = (alpha beta, p.beta + q).

        `p.beta` right-multiplies every support point of p by beta.  Cost:
        one inner product for the active parts and one per support point
        of p (none when beta is the identity), |q| vector additions of
        width m_k, and sorting the result's support.
        """
        self._check(other)
        support = {}
        _shift_add(support, self.base, other.active, 1)
        _shift_add(support, other.base, None, 1)
        return NestedElement._unchecked(self.spec, self.active * other.active, support)

    def inverse(self):
        """(alpha, p)^-1 = (alpha^-1, -p.alpha^-1).

        Cost: one inner inverse, one inner product per support point of p
        (none when alpha is the identity), and sorting the support.
        """
        ai = self.active.inverse()
        support = {}
        _shift_add(support, self.base, ai, -1)
        return NestedElement._unchecked(self.spec, ai, support)

    def commutator(self, other):
        """[g, h] = g^-1 h^-1 g h in closed form, with no intermediate elements.

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
        flat closed form `WreathElement.commutator` ends the recursion.
        """
        self._check(other)
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
        return not self.base and self.active.is_identity()

    def project(self):
        """Quotient map onto the inner group (kill the base coordinates)."""
        return self.active

    def sort_key(self):
        return (self.active.sort_key(),
                tuple((key.sort_key(), vec) for key, vec in self.base))

    def __eq__(self, other):
        if not isinstance(other, NestedElement):
            return NotImplemented
        return (self.spec == other.spec and self.active == other.active
                and self.base == other.base)

    def __hash__(self):
        return hash((self.spec, self.active, self.base))

    def __str__(self):
        return nested_str(self)

    def __repr__(self):
        return f"NestedElement({nested_str(self)!r})"


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


def nested_str(g):
    """Canonical literal; the active part and support points print as inner literals.

    `str` of an element at any level is its canonical literal, so the
    innermost parts print as flat literals `{ active: (...); b1: ... }`.
    """
    entries = [
        "[ " + str(key) + " -> (" + ",".join(str(v) for v in vec) + ") ]"
        for key, vec in g.base]
    body = " " + ", ".join(entries) + " " if entries else " "
    return "{ active: " + str(g.active) + ";" + body + "}"


def parse_nested(text, spec):
    """Parse the recursive element literal; one tokenizer pass and one descent, O(len(text))."""
    return parse_whole(text, read_nested, spec)


def read_nested(tokens, spec):
    """`{ active: inner [;] { [ inner -> vector ] [,] } }`, inner literals read in place."""
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
            raise tokens.error(f"repeated support point {key}", at)
        tokens.expect("->")
        support[key] = read_vector(tokens, spec.ranks[0])
        tokens.expect("]")
        tokens.accept(",")
    tokens.expect("}")
    return NestedElement(spec, active, support)


# -- lifting --------------------------------------------------------------------


def _convert_word(word, convert):
    if isinstance(word, Constant):
        return Constant(convert(word.value))
    if isinstance(word, Concat):
        return Concat(tuple(_convert_word(p, convert) for p in word.parts))
    if isinstance(word, Commutator):
        return Commutator(_convert_word(word.left, convert), _convert_word(word.right, convert))
    if isinstance(word, Power):
        return Power(_convert_word(word.body, convert), word.exponent)
    return word


def lift_system(system, b):
    """Lift a system over H to one over K wr H using base generator b of K wr H.

    Every equation w = 1 over H becomes the single equation [w', b] = 1, where
    w' is w with each constant embedded as a pure active part.  No variable
    is added, so `declared_vars` passes through unchanged; O(size of the
    system) time and output.

    Equivalence.  b is a base generator at the inner identity, and its
    centralizer in K wr H is exactly the base subgroup: conjugating b by an
    element with active part a moves its support point from the identity to
    a, and H acts freely on the support, so g commutes with b iff a = 1.  So
    [w', b] = 1 holds under an assignment s iff w'(s) projects to 1 in H.
    Projection is a homomorphism and sends each embedded constant back to the
    original, so the projection of w'(s) is w evaluated at the projected
    assignment: s solves the lifted equation iff its projection solves w = 1.
    The former lift, the pair {w' = t, [t, b] = 1} with a fresh t, has the
    same solutions up to t, because t is determined by w'.
    """
    outer = b.spec
    inner = outer.inner()

    def convert(value):
        if value.spec != inner:
            raise SpecMismatchError(
                f"system constant belongs to {value.spec}, expected {inner}")
        return outer.embed(value)

    return System(
        tuple(equation(Commutator(_convert_word(eq.lhs, convert), Constant(b)))
              for eq in system.equations),
        system.declared_vars)


def project_assignment(assignment):
    """Push every assigned value through the quotient onto the inner group."""
    return {name: value.project() for name, value in assignment.items()}


# -- the iterated pipeline -------------------------------------------------------


def _tower(spec):
    """The groups from the flat innermost pair outward to `spec`."""
    tower = [spec]
    while isinstance(tower[0], IteratedSpec):
        tower.insert(0, tower[0].inner())
    return tower


@dataclass(frozen=True)
class IteratedReduction:
    """Polynomial reduction compiled over a flat or iterated wreath product."""

    poly: object
    spec: object
    flat: object
    system: System

    def witness(self, z):
        """Embed the flat witness level by level (lifting adds no variables)."""
        tower = _tower(self.spec)
        asg = _reduction.witness(self.poly, z, tower[0])
        for outer in tower[1:]:
            asg = {name: outer.embed(value) for name, value in asg.items()}
        return asg

    def extract_solution(self, assignment):
        """Project down to the flat group and read the root back out."""
        asg = {name: assignment[name]
               for name in self.flat.solution_vars if name in assignment}
        for _ in _tower(self.spec)[1:]:
            asg = project_assignment(asg)
        return _reduction.extract_solution(self.flat, asg)


def compile_iterated(f, spec):
    """Compile f over the group of `spec_for_ranks` by lifting the flat reduction.

    Over a flat `GroupSpec` the result is the flat compiler's system; an
    `IteratedSpec` wraps it in one lift per level above the innermost two,
    using the first generator of each level's outermost base copy.
    """
    tower = _tower(spec)
    flat = _reduction.compile(f, tower[0])
    system = flat.system
    for outer in tower[1:]:
        system = lift_system(system, outer.base_gen(1))
    return IteratedReduction(f, spec, flat, system)
