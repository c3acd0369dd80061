"""The compressed normal form of `NestedElement` against the long-hand one.

A pure-active element, one with an empty base, holds its core (the highest
element below it that is not pure active) once, with the number of levels
it skips.  Long hand, it is one wrapper per level.  These tests rebuild
every value level by level through the checked constructor and through
reference copies of the level-by-level product and inverse kept here, and
read `str` and `sort_key` long hand from the public `active` and `base`:
the compressed values must be equal, hash equal and print and sort the
same, at depths 3 to 8.
"""

import random

import pytest

from zwreath.interp import IteratedSpec, NestedElement
from zwreath.selftest import rand_element, rand_nested
from zwreath.wreath import GroupSpec, WreathElement

# Rank lists of depth 3 to 8, most of them all ones.
TOWERS = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 1, 1), (1, 2, 1, 2), (1,) * 5,
          (2, 1, 1, 1, 1), (1,) * 6, (1, 1, 2, 1, 1, 1), (1,) * 7, (1,) * 8, (2,) + (1,) * 7]


# -- long hand: one level at a time, through the public parts ---------------------------


def rebuild(g):
    """`g` built level by level through the checked constructors."""
    if isinstance(g, WreathElement):
        return WreathElement(g.spec, g.active, g.base)
    return NestedElement(g.spec, rebuild(g.active), [(rebuild(key), vec) for key, vec in g.base])


def long_str(g):
    if isinstance(g, WreathElement):
        return str(g)
    entries = ["[ " + long_str(key) + " -> (" + ",".join(map(str, vec)) + ") ]"
               for key, vec in g.base]
    body = " " + ", ".join(entries) + " " if entries else " "
    return "{ active: " + long_str(g.active) + ";" + body + "}"


def long_key(g):
    if isinstance(g, WreathElement):
        return g.sort_key()
    return (long_key(g.active), tuple((long_key(key), vec) for key, vec in g.base))


def _add(support, key, vec):
    old = support.get(key)
    support[key] = vec if old is None else tuple(a + b for a, b in zip(old, vec))


def long_mul(g, h):
    """(alpha, p)(beta, q) = (alpha beta, p.beta + q), one level at a time."""
    if isinstance(g, WreathElement):
        return g * h
    support = {}
    for key, vec in g.base:
        _add(support, long_mul(key, h.active), vec)
    for key, vec in h.base:
        _add(support, key, vec)
    return NestedElement(g.spec, long_mul(g.active, h.active), support)


def long_inverse(g):
    """(alpha, p)^-1 = (alpha^-1, -p.alpha^-1), one level at a time."""
    if isinstance(g, WreathElement):
        return g.inverse()
    ai = long_inverse(g.active)
    return NestedElement(g.spec, ai, [(long_mul(key, ai), tuple(-v for v in vec))
                                      for key, vec in g.base])


def long_power(g, e):
    acc = g.spec.identity()
    for _ in range(abs(e)):
        acc = long_mul(acc, g)
    return long_inverse(acc) if e < 0 else acc


def assert_normal(g):
    """The stored form is the normal form, at every level of `g`."""
    if isinstance(g, WreathElement):
        return
    part, skip = g._part, g._skip
    assert len(part.spec.ranks) == len(g.spec.ranks) - 1 - skip
    if g.base:
        assert skip == 0
        for key, _ in g.base:
            assert_normal(key)
    else:
        assert not (isinstance(part, NestedElement) and not part.base), "a pure-active core"
    assert_normal(part)
    assert g.is_identity() == (not g.base and g.active.is_identity())


def assert_long_hand(g):
    """`g` is the element built level by level, with the same hash, text and key."""
    assert_normal(g)
    slow = rebuild(g)
    assert g == slow and slow == g
    assert hash(g) == hash(slow)
    assert str(g) == long_str(g) == str(slow)
    assert g.sort_key() == long_key(g) == slow.sort_key()
    assert g.active == slow.active and str(g.active) == long_str(g.active)
    assert g.base == slow.base


# -- the values ---------------------------------------------------------------------------


def sample(rng, spec):
    """A random element of `spec`: a random nested element, an embedded flat
    or nested value, a generator power, or a tower with supports at several
    levels and pure-active levels between them."""
    tower = spec.tower
    depth = len(spec.ranks)
    roll = rng.random()
    if roll < 0.2:
        return rand_nested(rng, spec, max_support=1 if depth > 5 else 2)
    if roll < 0.4:
        return spec.embed(rand_element(rng, tower[0]))
    if roll < 0.55:
        below = rng.choice(tower[1:-1] or tower[:1])
        return spec.embed(rand_nested(rng, below, max_support=1))
    if roll < 0.75:
        level = rng.randint(1, depth)
        j = rng.randint(1, spec.ranks[-level])
        return spec.generator(level, j, rng.choice((-2, -1, 1, 3)))
    # Supports at several levels: at each level going up, keep the value
    # pure active or give it a one-point support.
    g = rand_element(rng, tower[0])
    for outer in tower[1:]:
        base = {}
        if rng.random() < 0.5:
            key = outer.inner().embed(rand_element(rng, tower[0])) if isinstance(
                outer.inner(), IteratedSpec) else rand_element(rng, tower[0])
            base[key] = tuple(rng.randint(-2, 2) for _ in range(outer.ranks[0]))
        g = NestedElement(outer, g, base)
    return g


@pytest.mark.parametrize("ranks", TOWERS, ids=lambda ranks: ",".join(map(str, ranks)))
def test_compressed_values_equal_the_long_hand_ones(ranks):
    rng = random.Random("values " + ",".join(map(str, ranks)))
    spec = IteratedSpec(ranks)
    for _ in range(60):
        assert_long_hand(sample(rng, spec))
    assert_long_hand(spec.identity())


@pytest.mark.parametrize("ranks", TOWERS, ids=lambda ranks: ",".join(map(str, ranks)))
def test_arithmetic_agrees_with_the_long_hand_group_law(ranks):
    rng = random.Random("arithmetic " + ",".join(map(str, ranks)))
    spec = IteratedSpec(ranks)
    for _ in range(60):
        g, h = sample(rng, spec), sample(rng, spec)
        product, inverse = g * h, g.inverse()
        assert product == long_mul(g, h)
        assert inverse == long_inverse(g)
        assert g.commutator(h) == long_mul(long_mul(long_mul(
            long_inverse(g), long_inverse(h)), g), h)
        e = rng.choice((-2, -1, 0, 2, 3))
        assert g ** e == long_power(g, e)
        for value in (product, inverse, g.commutator(h), g ** e):
            assert_long_hand(value)


def test_embedding_is_one_object_whatever_the_levels_crossed():
    spec = IteratedSpec((1,) * 8)
    flat = GroupSpec(1, 1).active_gen(1, 2)
    g = spec.embed(flat)
    assert g._part is flat and g._skip == 5
    assert spec.generator(3, 1)._part == spec.tower[1].base_gen(1)
    # Each `active` is built from the same core, one level lower.
    chain = [g]
    while isinstance(chain[-1], NestedElement):
        chain.append(chain[-1].active)
    assert chain[-1] is flat and [c._skip for c in chain[:-1]] == [5, 4, 3, 2, 1, 0]
