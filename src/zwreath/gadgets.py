"""Definability gadgets over Z^n wr Z^m, with constructive witness builders.

Each gadget is a small equation system over distinguished constants a1 (first
active generator) and b1 (first base generator).  Its first declared variable
is the interface variable; the rest are deterministic fresh auxiliaries.
Witness builders return assignment fragments that satisfy the corresponding
gadget exactly.  An auxiliary that a gadget defines by an equation
`name = word` gets its value by evaluating that word; only those no equation
defines have a dedicated builder: the cyclic gadget's geometric series and
the ideal-power blocks' quotients y_beta.  The cyclic gadget needs its
auxiliary only at m >= 2: at m = 1 the centralizer of a1 is <a1>.  Each
ideal-power block's commutator chain is one left-normed commutator, so the
block defines x_beta alone, with no variable per chain link.  Every builder
that reads the active rank refuses a spec other than a flat `GroupSpec`.
"""

from __future__ import annotations

import itertools

from .equations import (Commutator, Constant, Literal, System, concat,
                        equation, evaluate)
from .errors import PreconditionError
from .laurent import Frozen, delta_decompose, geom_series
from .wreath import GroupSpec


def _flat_spec(spec, builder):
    """`spec`, which must be flat: `builder` reads the active rank m of Z^n wr Z^m."""
    if not isinstance(spec, GroupSpec):
        raise PreconditionError(
            f"{builder} needs a GroupSpec, got {spec!r}; "
            "the gadgets are defined over a flat wreath product only")
    return spec


def gadget_in_N(x, spec):
    """Membership in the base subgroup: [x, b1] = 1."""
    return System((equation(Commutator(Literal(x), Constant(spec.generator(2, 1)))),), (x,))


def gadget_in_A(x, spec):
    """Membership in the acting subgroup: [x, a1] = 1."""
    return System((equation(Commutator(Literal(x), Constant(spec.generator(1, 1)))),), (x,))


def gadget_cyclic(x, spec, z_name="cyc_z_1"):
    """Membership in the cyclic subgroup generated by a1.

    At m = 1 this is `gadget_in_A`, the one equation [x,a1] = 1: x = (alpha,
    p) commutes with a1 exactly when p (a1 - 1) = 0, and Z[a1^{+-1}] has no
    zero divisors, so p = 0 and the centralizer of a1 is <a1> itself.
    Declares x alone; one equation of O(1) size.

    At m >= 2 the centralizer of a1 is all of A, and the system [x,a1] = 1,
    [z,b1] = 1, [b1,x] = [z,a1] is solvable exactly when x is a power of a1:
    the witness for x = a1^gamma sets z to b1 acted on by the geometric
    series with sum times (a1 - 1) equal to a1^gamma - 1.  Declares (x, z);
    three equations of O(1) size.
    """
    if _flat_spec(spec, "gadget_cyclic").m == 1:
        return gadget_in_A(x, spec)
    a1 = Constant(spec.generator(1, 1))
    b1 = Constant(spec.generator(2, 1))
    eqs = (
        equation(Commutator(Literal(x), a1)),
        equation(Commutator(Literal(z_name), b1)),
        equation(Commutator(b1, Literal(x)), Commutator(Literal(z_name), a1)),
    )
    return System(eqs, (x, z_name))


def witness_cyclic(gamma, spec, x_name="x", z_name="cyc_z_1"):
    """Satisfying fragment for `gadget_cyclic`: {x: a1^gamma}, and at m >= 2
    also z: b1^s for the geometric series s.

    At m = 1 that is one generator, O(1).  At m >= 2 z is the base element
    whose b1 coordinate is s, built without a ring product; s has |gamma|
    terms, so this costs O(|gamma|) time and output.
    """
    x = _flat_spec(spec, "witness_cyclic").generator(1, 1, gamma)
    if spec.m == 1:
        return {x_name: x}
    return {x_name: x, z_name: spec.element(base={1: geom_series(gamma, spec.m)})}


# -- membership in powers of the augmentation ideal ---------------------------


class DeltaBlock(Frozen):
    """One generator-product block of the ideal-power gadget."""

    __slots__ = _fields = ("beta", "y_name", "x_name")

    def __init__(self, beta, y_name, x_name):
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "y_name", y_name)
        object.__setattr__(self, "x_name", x_name)


def delta_blocks(spec, k):
    """Deterministic block layout for `gadget_delta_power` and its witness.

    Blocks are indexed by the exponent vectors beta of total degree k over the
    m active generators, in ascending lexicographic order.  They are the
    C(k+m-1, m-1) placements of m-1 bars among k+m-1 slots, read off in
    order: beta_i counts the slots between bar i-1 and bar i.  Each block
    names x_beta and y_beta, with the prefix `dp`, so the layout costs
    O(C(k+m-1, m-1) * m) time and O(C(k+m-1, m-1)) names.
    """
    if type(k) is not int or k < 1:
        raise PreconditionError(f"ideal power must be a positive int, got {k!r}")
    blocks = []
    slots = k + _flat_spec(spec, "delta_blocks").m - 1
    betas = (tuple(hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (slots,)))
             for bars in itertools.combinations(range(slots), spec.m - 1))
    for idx, beta in enumerate(betas, start=1):
        blocks.append(DeltaBlock(beta, f"dp_y_{idx}", f"dp_x_{idx}"))
    return blocks


def _block_chain(block, spec):
    """The word defining x_beta: [y_beta, a1 (beta_1 times), ..., am (beta_m times)]."""
    factors = [Constant(spec.generator(1, i)) for i, reps in enumerate(block.beta, start=1)
               for _ in range(reps)]
    return Commutator(Literal(block.y_name), *factors)


def gadget_delta_power(x, k, spec):
    """x lies in the base subgroup acted on by the k-th ideal power.

    Emits x = prod_beta x_beta and, per block, [y_beta, b1] = 1 and the
    definition x_beta = [y_beta, a1, ..., am], the left-normed commutator of
    y_beta by a1 (beta_1 times), ..., am (beta_m times).  Declares x, then
    per block x_beta and y_beta.  With B = C(k+m-1, m-1) blocks that is
    1 + 2B equations and variables; each definition is a chain of k factors.
    """
    blocks = delta_blocks(_flat_spec(spec, "gadget_delta_power"), k)
    b1 = Constant(spec.generator(2, 1))
    eqs = [equation(Literal(x), concat(*[Literal(bl.x_name) for bl in blocks]))]
    declared = [x]
    for bl in blocks:
        declared.append(bl.x_name)
        declared.append(bl.y_name)
        eqs.append(equation(Commutator(Literal(bl.y_name), b1)))
        eqs.append(equation(Literal(bl.x_name), _block_chain(bl, spec)))
    return System(tuple(eqs), tuple(declared))


def witness_delta_power(g, k):
    """Auxiliary assignment fragment for `gadget_delta_power` at x = g.

    Decomposes every base coordinate of g over the degree-k generator
    products, so y_beta carries the quotient coordinates; x_beta comes from
    evaluating the gadget's own definition of it, k closed-form commutators
    of O(n * terms) each.  Raises PreconditionError if some coordinate is
    outside the k-th ideal power.
    """
    spec = _flat_spec(g.spec, "witness_delta_power")
    failure = f"element is not in the ideal-power-{k} base subgroup"
    if any(g.active):
        raise PreconditionError(f"{failure}: active part {g.active} is nontrivial")
    # delta_blocks rejects a bad k, so delta_decompose below fails only on a
    # coordinate outside the k-th ideal power.
    blocks = delta_blocks(spec, k)
    decomposed = []
    for j, p in enumerate(g.base):
        try:
            decomposed.append(delta_decompose(p, k))
        except PreconditionError as refusal:
            raise PreconditionError(f"{failure}: coordinate b{j + 1}: {refusal}") from None
    fragment = {}
    for bl in blocks:
        fragment[bl.y_name] = spec.element(base={
            j + 1: parts[bl.beta] for j, parts in enumerate(decomposed) if bl.beta in parts})
        fragment[bl.x_name] = evaluate(_block_chain(bl, spec), fragment, spec)
    return fragment
