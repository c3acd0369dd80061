"""Definability gadgets over Z^n wr Z^m, with constructive witness builders.

Each gadget is a small equation system over distinguished constants a1 (first
active generator) and b1 (first base generator), exposing named interface
variables and deterministic fresh auxiliaries.  Witness builders return
assignment fragments that satisfy the corresponding gadget exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .equations import (Commutator, Constant, Literal, System, concat,
                        equation, serialize_system)
from .errors import PreconditionError
from .laurent import (aug_valuation, delta_decompose, delta_generator_product,
                      geom_series)
from .wreath import module_action


@dataclass(frozen=True)
class Gadget:
    """An equation system with named interface and auxiliary variables."""

    interface_vars: tuple
    aux_vars: tuple
    system: System

    def __post_init__(self):
        overlap = set(self.interface_vars) & set(self.aux_vars)
        if overlap:
            raise PreconditionError(
                f"auxiliary names collide with interface names: {sorted(overlap)}")

    def serialize(self):
        header = "# interface: " + " ".join(self.interface_vars)
        return header + "\n" + serialize_system(self.system)


def gadget_in_N(x, spec):
    """Membership in the base subgroup: [x, b1] = 1."""
    eq = equation(Commutator(Literal(x), Constant(spec.base_gen(1))))
    return Gadget((x,), (), System((eq,), (x,)))


def gadget_in_A(x, spec):
    """Membership in the acting subgroup: [x, a1] = 1."""
    eq = equation(Commutator(Literal(x), Constant(spec.active_gen(1))))
    return Gadget((x,), (), System((eq,), (x,)))


def gadget_cyclic(x, spec, z_name="cyc_z_1"):
    """Membership in the cyclic subgroup generated by a1.

    The system [x,a1] = 1, [z,b1] = 1, [b1,x] = [z,a1] is solvable exactly
    when x is a power of a1; the witness for x = a1^gamma sets z to b1 acted
    on by the geometric series with sum times (a1 - 1) equal to a1^gamma - 1.
    """
    a1 = Constant(spec.active_gen(1))
    b1 = Constant(spec.base_gen(1))
    eqs = (
        equation(Commutator(Literal(x), a1)),
        equation(Commutator(Literal(z_name), b1)),
        equation(Commutator(b1, Literal(x)), Commutator(Literal(z_name), a1)),
    )
    return Gadget((x,), (z_name,), System(eqs, (x, z_name)))


def witness_cyclic(gamma, spec, x_name="x", z_name="cyc_z_1"):
    """Satisfying fragment {x: a1^gamma, z: b1^(geometric series)}."""
    return {
        x_name: spec.active_gen(1) ** gamma,
        z_name: module_action(spec.base_gen(1), geom_series(gamma, spec.m)),
    }


# -- membership in powers of the augmentation ideal ---------------------------


@dataclass(frozen=True)
class DeltaBlock:
    """One generator-product block of the ideal-power gadget."""

    beta: tuple
    y_name: str
    x_name: str
    chain_names: tuple


def delta_blocks(spec, k, prefix="dp"):
    """Deterministic block layout for `gadget_delta_power` and its witness.

    Blocks are indexed by the exponent vectors beta of total degree k over the
    m active generators, in ascending lexicographic order.  They are the
    C(k+m-1, m-1) placements of m-1 bars among k+m-1 slots, read off in
    order: beta_i counts the slots between bar i-1 and bar i.
    """
    if not isinstance(k, int) or k < 1:
        raise PreconditionError(f"ideal power must be a positive int, got {k!r}")
    blocks = []
    slots = k + spec.m - 1
    betas = (tuple(hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (slots,)))
             for bars in itertools.combinations(range(slots), spec.m - 1))
    for idx, beta in enumerate(betas, start=1):
        chain = tuple(f"{prefix}_c_{idx}_{t}" for t in range(1, k))
        blocks.append(DeltaBlock(beta, f"{prefix}_y_{idx}", f"{prefix}_x_{idx}", chain))
    return blocks


def _chain_equations(base_word, factor_words, final_name, chain_names):
    """Left-normed commutator chain, one commutator node per equation."""
    eqs = []
    cur = base_word
    for step, factor in enumerate(factor_words):
        target = final_name if step == len(factor_words) - 1 else chain_names[step]
        eqs.append(equation(Literal(target), Commutator(cur, factor)))
        cur = Literal(target)
    return eqs


def gadget_delta_power(x, k, spec, prefix="dp"):
    """x lies in the base subgroup acted on by the k-th ideal power.

    Emits x = prod_beta x_beta and, per block, [y_beta, b1] = 1 together with
    a chain equating x_beta to the left-normed commutator of y_beta by a1
    (beta_1 times), ..., am (beta_m times).
    """
    blocks = delta_blocks(spec, k, prefix)
    b1 = Constant(spec.base_gen(1))
    eqs = [equation(Literal(x), concat(*[Literal(bl.x_name) for bl in blocks]))]
    declared = [x]
    for bl in blocks:
        declared.append(bl.x_name)
        declared.append(bl.y_name)
        declared.extend(bl.chain_names)
        eqs.append(equation(Commutator(Literal(bl.y_name), b1)))
        factors = []
        for i, reps in enumerate(bl.beta):
            factors.extend([Constant(spec.active_gen(i + 1))] * reps)
        eqs.extend(_chain_equations(Literal(bl.y_name), factors, bl.x_name, bl.chain_names))
    return Gadget((x,), tuple(declared[1:]), System(tuple(eqs), tuple(declared)))


def witness_delta_power(g, k, prefix="dp"):
    """Auxiliary assignment fragment for `gadget_delta_power` at x = g.

    Decomposes every base coordinate of g over the degree-k generator
    products; per block, y carries the quotient coordinates and the chain
    applies one generator commutator at a time.  Raises PreconditionError if
    some coordinate is outside the k-th ideal power.
    """
    spec = g.spec
    failure = f"element is not in the ideal-power-{k} base subgroup"
    if any(g.active):
        raise PreconditionError(f"{failure}: active part {g.active} is nontrivial")
    # delta_blocks rejects a bad k, so delta_decompose below fails only on a
    # coordinate outside the k-th ideal power.
    blocks = delta_blocks(spec, k, prefix)
    decomposed = []
    for j, p in enumerate(g.base):
        try:
            decomposed.append(delta_decompose(p, k))
        except PreconditionError:
            raise PreconditionError(
                f"{failure}: coordinate b{j + 1} has valuation {aug_valuation(p)} < {k}"
            ) from None
    fragment = {}
    for bl in blocks:
        y = spec.element(base={
            j + 1: parts[bl.beta] for j, parts in enumerate(decomposed) if bl.beta in parts})
        fragment[bl.y_name] = y
        cur = y
        step = 0
        for i, reps in enumerate(bl.beta):
            gen = delta_generator_product(
                tuple(1 if v == i else 0 for v in range(spec.m)), spec.m)
            for _ in range(reps):
                cur = module_action(cur, gen)
                target = bl.chain_names[step] if step < len(bl.chain_names) else bl.x_name
                fragment[target] = cur
                step += 1
    return fragment
