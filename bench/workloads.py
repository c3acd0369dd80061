"""Seeded workloads for the zwreath benchmark, and the checker for their answers.

Every instance is plain data made from ``(workload, seed, index)`` alone, so
the same seed gives the same inputs and the program sees only those inputs.
Each polynomial is generated as a term dict ``{alpha: coeff}`` with a planted
root, and the checker evaluates it with plain ints; it never calls
``IntPolynomial.evaluate``.  Every operation an instance performs is one
*attempted* verdict; a wrong answer or an unexpected exception is a *failed*
one and is recorded with a message, never dropped.

Input sizes do not depend on the seed: instance i takes its shape
(variables, degree, ranks), monomials and roots from slot ``i mod cycle``
alone, and the seed picks coefficients, a small jitter of large roots and
grid order.  Every seed and every prefix of the instance sequence thus has nearly
the same mix of sizes, so the spread between seeds stays small and later
gains show as rate changes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from counters import object_counters, oracle_counters, text_counters

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``zwreath`` afresh from this checkout's ``src`` directory.

    Any ``zwreath`` modules already loaded are dropped first, so each call
    pays the full import.  Raises ImportError when the checkout has no
    ``src/zwreath`` or another copy of the package would be imported.
    """
    src = ROOT / "src"
    if not (src / "zwreath" / "__init__.py").is_file():
        raise ImportError(f"no zwreath package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "zwreath" or n.startswith("zwreath.")]:
        del sys.modules[name]
    zw = importlib.import_module("zwreath")
    for name in ("cli", "equations", "gadgets", "interp", "laurent", "reduction", "wreath"):
        importlib.import_module(f"zwreath.{name}")
    if Path(zw.__file__).resolve().parent != src / "zwreath":
        raise ImportError(f"zwreath imported from {zw.__file__}, not from {src}")
    return zw


# -- the independent checker ---------------------------------------------------


def poly_value(terms, z):
    """f(z) with plain ints, straight from the generated term dict."""
    total = 0
    for alpha, coeff in terms.items():
        term = coeff
        for zi, e in zip(z, alpha):
            term *= zi ** e
        total += term
    return total


def poly_text(terms):
    """The input text of f, e.g. ``3*z1^2*z2 - z1 + 7``."""
    pieces = []
    for alpha, coeff in sorted(terms.items(), key=lambda t: (-sum(t[0]), t[0])):
        factors = [f"z{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(alpha) if e]
        mag = abs(coeff)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        sign = ("-" if coeff < 0 else "") if not pieces else ("- " if coeff < 0 else "+ ")
        pieces.append(sign + body)
    return " ".join(pieces)


@dataclass
class Outcome:
    """Verdicts of one instance, plus the outputs the size counters read."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def op(self, what, fn, *args, expect=None):
        """Run one program operation as one attempted verdict.

        An exception fails the verdict and returns None.  ``expect`` maps
        the result to an error message, or to None when the answer is right.
        """
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:  # every exception is a wrong answer to report
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None
        problem = expect(result) if expect is not None else None
        if problem:
            self.failures.append(f"{what}: {problem}")
        return result


# -- instance generation -------------------------------------------------------


def _random_alpha(rng, s, deg):
    alpha = [0] * s
    for _ in range(deg):
        alpha[rng.randrange(s)] += 1
    return tuple(alpha)


def _monomials(size, s, d, count):
    """Distinct nonconstant exponent vectors, the first of degree d.

    Every variable occurs, since the CLI infers the variable count from the
    text of f.
    """
    count = min(count, math.comb(s + d, d) - 1)
    while True:
        monos = [_random_alpha(size, s, d)]
        while len(monos) < count:
            alpha = _random_alpha(size, s, size.randint(1, d))
            if alpha not in monos:
                monos.append(alpha)
        if all(any(a[i] for a in monos) for i in range(s)):
            return monos


def _plant(rng, monomials, z):
    """Seeded coefficients on ``monomials`` plus the constant making f(z) = 0."""
    while True:
        terms = {alpha: rng.choice((-3, -2, -1, 1, 2, 3)) for alpha in monomials}
        c0 = -poly_value(terms, z)
        if c0:
            terms[(0,) * len(z)] = c0
            return terms


def _root(size, rng, s, lo, hi, jitter=0):
    """Signs and magnitudes from the size stream, moved by up to ``jitter`` by the seed.

    The signs stay fixed because they set the exponent span of e_f: roots of
    opposite signs span |z1| + |z2|, roots of equal signs max(|z1|, |z2|).
    """
    return tuple(size.choice((-1, 1)) * (size.randint(lo, hi) + rng.randint(-jitter, jitter))
                 for _ in range(s))


# (s, d, m, n): variables, degree, active rank, base rank.  Roots 4 <= |z| <= 20.
SMALL_SHAPES = (
    (1, 1, 1, 1), (1, 2, 2, 1), (2, 2, 1, 2), (2, 3, 3, 1),
    (3, 2, 2, 2), (1, 3, 4, 1), (2, 4, 1, 1), (3, 3, 1, 2),
    (1, 4, 2, 2), (2, 2, 4, 2), (3, 4, 3, 1), (2, 3, 2, 1),
)

# (s, d, root magnitude): Z wr Z, roots in the low hundreds.
LARGE_SHAPES = (
    (1, 1, 150), (1, 2, 100), (2, 1, 200), (1, 1, 250),
    (2, 2, 100), (1, 2, 140),
)

# (s, d, largest root magnitude): candidate grids around a planted root.
ORACLE_SHAPES = (
    (1, 1, 1000), (1, 2, 450), (1, 3, 250), (2, 1, 700), (2, 2, 300), (2, 3, 150),
)

# Rank lists, outermost base first: mostly 1^r, some with a 2 in them.
ITERATED_RANKS = (
    (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1),
    (2, 1, 1), (1, 1, 1, 2, 1), (1, 1, 1, 1, 2),
    (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1),
    (1, 2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1),
)


def _roots_small(size, rng, index):
    s, d, m, n = SMALL_SHAPES[index % len(SMALL_SHAPES)]
    monomials = _monomials(size, s, d, min(d + s - 1, 3))
    z = _root(size, rng, s, 4, 20)
    return {"terms": _plant(rng, monomials, z), "z": z, "ranks": (n, m),
            "mutate_at": rng.random()}


def _roots_large(size, rng, index):
    s, d, r = LARGE_SHAPES[index % len(LARGE_SHAPES)]
    monomials = _monomials(size, s, d, s)
    z = _root(size, rng, s, r - 10, r + 10, jitter=2)
    return {"terms": _plant(rng, monomials, z), "z": z, "ranks": (1, 1)}


def _oracle_grid(size, rng, index):
    """One planted root and its grid of candidate points (5 or 9 of them)."""
    s, d, r = ORACLE_SHAPES[index % len(ORACLE_SHAPES)]
    monomials = _monomials(size, s, d, s + 1)
    root = _root(size, rng, s, r // 2, r, jitter=2)
    terms = _plant(rng, monomials, root)
    offsets = [(-2,), (-1,), (0,), (1,), (2,)] if s == 1 else [
        (i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    points = [tuple(c + o for c, o in zip(root, off)) for off in offsets]
    rng.shuffle(points)
    return [{"terms": terms, "z": p} for p in points]


def _iterated_depth(size, rng, index):
    ranks = ITERATED_RANKS[index % len(ITERATED_RANKS)]
    (r,) = _root(size, rng, 1, 1, 5)
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    return {"terms": {(1,): c, (0,): -c * r}, "z": (r,), "ranks": ranks}


# workload: (generator, cycle).  Instance i takes its sizes (shape, monomials,
# roots) from slot i mod cycle alone, and its coefficients, root jitter and
# grid order from the seed.  Odd cycles keep the median and the tail
# percentile inside one slot's cluster of latencies, not between two.
GENERATORS = {
    "roots-small": (_roots_small, 25),
    "roots-large": (_roots_large, 13),
    "oracle-grid": (_oracle_grid, 13),
    "iterated-depth": (_iterated_depth, len(ITERATED_RANKS)),
}


def generate(workload, seed, count):
    """The first ``count`` instances of a workload under a seed."""
    make, cycle = GENERATORS[workload]
    out = []
    index = 0
    while len(out) < count:
        size = random.Random(f"{workload}:size:{index % cycle}")
        made = make(size, random.Random(f"{workload}:{seed}:{index}"), index)
        out.extend(made if isinstance(made, list) else [made])
        index += 1
    return out[:count]


# -- running one instance ------------------------------------------------------


_ACTIVE_RE = re.compile(r"active: \((-?\d+)")


def mutate_assignment(text, at):
    """Shift the first active exponent of one assignment line by one.

    The line is picked by ``at`` in [0, 1).  Every variable of a compiled
    system is pinned by some equation, so the result must fail to verify.
    """
    lines = text.splitlines()
    idx = int(at * len(lines))
    lines[idx] = _ACTIVE_RE.sub(lambda mt: f"active: ({int(mt.group(1)) + 1}",
                                lines[idx], count=1)
    return "\n".join(lines) + "\n"


class Runner:
    """Drives one instance through the program and checks every answer."""

    def __init__(self, zw, workload, workdir):
        self.zw = zw
        self.workload = workload
        self.workdir = Path(workdir)
        self.run = getattr(self, "_" + workload.replace("-", "_"))

    def _cli(self, out, what, argv, code, stdout=None):
        """One in-process CLI call that must exit with ``code`` and print ``stdout``."""
        buf = io.StringIO()

        def expect(got):
            if got != code:
                return f"exit {got}, expected {code}"
            if stdout is not None and buf.getvalue().strip() != stdout:
                return f"printed {buf.getvalue().strip()!r}, expected {stdout!r}"
            return None

        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            out.op(what, self.zw.cli.main, argv, expect=expect)

    def _roots_small(self, inst):
        out = Outcome()
        poly = "--poly=" + poly_text(inst["terms"])
        ranks = "--ranks=" + ",".join(map(str, inst["ranks"]))
        sol = ",".join(map(str, inst["z"]))
        system = str(self.workdir / "system.eqs")
        asg = str(self.workdir / "witness.asg")
        bad = str(self.workdir / "mutated.asg")
        for path in (system, asg, bad):  # no stale file may stand in for a missing output
            Path(path).unlink(missing_ok=True)
        self._cli(out, "compile", ["compile", poly, ranks, "-o", system], 0)
        self._cli(out, "witness", ["witness", poly, ranks, "--solution=" + sol, "-o", asg], 0)
        self._cli(out, "verify", ["verify", ranks, "--system", system, "--assignment", asg], 0)
        self._cli(out, "extract", ["extract", poly, ranks, "--assignment", asg], 0, stdout=sol)
        try:
            with open(system, encoding="utf-8") as fh:
                system_text = fh.read()
            with open(asg, encoding="utf-8") as fh:
                witness_text = fh.read()
        except OSError:
            return out  # the failed compile or witness is already counted
        with open(bad, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(mutate_assignment(witness_text, inst["mutate_at"]))
        self._cli(out, "verify mutated", ["verify", ranks, "--system", system, "--assignment", bad], 1)
        out.outputs = {"system_text": system_text, "assignment_text": witness_text}
        return out

    def _roots_large(self, inst):
        zw, out = self.zw, Outcome()
        z = inst["z"]
        f = zw.reduction.IntPolynomial(len(z), inst["terms"])
        spec = zw.wreath.GroupSpec(m=inst["ranks"][1], n=inst["ranks"][0])
        compiled = out.op("compile", zw.reduction.compile, f, spec)
        if compiled is None:
            return out
        asg = out.op("witness", zw.reduction.witness, f, z, spec)
        if asg is None:
            return out
        out.op("check_system", zw.equations.check_system, compiled.system, asg, spec,
               expect=lambda rep: None if rep.ok else f"failing equations {rep.failures[:5]}")
        out.op("extract", zw.reduction.extract_solution, compiled, asg,
               expect=lambda got: None if tuple(got) == z else f"got {got}, planted {z}")
        out.outputs = {"system": compiled.system, "assignment": asg}
        return out

    def _oracle_grid(self, inst):
        zw, out = self.zw, Outcome()
        z = inst["z"]
        f = zw.reduction.IntPolynomial(len(z), inst["terms"])
        is_root = poly_value(inst["terms"], z) == 0
        result = out.op("oracle_ef", zw.reduction.oracle_ef, f, z,
                        expect=lambda r: None if r[1] is is_root else
                        f"verdict {r[1]} at {z}, but f(z) == 0 is {is_root}")
        if result is not None:
            out.outputs = {"e_f": result[0]}
        return out

    def _iterated_depth(self, inst):
        zw, out = self.zw, Outcome()
        eq = zw.equations
        z = inst["z"]
        f = zw.reduction.IntPolynomial(1, inst["terms"])
        spec = zw.interp.IteratedSpec(inst["ranks"])
        compiled = out.op("compile_iterated", zw.interp.compile_iterated, f, spec)
        if compiled is None:
            return out
        asg = out.op("witness", compiled.witness, z)
        if asg is None:
            return out
        texts = out.op("serialize", lambda: (eq.serialize_system(compiled.system),
                                             eq.serialize_assignment(asg)))
        if texts is None:
            return out
        parsed = out.op(
            "parse", lambda: (eq.parse_system(texts[0], spec), eq.parse_assignment(texts[1], spec)),
            expect=lambda p: None if p == (compiled.system, asg) else
            "text round trip changed the system or the assignment")
        if parsed is None:
            return out
        out.op("check_system", eq.check_system, parsed[0], parsed[1], spec,
               expect=lambda rep: None if rep.ok else f"failing equations {rep.failures[:5]}")
        out.op("extract", compiled.extract_solution, parsed[1],
               expect=lambda got: None if tuple(got) == z else f"got {got}, planted {z}")
        out.outputs = {"system": compiled.system, "assignment": asg,
                       "system_text": texts[0], "assignment_text": texts[1]}
        return out

    def counters(self, inst, outcome):
        """Size counters read from an instance's outputs (not timed)."""
        o = outcome.outputs
        if not o:
            return {}
        if self.workload == "roots-small":
            return text_counters(o["system_text"], o["assignment_text"])
        if self.workload == "oracle-grid":
            return oracle_counters(o["e_f"])
        counts = object_counters(o["system"], o["assignment"])
        if "system_text" in o:
            counts["text_bytes"] = len(o["system_text"].encode()) + len(o["assignment_text"].encode())
        counts["ranks"] = inst["ranks"]
        return counts
