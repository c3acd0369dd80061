"""Deterministic size counters, read from the program's outputs.

The counters are computed by the benchmark, outside the program and outside
the timed region: from the CLI's text files for the CLI workload and from the
returned objects otherwise.  They depend only on the inputs, so two runs with
the same seed must give exactly equal counts.

Keys (absent where a workload has no such output):

- ``equations``, ``declared_vars``: size of the compiled system.
- ``text_bytes``: UTF-8 bytes of the system and assignment texts.
- ``laurent_terms``: nonzero Laurent terms over all flat witness values.
- ``coeff_bits``: largest coefficient, in bits, in any witness value.
- ``exponent_span``: largest max-minus-min exponent of one variable within one
  polynomial.
- ``delta_blocks``: blocks of the ideal-power gadget (``dp_y_*`` variables).
- ``support_points``: support entries of nested witness values, all levels.
"""

from __future__ import annotations

import re

_DELTA_Y = re.compile(r"dp_y_\d+$")
_BASE_ENTRY = re.compile(r"b\d+: ([^,}]+)")
_TERM_SPLIT = re.compile(r" [+-] ")
_VAR = re.compile(r"a(\d+)(?:\^(-?\d+))?")


def _poly_stats(monomials, coeffs, acc):
    """Fold one polynomial, given as its exponent vectors and coefficients."""
    acc["laurent_terms"] += len(coeffs)
    acc["coeff_bits"] = max([acc["coeff_bits"]] + [abs(c).bit_length() for c in coeffs])
    for column in zip(*monomials):
        acc["exponent_span"] = max(acc["exponent_span"], max(column) - min(column))


def empty_counts(**extra):
    return dict({"laurent_terms": 0, "coeff_bits": 0, "exponent_span": 0}, **extra)


def text_counters(system_text, assignment_text):
    """Counters from the CLI's system and flat assignment files."""
    lines = [ln.strip() for ln in system_text.splitlines()]
    declared = next((ln[len("# vars:"):].split() for ln in lines if ln.startswith("# vars:")), [])
    acc = empty_counts(
        equations=sum(1 for ln in lines if ln and not ln.startswith("#")),
        declared_vars=len(declared),
        text_bytes=len(system_text.encode()) + len(assignment_text.encode()),
        delta_blocks=sum(1 for name in declared if _DELTA_Y.match(name)))
    for poly in _BASE_ENTRY.findall(assignment_text):
        monomials, coeffs = [], []
        for term in _TERM_SPLIT.split(poly.strip()):
            head = term.lstrip("-").split("*", 1)[0]
            coeffs.append(int(head) if head.isdigit() else 1)
            exps = {int(i): int(e or 1) for i, e in _VAR.findall(term)}
            monomials.append(exps)
        width = max((max(m, default=0) for m in monomials), default=0)
        _poly_stats([tuple(m.get(i, 0) for i in range(1, width + 1)) for m in monomials],
                    coeffs, acc)
    return acc


def fold_value(g, acc):
    """Fold one witness value: flat (Laurent coordinates) or nested (support)."""
    if hasattr(g, "vector"):
        return
    if isinstance(g.active, tuple):
        for p in g.base:
            terms = p.terms
            _poly_stats(list(terms), list(terms.values()), acc)
        return
    acc["support_points"] += len(g.base)
    fold_value(g.active, acc)
    for key, vec in g.base:
        acc["coeff_bits"] = max([acc["coeff_bits"]] + [abs(v).bit_length() for v in vec])
        fold_value(key, acc)


def object_counters(system, assignment):
    """Counters from a compiled system and a witness returned by the library."""
    acc = empty_counts(equations=len(system.equations), declared_vars=len(system.declared_vars),
                 delta_blocks=sum(1 for n in system.declared_vars if _DELTA_Y.match(n)),
                 support_points=0)
    for value in assignment.values():
        fold_value(value, acc)
    return acc


def oracle_counters(e_f):
    """Counters of the membership polynomial e_f returned by ``oracle_ef``."""
    acc = empty_counts()
    _poly_stats(list(e_f.terms), list(e_f.terms.values()), acc)
    return acc


def witness_size(counts):
    """The ``witness_terms`` figure of one instance."""
    return counts.get("support_points", 0) + counts.get("laurent_terms", 0)
