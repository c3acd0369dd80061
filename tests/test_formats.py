"""The text formats as one language: golden CLI output, error positions,
ASCII-only tokens, the separators every literal accepts, and round trips."""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import zwreath
from zwreath.cli import main
from zwreath.equations import (Commutator, Constant, Literal, NameGen,
                               check_system, concat, equation, flatten,
                               parse_assignment, parse_system, power,
                               serialize_assignment, serialize_system,
                               system_of)
from zwreath.errors import ParseError
from zwreath.interp import IteratedSpec, NestedElement, parse_nested, spec_for_ranks
from zwreath.laurent import LaurentPoly, parse_poly
from zwreath.reduction import MAX_VARIABLES, Reduction, parse_intpoly
from zwreath.selftest import _iter_nodes, _solve_definitions
from zwreath.wreath import GroupSpec, WreathElement, parse_element

GOLDEN = Path(__file__).parent / "golden"
S11 = GroupSpec(1, 1)
S23 = GroupSpec(m=3, n=2)
I111 = IteratedSpec((1, 1, 1))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden corpus ---------------------------------------------------------------

# (file stem, polynomial, ranks, root): compile and witness stdout, pinned.
GOLDEN_CASES = [
    ("product_1-1", "z1*z2 - 6", "1,1", "2,3"),
    ("product_2-3", "z1*z2 - 6", "2,3", "2,3"),
    ("product_1-1-1", "z1*z2 - 6", "1,1,1", "2,3"),
    ("product_1-2-1-1", "z1*z2 - 6", "1,2,1,1", "2,3"),
    ("negative_2-1", "z1^2 + 3*z1 + 2", "2,1", "-2"),
    ("linear_1-1-1-1-1-1-1-1", "z1 - 2", "1,1,1,1,1,1,1,1", "2"),
]


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_cli_output_matches_golden_files(capsys, stem, poly, ranks, root):
    system_text = (GOLDEN / f"{stem}.eqs").read_text(encoding="utf-8")
    witness_text = (GOLDEN / f"{stem}.asg").read_text(encoding="utf-8")
    assert run(capsys, "compile", "--poly", poly, "--ranks", ranks) == (0, system_text, "")
    assert run(capsys, "witness", "--poly", poly, "--ranks", ranks,
               "--solution=" + root) == (0, witness_text, "")
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    assert serialize_system(parse_system(system_text, spec)) == system_text
    assert serialize_assignment(parse_assignment(witness_text, spec)) == witness_text


def _long_hand_commutator(self, *factors):
    """[g, h1, ..., hk] folded pairwise as g^-1 h^-1 g h: the reference for
    the closed-form commutators of both element types."""
    acc = self
    for h in factors:
        acc = acc.inverse() * h.inverse() * acc * h
    return acc


def _mutated_witnesses(text):
    """The witness, then per line: its first exponent moved by +-1, and its
    first polynomial given an extra term, each in a copy of the witness."""
    lines = text.splitlines(keepends=True)
    out = [text]
    for i, line in enumerate(lines):
        for delta in (1, -1):
            moved = re.sub(r"active: \((-?[0-9]+)",
                           lambda m: f"active: ({int(m.group(1)) + delta}", line, count=1)
            out.append("".join(lines[:i] + [moved] + lines[i + 1:]))
        head, sep, tail = line.partition("b1: ")
        if sep:
            extra = "3*a1^4 " if tail.startswith("-") else "3*a1^4 + "
            out.append("".join(lines[:i] + [head + sep + extra + tail] + lines[i + 1:]))
    return out


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_verify_output_matches_the_long_hand_commutator(monkeypatch, capsys, tmp_path,
                                                        stem, poly, ranks, root):
    system = str(GOLDEN / f"{stem}.eqs")
    witness = tmp_path / "wit.asg"
    outputs = []
    for text in _mutated_witnesses((GOLDEN / f"{stem}.asg").read_text(encoding="utf-8")):
        witness.write_text(text, encoding="utf-8")
        argv = ("verify", "--ranks", ranks, "--system", system, "--assignment", str(witness))
        closed_form = run(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(WreathElement, "commutator", _long_hand_commutator)
            patch.setattr(NestedElement, "commutator", _long_hand_commutator)
            assert run(capsys, *argv) == closed_form
        outputs.append(closed_form)
    assert outputs[0][0] == 0
    assert all(code == 1 for code, _, _ in outputs[1:])


class CompileCalled(Exception):
    pass


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_witness_and_extract_build_no_system(monkeypatch, capsys, stem, poly, ranks, root):
    def refuse(*args):
        raise CompileCalled(args)

    monkeypatch.setattr(zwreath.cli, "compile", refuse)
    witness = GOLDEN / f"{stem}.asg"
    assert run(capsys, "witness", "--poly", poly, "--ranks", ranks, "--solution=" + root) == (
        0, witness.read_text(encoding="utf-8"), "")
    assert run(capsys, "extract", "--poly", poly, "--ranks", ranks,
               "--assignment", str(witness)) == (0, root + "\n", "")
    with pytest.raises(CompileCalled):
        main(["compile", "--poly", poly, "--ranks", ranks])


# Older texts of the golden systems, which must keep their meaning.
# `legacy/` holds them as printed before constants became generator words,
# every constant an element literal.  `legacy/chains/` holds them and their
# witnesses as printed before each commutator chain became one left-normed
# commutator, every chain link its own variable `c_*` or `dp_c_*`.
# `legacy/blocks/` holds the one golden pair over an active rank above 1 as
# printed before the reduction constrained y with one ideal-power block, when
# y was the product of all C(d+m, m-1) blocks of `gadget_delta_power`.
# `legacy/terms/` holds every golden pair as printed before y became the
# product of the chains themselves, when each support term's chain had its
# own variable `y_<tag>` and the ideal-power chain defined `dp_x_1 = y`.
# `legacy/product/` holds every golden pair as printed before the product
# of the chains joined the ideal-power equation, when y was that product
# and `dp_y_1` its quotient by (a1-1)^(d+1), the value y holds now.
# `legacy/cyclic/` holds every golden pair as printed before [x_i, a1] = 1
# alone pinned x_i, when each x_i had the cyclic gadget's three equations and
# its auxiliary `cyc_z_i`: over an innermost active rank of 1 that layout was
# dropped first, and over a higher rank later.  `legacy/acting/` holds every
# golden pair as printed before the [x_i, a1] = 1 were dropped, when they put
# each x_i in the acting subgroup; the witnesses are the golden ones, byte
# for byte.
LEGACY = GOLDEN / "legacy"
CHAINS = LEGACY / "chains"
BLOCKS = LEGACY / "blocks"
TERMS = LEGACY / "terms"
PRODUCT = LEGACY / "product"
CYCLIC = LEGACY / "cyclic"
ACTING = LEGACY / "acting"
# The depth-8 pair was first written with generator words and has no literal text.
LEGACY_CASES = GOLDEN_CASES[:5]


@pytest.mark.parametrize("stem, poly, ranks, root", LEGACY_CASES)
def test_legacy_literal_systems_parse_to_the_same_system(tmp_path, capsys, stem, poly, ranks, root):
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    legacy = LEGACY / f"{stem}.eqs"
    current = CHAINS / f"{stem}.eqs"
    assert parse_system(legacy.read_text(encoding="utf-8"), spec) == parse_system(
        current.read_text(encoding="utf-8"), spec)
    witness = CHAINS / f"{stem}.asg"
    mutated = tmp_path / "mutated.asg"
    values = parse_assignment(witness.read_text(encoding="utf-8"), spec)
    values["x1"] = values["x1"] * spec.generator(1, 1)
    mutated.write_text(serialize_assignment(values), encoding="utf-8")
    for assignment, code in ((witness, 0), (mutated, 1)):
        verdicts = [run(capsys, "verify", "--ranks", ranks, "--system", str(system),
                        "--assignment", str(assignment)) for system in (legacy, current)]
        assert verdicts[0] == verdicts[1] and verdicts[0][0] == code


def unchained(stem, spec):
    """The system and witness that replaced the chain-link texts of `stem`:
    the pair under `legacy/blocks/` where there is one, else the one under
    `legacy/terms/`."""
    folder = BLOCKS if (BLOCKS / f"{stem}.eqs").exists() else TERMS
    return (parse_system((folder / f"{stem}.eqs").read_text(encoding="utf-8"), spec),
            parse_assignment((folder / f"{stem}.asg").read_text(encoding="utf-8"), spec))


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_chain_link_systems_keep_their_meaning(stem, poly, ranks, root):
    # The system that replaced the chain-link layout is the former one with
    # its link variables substituted away: the former witness solves the
    # former system, and without its link values it is the newer witness.
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    old_system = parse_system((CHAINS / f"{stem}.eqs").read_text(encoding="utf-8"), spec)
    old_witness = parse_assignment((CHAINS / f"{stem}.asg").read_text(encoding="utf-8"), spec)
    system, witness = unchained(stem, spec)
    assert check_system(old_system, old_witness, spec).ok
    links = set(old_system.declared_vars) - set(system.declared_vars)
    assert links and all(name.startswith(("c_", "dp_c_")) for name in links)
    assert {name: old_witness[name] for name in system.declared_vars} == witness
    reduction = Reduction(parse_intpoly(poly), spec)
    expected = tuple(int(v) for v in root.split(","))
    assert reduction.extract_solution(old_witness) == expected


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_flattening_gives_one_definition_per_former_chain_link(stem, poly, ranks, root):
    # Every commutator of the former layout is binary, one per chain link;
    # `flatten` defines one fresh variable per link of each n-ary chain.  A
    # lift adds one link per level above the flat pair to every equation, and
    # the former layout had one equation more per link variable.
    levels = len(ranks.split(","))
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    old_system = parse_system((CHAINS / f"{stem}.eqs").read_text(encoding="utf-8"), spec)
    old_links = [node for word in old_system.equations for node in _iter_nodes(word)
                 if isinstance(node, Commutator)]
    assert all(len(node.factors) == 1 for node in old_links)
    system, witness = unchained(stem, spec)
    fresh = NameGen(reserved=system.declared_vars)
    flat_equations, definitions = [], []
    for word in system.equations:
        flat, aux = flatten(word, fresh)
        flat_equations.append(flat)
        definitions.extend(aux.equations)
    removed = len(old_system.equations) - len(system.equations)
    assert removed > 0
    assert len(definitions) == len(old_links) - removed * (levels - 2)
    extended = _solve_definitions(system_of(definitions), witness, spec)
    assert check_system(system_of(flat_equations + definitions), extended, spec).ok


def test_one_block_and_all_block_systems_accept_their_witnesses(capsys):
    # `legacy/blocks/` constrains y with the B = C(3+2, 2) = 10 blocks of
    # `gadget_delta_power`, `legacy/terms/`, `legacy/product/`,
    # `legacy/cyclic/`, `legacy/acting/` and the golden system with the one
    # block (3, 0, 0): 3s + t + 2 + 2B, 3s + t + 4, 3s + 3, 3s + 2, s + 2
    # and 2 equations for s = 2 variables and t = 2 terms.
    for folder, count in ((BLOCKS, 3 * 2 + 2 + 2 + 2 * 10), (TERMS, 3 * 2 + 2 + 4),
                          (PRODUCT, 3 * 2 + 3), (CYCLIC, 3 * 2 + 2), (ACTING, 2 + 2),
                          (GOLDEN, 2)):
        system, witness = folder / "product_2-3.eqs", folder / "product_2-3.asg"
        code, out, err = run(capsys, "verify", "--ranks", "2,3", "--system", str(system),
                             "--assignment", str(witness))
        assert (code, out.splitlines()[-1], err) == (
            0, f"satisfied: all {count} equations hold", "")
        assert run(capsys, "extract", "--poly", "z1*z2 - 6", "--ranks", "2,3",
                   "--assignment", str(witness)) == (0, "2,3\n", "")


def _own_verdicts(capsys, tmp_path, folder, stem, poly, ranks, root, count):
    """The pair under `folder` verifies through the CLI with all `count`
    equations holding, fails with x1 moved by a1, and extracts `root`."""
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    system, witness = folder / f"{stem}.eqs", folder / f"{stem}.asg"
    values = parse_assignment(witness.read_text(encoding="utf-8"), spec)
    values["x1"] = values["x1"] * spec.generator(1, 1)
    mutated = tmp_path / f"{folder.name}.asg"
    mutated.write_text(serialize_assignment(values), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--ranks", ranks, "--system", str(system),
                         "--assignment", str(witness))
    assert (code, out.splitlines()[-1], err) == (
        0, f"satisfied: all {count} equations hold", "")
    assert run(capsys, "verify", "--ranks", ranks, "--system", str(system),
               "--assignment", str(mutated))[0] == 1
    assert run(capsys, "extract", "--poly", poly, "--ranks", ranks,
               "--assignment", str(witness)) == (0, root + "\n", "")


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_term_variable_layout_keeps_its_verdicts(tmp_path, capsys, stem, poly, ranks, root):
    # The `legacy/product/` system is the one under `legacy/terms/` with its
    # defined auxiliaries y_<tag> and dp_x_1 replaced by their words.  Each
    # layout accepts its own witness, rejects it with x1 moved by a1, and
    # gives the same root; the former witness without those values is the
    # later one.
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    s, t = len(root.split(",")), len(parse_intpoly(poly).terms)
    for folder, count in ((TERMS, 3 * s + t + 4), (PRODUCT, 3 * s + 3)):
        _own_verdicts(capsys, tmp_path, folder, stem, poly, ranks, root, count)
    old_system = parse_system((TERMS / f"{stem}.eqs").read_text(encoding="utf-8"), spec)
    old_witness = parse_assignment((TERMS / f"{stem}.asg").read_text(encoding="utf-8"), spec)
    system = parse_system((PRODUCT / f"{stem}.eqs").read_text(encoding="utf-8"), spec)
    witness = parse_assignment((PRODUCT / f"{stem}.asg").read_text(encoding="utf-8"), spec)
    removed = set(old_system.declared_vars) - set(system.declared_vars)
    assert removed and all(name.startswith("y_") or name == "dp_x_1" for name in removed)
    assert {name: old_witness[name] for name in system.declared_vars} == witness


def _merged_witness_text(text):
    """A `legacy/product/` witness text as the merged layout writes it: its
    line for y, the product, deleted and dp_y_1 renamed y."""
    return "".join("y" + line[len("dp_y_1"):] if line.startswith("dp_y_1 := ") else line
                   for line in text.splitlines(keepends=True) if not line.startswith("y := "))


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_product_layout_keeps_its_verdicts(tmp_path, capsys, stem, poly, ranks, root):
    # The merged system, under `legacy/cyclic/`, is the one under
    # `legacy/product/` with y replaced by its product of chains and dp_y_1
    # renamed y: 3s + 3 equations became 3s + 2.  Each layout accepts its
    # own witness, rejects it with x1 moved by a1, and gives the same root;
    # the former witness text with its y line deleted and dp_y_1 renamed y
    # is the merged one, byte for byte.
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    s = len(root.split(","))
    for folder, count in ((PRODUCT, 3 * s + 3), (CYCLIC, 3 * s + 2)):
        _own_verdicts(capsys, tmp_path, folder, stem, poly, ranks, root, count)
    old_system = parse_system((PRODUCT / f"{stem}.eqs").read_text(encoding="utf-8"), spec)
    system = parse_system((CYCLIC / f"{stem}.eqs").read_text(encoding="utf-8"), spec)
    assert old_system.declared_vars[-2:] == ("y", "dp_y_1")
    assert system.declared_vars == old_system.declared_vars[:-1]
    assert old_system.equations[:-3] == system.equations[:-2]
    old_text = (PRODUCT / f"{stem}.asg").read_text(encoding="utf-8")
    assert _merged_witness_text(old_text) == (CYCLIC / f"{stem}.asg").read_text(encoding="utf-8")


def _without_cyclic_auxiliaries(text):
    """A `legacy/cyclic/` text as written with [x_i, a1] = 1 alone: every line
    naming a `cyc_z_i` deleted, and those names dropped from the declaration."""
    lines = []
    for line in text.splitlines(keepends=True):
        if line.startswith("# vars:"):
            line = " ".join(w for w in line.split(" ") if not w.startswith("cyc_z_"))
        elif "cyc_z_" in line:
            continue
        lines.append(line)
    return "".join(lines)


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_cyclic_auxiliary_layout_keeps_its_verdicts(tmp_path, capsys, stem, poly, ranks, root):
    # Over every innermost active rank the `legacy/acting/` pair is the one
    # under `legacy/cyclic/` with the lines of every cyc_z_i deleted: 3s + 2
    # equations became s + 2.  Each layout accepts its own witness, rejects
    # it with x1 moved by a1, and gives the same root.
    s = len(root.split(","))
    for folder, count in ((CYCLIC, 3 * s + 2), (ACTING, s + 2)):
        _own_verdicts(capsys, tmp_path, folder, stem, poly, ranks, root, count)
    for suffix in ("eqs", "asg"):
        old_text = (CYCLIC / f"{stem}.{suffix}").read_text(encoding="utf-8")
        assert old_text.count("cyc_z_") >= (3 * s if suffix == "eqs" else s)
        assert _without_cyclic_auxiliaries(old_text) == (
            ACTING / f"{stem}.{suffix}").read_text(encoding="utf-8")
    # The former witness, cyc_z_i values and all, still solves both later systems.
    for folder, count in ((ACTING, s + 2), (GOLDEN, 2)):
        code, out, _ = run(capsys, "verify", "--ranks", ranks, "--system",
                           str(folder / f"{stem}.eqs"), "--assignment", str(CYCLIC / f"{stem}.asg"))
        assert (code, out.splitlines()[-1]) == (0, f"satisfied: all {count} equations hold")


@pytest.mark.parametrize("stem, poly, ranks, root", GOLDEN_CASES)
def test_acting_subgroup_layout_keeps_its_verdicts(tmp_path, capsys, stem, poly, ranks, root):
    # The golden system is the one under `legacy/acting/` with its s lines
    # [x_i, @a1, ...] = 1 deleted: s + 2 equations became 2, over the same
    # s + 1 variables, and the witness is byte for byte the same.  Each
    # layout accepts that witness, rejects it with x1 moved by a1, and gives
    # the same root.  With x1 moved by b1, the flat pair's base generator,
    # the former system fails at [x1, @a1, ...] = 1 alone, and the golden
    # one holds: the chains read only the active part of x1, and the root is
    # read off it.
    s = len(root.split(","))
    for folder, count in ((ACTING, s + 2), (GOLDEN, 2)):
        _own_verdicts(capsys, tmp_path, folder, stem, poly, ranks, root, count)
    old_text = (ACTING / f"{stem}.eqs").read_text(encoding="utf-8")
    pins = [line for line in old_text.splitlines(keepends=True) if line.startswith("[x")]
    assert len(pins) == s
    assert "".join(line for line in old_text.splitlines(keepends=True)
                   if line not in pins) == (GOLDEN / f"{stem}.eqs").read_text(encoding="utf-8")
    assert (ACTING / f"{stem}.asg").read_bytes() == (GOLDEN / f"{stem}.asg").read_bytes()
    spec = spec_for_ranks(tuple(int(r) for r in ranks.split(",")))
    values = parse_assignment((ACTING / f"{stem}.asg").read_text(encoding="utf-8"), spec)
    values["x1"] = values["x1"] * spec.generator(2, 1)
    moved = tmp_path / "moved.asg"
    moved.write_text(serialize_assignment(values), encoding="utf-8")
    for folder, code, last in ((ACTING, 1, f"unsatisfied: 1 of {s + 2} equations fail"),
                               (GOLDEN, 0, "satisfied: all 2 equations hold")):
        out = run(capsys, "verify", "--ranks", ranks, "--system", str(folder / f"{stem}.eqs"),
                  "--assignment", str(moved))[1].splitlines()
        assert (out[-1], out[0]) == (last, "equation 1: " + ("FAIL" if code else "ok"))
    assert run(capsys, "extract", "--poly", poly, "--ranks", ranks,
               "--assignment", str(moved)) == (0, root + "\n", "")


# -- every ParseError carries the true line and column ------------------------------

# (parser call, line, column, message fragment), all five grammars.
MALFORMED = [
    (lambda: parse_poly("a1 +", 1), 1, 5, "found 'end of input'"),
    (lambda: parse_poly("", 1), 1, 1, "found 'end of input'"),
    (lambda: parse_poly("b1", 1), 1, 1, "found 'b1'"),
    (lambda: parse_poly("a5", 2), 1, 1, "variable a5 out of range for rank 2"),
    (lambda: parse_poly("2*a1^-x", 1), 1, 7, "expected an integer, found 'x'"),
    (lambda: parse_poly("a1 +\n  $", 1), 2, 3, "unexpected character '$'"),
    (lambda: parse_intpoly("z1^²"), 1, 4, "unexpected character '²'"),
    (lambda: parse_intpoly("z1 - ٣"), 1, 6, "unexpected character '٣'"),
    (lambda: parse_intpoly("z1 ^ -2"), 1, 6, "non-negative exponent"),
    (lambda: parse_intpoly("z1 - 1_0"), 1, 7, "unexpected character '_'"),
    (lambda: parse_intpoly("z3", num_vars=2), 1, 1, "variable z3 out of range"),
    (lambda: parse_element("{ active: (1_0); }", S11), 1, 13, "unexpected character '_'"),
    (lambda: parse_element("{ active: (1,2); }", S11), 1, 11, "vector has 2 entries"),
    (lambda: parse_element("{ active: (0); b7: 1 }", S11), 1, 16, "base coordinate b7"),
    (lambda: parse_element("active: (0)", S11), 1, 1, "expected '{'"),
    (lambda: parse_nested("{ active: { active: (0); }; [ { active: (0); } -> (1,2) ] }",
                          I111), 1, 51, "vector has 2 entries"),
    (lambda: parse_nested("{ active: { active: (0); }; } extra", I111), 1, 31,
     "found 'extra'"),
    (lambda: parse_assignment("x := { active: (0); b1: a1 + $ }", S11), 1, 30,
     "unexpected character '$'"),
    (lambda: parse_assignment("x := { active: (0); }\n\ny := { active: (0); b1: a1^² }\n",
                              S11), 3, 28, "unexpected character"),
    (lambda: parse_assignment("x := { active: (0); }\nx := { active: (1); }\n", S11), 2, 1,
     "assigned twice"),
    (lambda: parse_system("x = 1\n[x, = 1\n", S11), 2, 5, "unexpected token '='"),
    (lambda: parse_system("[x] = 1\n", S11), 1, 3, "expected ',', found ']'"),
    (lambda: parse_system("[x,] = 1\n", S11), 1, 4, "empty word"),
    (lambda: parse_system("[x, y,, z] = 1\n", S11), 1, 7, "empty word"),
    (lambda: parse_system("é = 1\n", S11), 1, 1, "unexpected character 'é'"),
    (lambda: parse_system("# vars: x 1y\nx = 1\n", S11), 1, 11, "expected a name"),
    (lambda: parse_system("# vars: x\n# vars: y\n[y, @a1] = 1\n", S11), 2, 1,
     "at most one '# vars:' header"),
    (lambda: parse_system("# vars: x\n[x, @a1] = 1\n  # vars:\n", S11), 3, 3,
     "at most one '# vars:' header"),
    (lambda: parse_system("# vars: x\n[x, { active: { active: (0); b1: $ }; }] = 1\n", I111),
     2, 34, "unexpected character '$'"),
    (lambda: parse_system("[x, @b2] = 1\n", S11), 1, 5, "unknown generator '@b2' for ranks 1,1"),
    (lambda: parse_system("[x, @c1] = 1\n", S11), 1, 5, "unknown generator '@c1'"),
    (lambda: parse_system("[x, @a1_3] = 1\n", I111), 1, 5, "unknown generator '@a1_3'"),
    (lambda: parse_system("[x, @b1_2] = 1\n", I111), 1, 5, "unknown generator '@b1_2'"),
    (lambda: parse_system("[x, @b1_4] = 1\n", I111), 1, 5, "unknown generator '@b1_4'"),
    (lambda: parse_system("x @b1^y = 1\n", S11), 1, 7, "expected an integer, found 'y'"),
    (lambda: parse_system("x @b1^2^3 = 1\n", S11), 1, 8, "unexpected token '^'"),
    (lambda: parse_system("x @ = 1\n", S11), 1, 3, "unexpected character '@'"),
    (lambda: parse_assignment("x := @a1\n", S11), 1, 6, "expected '{', found '@a1'"),
    (lambda: parse_intpoly("z1 - @z2"), 1, 6, "expected coefficient or variable, found '@z2'"),
    (lambda: parse_element("{ active: [1]; }", S11), 1, 11, "expected '(', found '['"),
    (lambda: parse_element("{ active: (1 2); }", S11), 1, 14, "expected ')', found '2'"),
    (lambda: parse_element("{ active: (+,); }", S11), 1, 13, "expected an integer, found ','"),
    (lambda: parse_element("{ active: (1,,); }", S11), 1, 14, "expected an integer, found ','"),
    (lambda: parse_element("{ active: (-); }", S11), 1, 13, "expected an integer, found ')'"),
    (lambda: parse_element("{ active: (1; }", S11), 1, 13, "expected ')', found ';'"),
    (lambda: parse_poly("a0", 1), 1, 1, "variable indices start at a1"),
    (lambda: parse_poly("2 * * a1", 1), 1, 5, "expected coefficient or variable, found '*'"),
    (lambda: parse_intpoly("z0 + 1"), 1, 1, "variable indices start at z1"),
    (lambda: parse_intpoly("z1^"), 1, 4,
     "expected a non-negative exponent after '^', found 'end of input'"),
    (lambda: parse_intpoly("z1^+2"), 1, 4, "expected a non-negative exponent after '^', found '+'"),
]


@pytest.mark.parametrize("call, line, col, fragment", MALFORMED)
def test_parse_errors_carry_line_and_column(call, line, col, fragment):
    with pytest.raises(ParseError) as exc:
        call()
    assert (exc.value.line, exc.value.col) == (line, col)
    assert fragment in str(exc.value)
    assert str(exc.value).startswith(f"line {line}, col {col}: ")


# -- ASCII digits and names only -------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["compile", "--poly", "z1^²", "--ranks", "1,1"], "line 1, col 4"),
    (["compile", "--poly", "z² - 1", "--ranks", "1,1"], "line 1, col 1"),
    (["compile", "--poly", "z1 - ٣", "--ranks", "1,1"], "line 1, col 6"),
    (["compile", "--poly", "z１", "--ranks", "1,1"], "line 1, col 1"),
    (["compile", "--poly", "z1 - 2", "--ranks", "1_0,1"], "line 1, col 2"),
    (["witness", "--poly", "z1 - 2", "--ranks", "1,1", "--solution", "٣"], "line 1, col 1"),
    (["oracle", "--poly", "z1 - 2", "--ranks", "1,1", "--solution", "1_0"], "line 1, col 2"),
])
def test_non_ascii_digits_are_parse_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}: ")


@pytest.mark.parametrize("ranks, system, assignment, col", [
    ("1,1", "é = 1\n", "x := { active: (0); }\n", 1),
    ("1,1", "# vars: x\nx = 1\n", "x := { active: (1_0); }\n", 18),
    ("1,1", "# vars: x\nx = 1\n", "x := { active: (0); b1: a1^² }\n", 28),
    ("1,1,1", "# vars: x\nx = 1\n",
     "x := { active: { active: (0); }; [ { active: (1); } -> (1_0) ] }\n", 58),
])
def test_non_ascii_in_files_is_a_parse_error(tmp_path, capsys, ranks, system, assignment, col):
    (tmp_path / "s.eqs").write_text(system, encoding="utf-8")
    (tmp_path / "a.asg").write_text(assignment, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--ranks", ranks, "--system", str(tmp_path / "s.eqs"),
                         "--assignment", str(tmp_path / "a.asg"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 1, col {col}: unexpected character")


# -- oversized input ------------------------------------------------------------------

LONG = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("system, assignment, line, col", [
    (f"# vars: x\nx^{LONG} = 1\n", "x := { active: (0); }\n", 2, 3),
    (f"# vars: x\n[x, {{ active: (0); b1: {LONG}*a1 }}] = 1\n", "x := { active: (0); }\n", 2, 24),
    ("# vars: x\nx = 1\n", f"x := {{ active: ({LONG}); }}\n", 1, 17),
    ("# vars: x\nx = 1\n", f"x := {{ active: (0); b1: a1^-{LONG} }}\n", 1, 29),
])
def test_integers_too_long_for_int_are_parse_errors_in_files(
        tmp_path, capsys, system, assignment, line, col):
    (tmp_path / "s.eqs").write_text(system, encoding="utf-8")
    (tmp_path / "a.asg").write_text(assignment, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--ranks", "1,1", "--system", str(tmp_path / "s.eqs"),
                         "--assignment", str(tmp_path / "a.asg"))
    assert (code, out) == (2, "")
    assert err == (f"error: line {line}, col {col}: integer of 5000 digits exceeds the limit "
                   f"of {sys.get_int_max_str_digits()} digits\n")


def test_base_coordinate_index_too_long_for_int_is_a_parse_error(tmp_path, capsys):
    (tmp_path / "s.eqs").write_text("# vars: x\nx = 1\n", encoding="utf-8")
    (tmp_path / "a.asg").write_text(f"x := {{ active: (0); b{LONG}: 1 }}\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--ranks", "1,1", "--system", str(tmp_path / "s.eqs"),
                         "--assignment", str(tmp_path / "a.asg"))
    assert (code, out) == (2, "")
    assert err == "error: line 1, col 21: base coordinate index of 5000 digits out of range 1..1\n"


@pytest.mark.parametrize("poly, col", [(f"z1 - {LONG}", 6), (f"z1^{LONG} - 1", 4)])
def test_integers_too_long_for_int_are_parse_errors_in_polynomials(capsys, poly, col):
    code, out, err = run(capsys, "compile", "--poly", poly, "--ranks", "1,1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 1, col {col}: integer of 5000 digits exceeds the limit")


@pytest.mark.parametrize("poly", ["z1000000 + z1 - 2", f"z{LONG} - 1",
                                  f"z{MAX_VARIABLES + 1} - 1"])
def test_too_many_variables_is_a_precondition_error(capsys, poly):
    code, out, err = run(capsys, "compile", "--poly", poly, "--ranks", "1,1")
    assert (code, out) == (3, "")
    assert err.startswith("error: variable z") and err.endswith(
        f"exceeds the limit of {MAX_VARIABLES} variables\n")


def test_variable_count_limit_is_inclusive_and_leaves_fixed_ranks_alone():
    assert parse_intpoly(f"z{MAX_VARIABLES} - 1").num_vars == MAX_VARIABLES
    assert parse_intpoly(f"z{MAX_VARIABLES + 1}", num_vars=300).num_vars == 300
    with pytest.raises(ParseError, match="out of range for rank 2"):
        parse_intpoly(f"z{MAX_VARIABLES + 1}", num_vars=2)
    with pytest.raises(ParseError, match="out of range for rank 1"):
        parse_poly(f"a{LONG}", 1)


# -- generator words ------------------------------------------------------------------


def test_generator_words_name_the_generators_of_every_level():
    i2111 = IteratedSpec((2, 1, 1, 1))
    words = {"@a1": i2111.embed(I111.embed(S11.active_gen(1))),
             "@b1^-6": i2111.embed(I111.embed(S11.base_gen(1, -6))),
             "@b1_3^2": i2111.embed(I111.base_gen(1, 2)),
             "@b2_4": i2111.base_gen(2)}
    for word, value in words.items():
        system = parse_system(f"[x, {word}] = 1\n", i2111)
        assert system.equations[0] == Commutator(Literal("x"), Constant(value))
        assert serialize_system(system) == f"# vars: x\n[x, {word}] = 1\n"
    # Element literals still read, and any constant that is no generator
    # power is printed as one.
    literal = "[x, { active: { active: { active: (1); }; }; }] = 1\n"
    assert parse_system(literal, i2111) == parse_system("[x, @a1] = 1\n", i2111)
    other = "[x, { active: (1); b1: 1 }] = 1\n"
    assert serialize_system(parse_system(other, S11)) == "# vars: x\n" + other


def test_names_without_the_sigil_stay_variables():
    system = parse_system("[a1, @a1] b1^2 = 1\n", S11)
    assert system.declared_vars == ("a1", "b1")
    assert system.equations[0] == concat(
        Commutator(Literal("a1"), Constant(S11.active_gen(1))), power(Literal("b1"), 2))


def test_powers_of_generator_words_keep_their_shape():
    # `@b1^3` is the constant b1^3; the power of the constant b1 prints as `(@b1)^3`.
    for lhs, text in [(Constant(S11.base_gen(1, 3)), "@b1^3"),
                      (power(Constant(S11.base_gen(1)), 3), "(@b1)^3"),
                      (power(Constant(S11.base_gen(1, -2)), -1), "(@b1^-2)^-1")]:
        system = system_of([equation(lhs)])
        assert serialize_system(system).splitlines()[-1] == f"{text} = 1"
        assert parse_system(serialize_system(system), S11) == system


# -- one rule per construct, accepting what either old scanner accepted ------------------


def test_separators_and_trailing_commas_are_optional_in_every_literal():
    flat = S23.element(active=(1, 0, -2), base={1: parse_poly("a1 - 1", 3),
                                                 2: parse_poly("3*a3^-2", 3)})
    for text in ["{ active: (1,0,-2); b1: a1 - 1, b2: 3*a3^-2 }",
                 "{ active: (1,0,-2,) b1: a1 - 1 b2: 3*a3^-2 }",
                 "{ active: (1, 0, -2); b1: a1 - 1, b2: 3*a3^-2, }",
                 "{active:(+1,0,- 2);b2:3*a3^-2,b1:a1-1}"]:
        assert parse_element(text, S23) == flat
    nested = I111.base_gen(1, power=3) * I111.embed(S11.active_gen(1))
    canonical = "{ active: { active: (1); }; [ { active: (1); } -> (3) ] }"
    assert str(nested) == canonical
    for text in [canonical,
                 "{ active: { active: (1) } [ { active: (1); } -> (3,) ] }",
                 "{ active: { active: (1); }; [ { active: (1) } -> (3) ], }"]:
        assert parse_nested(text, I111) == nested
    two = NestedElement(I111, S11.identity(), {S11.identity(): (1,), S11.active_gen(1): (2,)})
    assert parse_nested("{ active: { active: (0) } [ { active: (0) } -> (1) ]"
                        " [ { active: (1) b1: 0 } -> (2,) ], }", I111) == two


def test_comments_are_dropped_in_every_format():
    assert parse_intpoly("z1 - 2  # the root is 2") == parse_intpoly("z1 - 2")
    assert parse_poly("a1 # first\n - 1", 1) == parse_poly("a1 - 1", 1)
    system = parse_system("# vars: x y  # y is spare\nx = 1  # trivial\n", S11)
    assert system.declared_vars == ("x", "y")


# -- parsed elements are built in normal form, with no second check ----------------------

# (polynomial text, its terms): cancelling, zero and repeated terms.
CANCELLING = [
    ("a1 - a1", {}),
    ("0", {}),
    ("0*a1^2 + 3", {(0,): 3}),
    ("a1 + a1", {(1,): 2}),
    ("a1^2*a1^-2", {(0,): 1}),
    ("a1^-1 - a1 + 2*a1 - a1^-1*a1^0", {(1,): 1}),
]


def rebuilt(g):
    """`g` rebuilt through the public, checking constructors."""
    if isinstance(g, WreathElement):
        return WreathElement(g.spec, g.active,
                             tuple(LaurentPoly(p.rank, dict(p.terms)) for p in g.base))
    return NestedElement(g.spec, rebuilt(g.active),
                         {rebuilt(key): vec for key, vec in g.base})


def assert_normal(g):
    """Int-tuple exponents of the right length, and no zero coefficient or vector."""
    if isinstance(g, WreathElement):
        assert type(g.active) is tuple and all(type(e) is int for e in g.active)
        for p in g.base:
            for mono, c in p.terms.items():
                assert type(mono) is tuple and len(mono) == p.rank
                assert all(type(e) is int for e in mono)
                assert type(c) is int and c != 0
        return
    assert_normal(g.active)
    for key, vec in g.base:
        assert_normal(key)
        assert all(type(e) is int for e in vec) and any(vec)


def assert_parsed_like_rebuilt(g, expected):
    assert g == expected == rebuilt(g)
    assert hash(g) == hash(expected) == hash(rebuilt(g))
    assert_normal(g)


@pytest.mark.parametrize("text, terms", CANCELLING)
def test_parsed_literals_are_in_normal_form(text, terms):
    poly = LaurentPoly(1, terms)
    flat = parse_element(f"{{ active: (1); b1: {text} }}", S11)
    assert_parsed_like_rebuilt(flat, S11.element(active=(1,), base={1: poly}))
    wide = parse_element(f"{{ active: (0,1,0); b2: {text}, b1: a3 - a3 }}", S23)
    assert_parsed_like_rebuilt(wide, S23.element(active=(0, 1, 0), base={
        2: LaurentPoly(3, {mono + (0, 0): c for mono, c in terms.items()})}))
    inner = S11.element(active=(1,), base={1: poly})
    nested = parse_nested(f"{{ active: {{ active: (0); b1: {text} }}; "
                          f"[ {{ active: (1); b1: {text} }} -> (2) ], "
                          f"[ {{ active: (2); b1: {text} }} -> (0) ] }}", I111)
    assert_parsed_like_rebuilt(nested, NestedElement(
        I111, S11.element(base={1: poly}), {inner: (2,)}))
    (value,) = parse_assignment(f"x := {{ active: (1); b1: {text} }}\n", S11).values()
    assert_parsed_like_rebuilt(value, flat)


def test_parsed_generator_words_are_in_normal_form():
    i2111 = IteratedSpec((2, 1, 1, 1))
    cases = [(S11, "@a1^0", S11.identity()), (S11, "@b1^0", S11.identity()),
             (S11, "@b1^3", S11.base_gen(1, 3)),
             (i2111, "@a1^0", i2111.identity()), (i2111, "@b1^0", i2111.identity()),
             (i2111, "@b1_3^0", i2111.identity()), (i2111, "@b2_4^0", i2111.identity()),
             (i2111, "@b1^-6", i2111.embed(I111.embed(S11.base_gen(1, -6)))),
             (i2111, "@b2_4", i2111.base_gen(2))]
    for spec, word, value in cases:
        (eq,) = parse_system(f"[x, {word}] = 1\n", spec).equations
        assert_parsed_like_rebuilt(eq.factors[0].value, value)


# -- round trips ------------------------------------------------------------------------

BIG = 2 ** 80
SPECS = [S11, S23, I111, IteratedSpec((2, 1, 2)), IteratedSpec((1, 1, 1, 1)),
         IteratedSpec((1, 2, 1, 1))]


def ints():
    return st.integers(-BIG, BIG) | st.integers(-3, 3)


@st.composite
def elements(draw, spec):
    """Flat, depth-3 or depth-4 elements with big coefficients and negative exponents."""
    if isinstance(spec, GroupSpec):
        base = {j: LaurentPoly(spec.m, draw(st.dictionaries(
                    st.tuples(*[st.integers(-4, 4)] * spec.m), ints(), max_size=3)))
                for j in range(1, spec.n + 1)}
        return spec.element(active=draw(st.tuples(*[ints()] * spec.m)), base=base)
    inner = spec.inner()
    support = draw(st.lists(st.tuples(elements(inner), st.tuples(*[ints()] * spec.ranks[0])),
                            max_size=2))
    return NestedElement(spec, draw(elements(inner)), dict(support))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECS).flatmap(lambda spec: st.tuples(st.just(spec), elements(spec))))
def test_element_literals_round_trip(case):
    spec, g = case
    text = str(g)
    parse = parse_element if isinstance(spec, GroupSpec) else parse_nested
    assert parse(text, spec) == g
    assignment = serialize_assignment({"x": g})
    again = parse_assignment(assignment, spec)
    assert again == {"x": g}
    assert serialize_assignment(again) == assignment


def generators(spec):
    """Powers of the generators of every level of `spec`, as constants."""
    ranks = spec.ranks
    return st.builds(lambda level_j, e: Constant(spec.generator(*level_j, e)),
                     st.sampled_from([(level, j) for level in range(1, len(ranks) + 1)
                                      for j in range(1, ranks[-level] + 1)]),
                     ints())


@st.composite
def words(draw, spec):
    leaves = (st.builds(Literal, st.sampled_from(["x", "y", "cyc_z_1"]), st.sampled_from([1, -1]))
              | elements(spec).map(Constant) | generators(spec))

    def extend(inner):
        return (st.lists(inner, min_size=2, max_size=4).map(lambda parts: Commutator(*parts))
                | st.builds(power, inner, st.integers(-BIG, BIG).filter(lambda e: e not in (0, 1)))
                | st.lists(inner, min_size=2, max_size=3).map(lambda parts: concat(*parts)))

    return draw(st.recursive(leaves, extend, max_leaves=6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECS[:4]).flatmap(
    lambda spec: st.tuples(st.just(spec), st.lists(words(spec), min_size=1, max_size=3))))
def test_systems_round_trip(case):
    spec, lhss = case
    system = system_of([equation(w) for w in lhss])
    text = serialize_system(system)
    again = parse_system(text, spec)
    assert again == system
    assert serialize_system(again) == text
