"""Group-equation syntax and semantics: words, systems, assignments.

Words are trees (nested commutators stay nested, so no textual blow-up);
equations are stored in `w = 1` form; systems carry an explicit declaration
list so files round-trip exactly.  Evaluation is generic over any element
type providing `*`, `inverse()`, `commutator()` and `__pow__`, with the
ambient spec supplying the identity element, the element-literal parser and
the generator words: system text prints a constant that is a power of one
generator as a word such as `@b1^-6`, and any other constant as a literal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PreconditionError, SpecMismatchError
from .lexer import TokenStream, is_generator, is_int, is_name
from .wreath import read_generator

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Deepest bracket and parenthesis nesting a system file may use.  Words are
# parsed, checked and evaluated recursively, at most three word nodes (and
# so three stack frames) per nesting level, so the limit keeps all of them
# well inside Python's default recursion limit of 1000; a lifted system over
# the longest rank list (`interp.MAX_RANKS`, 64) nests 64 deep.
MAX_NESTING = 256


# -- word AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    """A variable occurrence, possibly inverted."""

    name: str
    sign: int = 1

    def __post_init__(self):
        if not NAME_RE.match(self.name):
            raise PreconditionError(f"invalid variable name {self.name!r}")
        if self.sign not in (1, -1):
            raise PreconditionError(f"literal sign must be +-1, got {self.sign!r}")


@dataclass(frozen=True)
class Constant:
    """An element of the ambient group, embedded in a word."""

    value: object


@dataclass(frozen=True)
class Concat:
    """Juxtaposition of factors; the empty concatenation is the identity."""

    parts: tuple = ()


@dataclass(frozen=True)
class Commutator:
    left: object
    right: object


@dataclass(frozen=True)
class Power:
    body: object
    exponent: int


IDENTITY_WORD = Concat(())


def concat(*parts):
    """Juxtapose words, splicing nested concatenations one level."""
    flat = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def power(word, exponent):
    """Raise a word to an integer power, normalizing trivial exponents."""
    if exponent == 0:
        return IDENTITY_WORD
    if exponent == 1:
        return word
    if exponent == -1 and isinstance(word, Literal):
        return Literal(word.name, -word.sign)
    return Power(word, exponent)


def inverse_word(word):
    """Structural inverse; commutators invert by swapping arguments."""
    if isinstance(word, Literal):
        return Literal(word.name, -word.sign)
    if isinstance(word, Constant):
        return Constant(word.value.inverse())
    if isinstance(word, Concat):
        return Concat(tuple(inverse_word(p) for p in reversed(word.parts)))
    if isinstance(word, Commutator):
        return Commutator(word.right, word.left)
    if isinstance(word, Power):
        return power(word.body, -word.exponent)
    raise PreconditionError(f"not a word node: {word!r}")


def free_vars(word):
    """Variable names in first-occurrence order."""
    out = []

    def walk(w):
        if isinstance(w, Literal):
            if w.name not in out:
                out.append(w.name)
        elif isinstance(w, Concat):
            for p in w.parts:
                walk(p)
        elif isinstance(w, Commutator):
            walk(w.left)
            walk(w.right)
        elif isinstance(w, Power):
            walk(w.body)
        elif not isinstance(w, Constant):
            raise PreconditionError(f"not a word node: {w!r}")

    walk(word)
    return out


def evaluate(word, assignment, spec):
    """Evaluate a word under an assignment; commutator nodes stay structural.

    Costs one group operation per word node (a power by square-and-multiply
    costs O(log |exponent|)), each of them O(n * terms) in the flat group.
    """
    if isinstance(word, Literal):
        try:
            value = assignment[word.name]
        except KeyError:
            raise PreconditionError(f"unbound variable {word.name!r}") from None
        if value.spec != spec:
            raise SpecMismatchError(f"value of {word.name!r} belongs to {value.spec}, not {spec}")
        return value if word.sign == 1 else value.inverse()
    if isinstance(word, Constant):
        if word.value.spec != spec:
            raise SpecMismatchError(f"constant belongs to {word.value.spec}, not {spec}")
        return word.value
    if isinstance(word, Concat):
        if not word.parts:
            return spec.identity()
        acc = evaluate(word.parts[0], assignment, spec)
        for p in word.parts[1:]:
            acc = acc * evaluate(p, assignment, spec)
        return acc
    if isinstance(word, Commutator):
        return evaluate(word.left, assignment, spec).commutator(
            evaluate(word.right, assignment, spec))
    if isinstance(word, Power):
        return evaluate(word.body, assignment, spec) ** word.exponent
    raise PreconditionError(f"not a word node: {word!r}")


# -- equations and systems ---------------------------------------------------


@dataclass(frozen=True)
class Equation:
    """One equation in `lhs = 1` form."""

    lhs: object


def equation(lhs, rhs=None):
    """Author an equation `lhs = rhs`, normalized to `lhs * rhs^-1 = 1`."""
    if rhs is None or rhs == IDENTITY_WORD:
        return Equation(lhs)
    return Equation(concat(lhs, inverse_word(rhs)))


@dataclass(frozen=True)
class System:
    """Ordered equations plus the declared variable list."""

    equations: tuple = ()
    declared_vars: tuple = ()

    def __post_init__(self):
        seen = set()
        for name in self.declared_vars:
            if not NAME_RE.match(name):
                raise PreconditionError(f"invalid variable name {name!r}")
            if name in seen:
                raise PreconditionError(f"variable {name!r} declared twice")
            seen.add(name)
        for idx, eq in enumerate(self.equations):
            for name in free_vars(eq.lhs):
                if name not in seen:
                    raise PreconditionError(
                        f"equation {idx + 1} uses undeclared variable {name!r}")


def system_of(equations, declared_vars=None):
    """Build a system, auto-declaring variables in first-occurrence order."""
    equations = tuple(equations)
    if declared_vars is None:
        names = []
        for eq in equations:
            for name in free_vars(eq.lhs):
                if name not in names:
                    names.append(name)
        declared_vars = tuple(names)
    return System(equations, tuple(declared_vars))


def merge_systems(*systems):
    """Concatenate equations; declarations merge keeping first occurrence."""
    equations = []
    declared = []
    for s in systems:
        equations.extend(s.equations)
        for name in s.declared_vars:
            if name not in declared:
                declared.append(name)
    return System(tuple(equations), tuple(declared))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking a system; `failures` lists 0-based equation indices."""

    ok: bool
    failures: tuple = ()

    def __bool__(self):
        return self.ok


def check_system(system, assignment, spec):
    """Evaluate every equation; true iff all evaluate to the identity.

    Costs one `evaluate` per equation.
    """
    missing = [name for name in system.declared_vars if name not in assignment]
    if missing:
        raise PreconditionError(f"assignment missing declared variables: {', '.join(missing)}")
    failures = []
    for idx, eq in enumerate(system.equations):
        if not evaluate(eq.lhs, assignment, spec).is_identity():
            failures.append(idx)
    return CheckReport(not failures, tuple(failures))


# -- fresh names and flattening ----------------------------------------------


class NameGen:
    """Deterministic fresh-name source `prefix1, prefix2, ...` avoiding a reserved set."""

    def __init__(self, prefix="t", reserved=()):
        self.prefix = prefix
        self.reserved = set(reserved)
        self._next = 1

    def fresh(self):
        while True:
            name = f"{self.prefix}{self._next}"
            self._next += 1
            if name not in self.reserved:
                self.reserved.add(name)
                return name


def flatten(word, fresh=None):
    """Replace commutator/power nodes by fresh variables with defining equations.

    Returns (flat word, auxiliary system).  Every solution of the original
    context extends uniquely to the fresh variables: each is equated to a
    word in earlier variables.  Powers expand by repeated squaring, so word
    growth stays linear in the input size.
    """
    if fresh is None:
        fresh = NameGen(reserved=free_vars(word))
    aux = []

    def define(defining_word):
        name = fresh.fresh()
        aux.append(equation(Literal(name), defining_word))
        return Literal(name)

    def walk(w):
        if isinstance(w, (Literal, Constant)):
            return w
        if isinstance(w, Concat):
            return Concat(tuple(walk(p) for p in w.parts))
        if isinstance(w, Commutator):
            left = walk(w.left)
            right = walk(w.right)
            return define(concat(
                inverse_word(left), inverse_word(right), left, right))
        if isinstance(w, Power):
            body = walk(w.body)
            e = abs(w.exponent)
            if e == 0:
                return IDENTITY_WORD
            if isinstance(body, Literal):
                square = body
            elif e == 1:
                return body if w.exponent > 0 else inverse_word(body)
            else:
                square = define(body)
            factors = []
            while True:
                if e & 1:
                    factors.append(square)
                e >>= 1
                if not e:
                    break
                square = define(concat(square, square))
            result = concat(*reversed(factors))
            return result if w.exponent > 0 else inverse_word(result)
        raise PreconditionError(f"not a word node: {w!r}")

    flat = walk(word)
    return flat, system_of(aux)


# -- text form ----------------------------------------------------------------


def normalize_word(word):
    """Drop one-part concatenations and trivial powers; semantics unchanged."""
    if isinstance(word, Concat):
        parts = tuple(normalize_word(p) for p in word.parts)
        if len(parts) == 1:
            return parts[0]
        return Concat(parts)
    if isinstance(word, Commutator):
        return Commutator(normalize_word(word.left), normalize_word(word.right))
    if isinstance(word, Power):
        return power(normalize_word(word.body), word.exponent)
    return word


def serialize_word(word):
    """Text of a word: normalized once, then printed in O(size of the word)."""
    return _serialize_normal(normalize_word(word))


def _serialize_normal(word):
    if isinstance(word, Concat) and word.parts:
        return " ".join(_serialize_factor(p) for p in word.parts)
    return _serialize_factor(word)


def _serialize_factor(word):
    if isinstance(word, Literal):
        return word.name if word.sign == 1 else f"{word.name}^-1"
    if isinstance(word, Constant):
        spec = word.value.spec
        return spec.generator_word(word.value) or spec.serialize_element(word.value)
    if isinstance(word, Commutator):
        return f"[{_serialize_normal(word.left)}, {_serialize_normal(word.right)}]"
    if isinstance(word, Power):
        body = word.body
        if isinstance(body, Literal) and body.sign == 1:
            return f"{body.name}^{word.exponent}"
        if isinstance(body, (Commutator, Constant)):
            text = _serialize_factor(body)
            # A generator word reads its own `^` exponent: `(@b1)^3`, not `@b1^3`.
            if text[0] == "@":
                text = f"({text})"
            return f"{text}^{word.exponent}"
        return f"({_serialize_normal(body)})^{word.exponent}"
    if isinstance(word, Concat):
        if not word.parts:
            return "1"
        return f"({_serialize_normal(word)})"
    raise PreconditionError(f"not a word node: {word!r}")


def serialize_system(system):
    """Deterministic text form; first line declares the variables."""
    lines = []
    if system.declared_vars:
        lines.append("# vars: " + " ".join(system.declared_vars))
    for eq in system.equations:
        lines.append(f"{serialize_word(eq.lhs)} = 1")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_system(text, spec):
    """Parse the system file format: one `word = word` equation per line.

    Each line is one tokenizer pass and one descent, O(len(text)) in all;
    element constants are read in place by `spec.read_element`.
    """
    equations = []
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("# vars:"):
            tokens = TokenStream(raw, lineno, raw.index("# vars:") + len("# vars:"))
            names = []
            while tokens.peek():
                names.append(tokens.name())
            declared = tuple(names)
            continue
        tokens = TokenStream(raw, lineno)
        if not tokens.peek():
            continue
        lhs = _read_word(tokens, spec, ("=", ""), 0)
        tokens.expect("=")
        rhs = _read_word(tokens, spec, ("",), 0)
        equations.append(equation(lhs, rhs))
    if declared is None:
        return system_of(equations)
    return System(tuple(equations), declared)


def parse_assignment(text, spec):
    """Parse assignment files, lines `name := <element literal>`: O(len(text))."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = TokenStream(raw, lineno)
        if not tokens.peek():
            continue
        name = tokens.name()
        if name in out:
            raise tokens.error(f"variable {name!r} assigned twice", 0)
        tokens.expect(":=")
        out[name] = spec.read_element(tokens)
        tokens.expect("")
    return out


def serialize_assignment(assignment):
    lines = [
        f"{name} := {value.spec.serialize_element(value)}"
        for name, value in assignment.items()]
    return "\n".join(lines) + ("\n" if lines else "")


# -- word grammar ---------------------------------------------------------------


def _read_word(tokens, spec, stop, depth):
    """Juxtaposed factors up to a token in `stop`.

    `depth` counts the brackets and parentheses open around the word.
    """
    factors = []
    while tokens.peek() not in stop:
        factors.append(_read_factor(tokens, spec, depth))
    if not factors:
        raise tokens.error("empty word (write '1' for the identity)")
    if len(factors) == 1:
        return factors[0]
    return Concat(tuple(factors))


def _read_factor(tokens, spec, depth):
    token = tokens.peek()
    if token == "{":
        base = Constant(spec.read_element(tokens))
    elif is_generator(token):
        return Constant(read_generator(tokens, spec))  # its `^` exponent is its own
    elif token == "[" or token == "(":
        if depth == MAX_NESTING:
            raise tokens.error(f"brackets and parentheses nested deeper than {MAX_NESTING}")
        tokens.take()
        if token == "[":
            left = _read_word(tokens, spec, (",",), depth + 1)
            tokens.expect(",")
            right = _read_word(tokens, spec, ("]",), depth + 1)
            tokens.expect("]")
            base = Commutator(left, right)
        else:
            base = _read_word(tokens, spec, (")",), depth + 1)
            tokens.expect(")")
    elif is_name(token):
        base = Literal(tokens.take())
    elif is_int(token):
        value = tokens.int_at(tokens.pos)
        if value != 1:
            raise tokens.error(f"unexpected integer {value}")
        tokens.take()
        base = IDENTITY_WORD
    else:
        raise tokens.error(f"unexpected token {token or 'end of input'!r}")
    if tokens.accept("^"):
        base = power(base, tokens.signed_int())
    return base
