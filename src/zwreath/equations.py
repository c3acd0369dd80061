"""Group-equation syntax and semantics: words, systems, assignments.

Words are trees (a commutator chain is one left-normed node, so no textual
blow-up); equations are stored in `w = 1` form; systems carry an explicit
declaration list so files round-trip exactly.  Evaluation is generic over any element
type providing `*`, `inverse()`, `commutator()` and `__pow__`, with the
ambient spec supplying the identity element, the element-literal parser and
the generator words: system text prints a constant that is a power of one
generator as a word such as `@b1^-6`, and any other constant as a literal.
"""

from __future__ import annotations

import re

from .errors import ParseError, PreconditionError, SpecMismatchError
from .lexer import TokenStream, is_generator, is_int, is_name
from .laurent import Frozen
from .wreath import GroupSpec, read_generator

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Deepest bracket and parenthesis nesting a system file may use.  Words are
# parsed, checked and evaluated recursively, at most three word nodes (and
# so three stack frames) per nesting level, so the limit keeps all of them
# well inside Python's default recursion limit of 1000.  A commutator chain
# is one n-ary bracket, so compiled systems nest at most three deep whatever
# the degree, and lifted systems no longer nest once per level: a lift adds
# its generators to one bracket around each equation.
MAX_NESTING = 256


# -- word AST ----------------------------------------------------------------


class Literal(Frozen):
    """A variable occurrence, possibly inverted."""

    __slots__ = _fields = ("name", "sign")

    def __init__(self, name, sign=1):
        if not NAME_RE.match(name):
            raise PreconditionError(f"invalid variable name {name!r}")
        if type(sign) is not int or sign not in (1, -1):
            raise PreconditionError(f"literal sign must be +-1, got {sign!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sign", sign)


class Constant(Frozen):
    """An element of the ambient group, embedded in a word."""

    __slots__ = _fields = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)


class Concat(Frozen):
    """Juxtaposition of factors; the empty concatenation is the identity."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts=()):
        object.__setattr__(self, "parts", parts)


class Commutator(Frozen):
    """The left-normed commutator [w, f1, ..., fk] = [...[[w, f1], f2]..., fk].

    `Commutator(w, f1, ..., fk)` takes k >= 1 factors, so `Commutator(x, y)`
    is the plain [x, y] = x^-1 y^-1 x y.
    """

    __slots__ = _fields = ("word", "factors")

    def __init__(self, word, *factors):
        if not factors:
            raise PreconditionError("a commutator needs at least one factor after its word")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "factors", factors)


class Power(Frozen):
    """The word `body` raised to the int `exponent` (a bool is not one)."""

    __slots__ = _fields = ("body", "exponent")

    def __init__(self, body, exponent):
        if type(exponent) is not int:
            raise PreconditionError(f"group power must be an int, got {exponent!r}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "exponent", exponent)


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
    """Raise a word to an int power (a bool is not one), normalizing trivial exponents."""
    if type(exponent) is not int:
        raise PreconditionError(f"group power must be an int, got {exponent!r}")
    if exponent == 0:
        return IDENTITY_WORD
    if exponent == 1:
        return word
    if exponent == -1 and isinstance(word, Literal):
        return Literal(word.name, -word.sign)
    return Power(word, exponent)


def inverse_word(word):
    """Structural inverse; [u, f]^-1 = [f, u], so a commutator chain inverts to
    [fk, [w, f1, ..., f(k-1)]]."""
    if isinstance(word, Literal):
        return Literal(word.name, -word.sign)
    if isinstance(word, Constant):
        return Constant(word.value.inverse())
    if isinstance(word, Concat):
        return Concat(tuple(inverse_word(p) for p in reversed(word.parts)))
    if isinstance(word, Commutator):
        *rest, last = word.factors
        return Commutator(last, Commutator(word.word, *rest) if rest else word.word)
    if isinstance(word, Power):
        return power(word.body, -word.exponent)
    raise PreconditionError(f"not a word node: {word!r}")


def free_vars(word):
    """Variable names in first-occurrence order, in O(size of the word).

    The names are gathered as the keys of an insertion-ordered dict, one
    lookup per occurrence.
    """
    out = {}

    def walk(w):
        if isinstance(w, Literal):
            out[w.name] = None
        elif isinstance(w, Concat):
            for p in w.parts:
                walk(p)
        elif isinstance(w, Commutator):
            walk(w.word)
            for f in w.factors:
                walk(f)
        elif isinstance(w, Power):
            walk(w.body)
        elif not isinstance(w, Constant):
            raise PreconditionError(f"not a word node: {w!r}")

    walk(word)
    return list(out)


def evaluate(word, assignment, spec):
    """Evaluate a word under an assignment; commutator nodes stay structural.

    Costs one group operation per word node (a power by square-and-multiply
    costs O(log |exponent|)), each O(n * terms) in the flat group.  A
    commutator chain [w, f1, ..., fk] is one variadic `commutator` call: in
    the flat group one first bracket plus, per coordinate, O(k * cells) on
    a dense row along a1, else O(k * T) dict updates
    (`WreathElement.commutator`).
    """
    if isinstance(word, Literal):
        try:
            value = assignment[word.name]
        except KeyError:
            raise PreconditionError(f"unbound variable {word.name!r}") from None
        if value.spec is not spec and value.spec != spec:
            raise SpecMismatchError(f"value of {word.name!r} belongs to {value.spec}, not {spec}")
        return value if word.sign == 1 else value.inverse()
    if isinstance(word, Constant):
        if word.value.spec is not spec and word.value.spec != spec:
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
        return evaluate(word.word, assignment, spec).commutator(
            *[evaluate(f, assignment, spec) for f in word.factors])
    if isinstance(word, Power):
        return evaluate(word.body, assignment, spec) ** word.exponent
    raise PreconditionError(f"not a word node: {word!r}")


# -- equations and systems ---------------------------------------------------


def equation(lhs, rhs=None):
    """The equation `lhs = rhs` as its word `lhs * rhs^-1`, in `w = 1` form.

    Without `rhs`, or with the identity word, the equation is `lhs = 1` and
    its word is `lhs` itself.
    """
    if rhs is None or rhs == IDENTITY_WORD:
        return lhs
    return concat(lhs, inverse_word(rhs))


class System(Frozen):
    """Ordered equations, each a word `w` read as `w = 1`, plus the declared
    variable list.

    The constructor is the one boundary check (`_check`): every declared
    name is valid and declared once, and every equation uses only declared
    variables, in O(size of the system).  Systems built from a system
    already checked (`interp.lift_system`) or declaring exactly their free
    variables (`system_of`) come from `_unchecked` and are not walked again.
    """

    __slots__ = _fields = ("equations", "declared_vars")

    def __init__(self, equations=(), declared_vars=()):
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "declared_vars", declared_vars)
        self._check()

    def _check(self):
        seen = set()
        for name in self.declared_vars:
            if not NAME_RE.match(name):
                raise PreconditionError(f"invalid variable name {name!r}")
            if name in seen:
                raise PreconditionError(f"variable {name!r} declared twice")
            seen.add(name)
        for idx, word in enumerate(self.equations):
            for name in free_vars(word):
                if name not in seen:
                    raise PreconditionError(
                        f"equation {idx + 1} uses undeclared variable {name!r}")

    @classmethod
    def _unchecked(cls, equations, declared_vars):
        """A system known to be valid: no checks, O(1).

        `declared_vars` is a tuple of distinct valid names that covers every
        free variable of the tuple `equations`.
        """
        system = object.__new__(cls)
        object.__setattr__(system, "equations", equations)
        object.__setattr__(system, "declared_vars", declared_vars)
        return system


def system_of(equations):
    """Build a system, declaring its variables in first-occurrence order.

    The system declares exactly its free variables, so it is valid as built
    and is not checked again: O(size of the system).  A system with other
    declarations is the checked `System(equations, declared_vars)`.
    """
    equations = tuple(equations)
    names = {}
    for word in equations:
        names.update(dict.fromkeys(free_vars(word)))
    return System._unchecked(equations, tuple(names))


class CheckReport(Frozen):
    """Outcome of checking a system; `failures` lists 0-based equation indices."""

    __slots__ = _fields = ("ok", "failures")

    def __init__(self, ok, failures=()):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "failures", failures)


def check_system(system, assignment, spec):
    """Evaluate every equation; true iff all evaluate to the identity.

    Costs one `evaluate` per equation, less the last expansion of a
    top-level power or flat commutator chain (`_holds`).
    """
    missing = [name for name in system.declared_vars if name not in assignment]
    if missing:
        raise PreconditionError(f"assignment missing declared variables: {', '.join(missing)}")
    failures = []
    for idx, word in enumerate(system.equations):
        if not _holds(word, assignment, spec):
            failures.append(idx)
    return CheckReport(not failures, tuple(failures))


def _holds(word, assignment, spec):
    """`evaluate(word, assignment, spec).is_identity()`, with a top-level
    power or flat chain decided from its parts.

    Every group here is torsion-free, so w^N = 1 iff N = 0 or w = 1.  In a
    flat group each factor after the first of [w, f1, ..., fk] multiplies
    every coordinate of [w, f1] by a^beta - 1, beta its active part, and
    Z[A] has no zero divisors, so the chain is 1 iff some later factor has
    beta = 0 or [w, f1] = 1.  Sub-words are evaluated in `evaluate`'s order,
    so its errors are unchanged; what is skipped is the power, or the
    chain's products past its first bracket, which can hold exponentially
    many terms.
    """
    if isinstance(word, Power):
        return _holds(word.body, assignment, spec) or not word.exponent
    if isinstance(word, Commutator) and len(word.factors) > 1 and isinstance(spec, GroupSpec):
        g = evaluate(word.word, assignment, spec)
        h, *later = [evaluate(f, assignment, spec) for f in word.factors]
        return not all(any(x.active) for x in later) or g.commutator(h).is_identity()
    return evaluate(word, assignment, spec).is_identity()


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
    word in earlier variables.  A commutator chain [w, f1, ..., fk] takes
    one fresh variable per link [t, f_i].  Powers expand by repeated
    squaring, so word growth stays linear in the input size.
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
            left = walk(w.word)
            for factor in w.factors:
                right = walk(factor)
                left = define(concat(inverse_word(left), inverse_word(right), left, right))
            return left
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
    """Drop one-part concatenations and trivial powers; semantics unchanged.

    A node whose parts all come back as themselves is returned as it is, so
    a word already in normal form is walked once and nothing is rebuilt:
    O(size of the word), with new nodes only along changed paths.  Tuples
    of parts compare by identity first, so an unchanged tuple costs one
    pointer comparison per part.
    """
    if isinstance(word, Concat):
        parts = tuple(map(normalize_word, word.parts))
        if len(parts) == 1:
            return parts[0]
        return word if parts == word.parts else Concat(parts)
    if isinstance(word, Commutator):
        head = normalize_word(word.word)
        factors = tuple(map(normalize_word, word.factors))
        if head is word.word and factors == word.factors:
            return word
        return Commutator(head, *factors)
    if isinstance(word, Power):
        body = normalize_word(word.body)
        normal = power(body, word.exponent)
        return word if type(normal) is Power and body is word.body else normal
    return word


def serialize_word(word):
    """Text of a word: normalized once, then printed in O(size of the word)."""
    return _serialize_normal(normalize_word(word), {})


def _serialize_normal(word, memo):
    """`memo` maps each `Constant` node printed, by identity, to its text, so
    a node that several words share is printed once and no element is hashed."""
    if isinstance(word, Concat) and word.parts:
        return " ".join(_serialize_factor(p, memo) for p in word.parts)
    return _serialize_factor(word, memo)


def _serialize_factor(word, memo):
    if isinstance(word, Literal):
        return word.name if word.sign == 1 else f"{word.name}^-1"
    if isinstance(word, Constant):
        text = memo.get(id(word))
        if text is None:
            value = word.value
            text = memo[id(word)] = value.spec.generator_word(value) or str(value)
        return text
    if isinstance(word, Commutator):
        return "[" + ", ".join(_serialize_normal(part, memo)
                               for part in (word.word,) + word.factors) + "]"
    if isinstance(word, Power):
        body = word.body
        if isinstance(body, Literal) and body.sign == 1:
            return f"{body.name}^{word.exponent}"
        if isinstance(body, (Commutator, Constant)):
            text = _serialize_factor(body, memo)
            # A generator word reads its own `^` exponent: `(@b1)^3`, not `@b1^3`.
            if text[0] == "@":
                text = f"({text})"
            return f"{text}^{word.exponent}"
        return f"({_serialize_normal(body, memo)})^{word.exponent}"
    if isinstance(word, Concat):
        if not word.parts:
            return "1"
        return f"({_serialize_normal(word, memo)})"
    raise PreconditionError(f"not a word node: {word!r}")


def serialize_system(system):
    """Deterministic text form; first line declares the variables.

    One memo per call, dropped on return, keeps the text of each
    `Constant` node: a lifted system shares one node per distinct constant
    and per level's base generator among all its equations, so each is
    printed once.
    """
    lines = []
    if system.declared_vars:
        lines.append("# vars: " + " ".join(system.declared_vars))
    memo = {}
    for word in system.equations:
        lines.append(f"{_serialize_normal(normalize_word(word), memo)} = 1")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_system(text, spec):
    """Parse the system file format: one `word = word` equation per line,
    and at most one `# vars:` header, which pins the declared variables.

    Each line is one tokenizer pass and one descent, O(len(text)) in all;
    element constants are read in place by `spec.read_element`.  One memo,
    bounded by the text and dropped on return, keeps each name's `Literal`
    and each generator word's `Constant`.  With a header of distinct names
    that covers every name the words use, the system is built with no
    second walk; otherwise the checked `System` constructor raises its error.
    """
    equations = []
    declared = None
    memo = {"1": IDENTITY_WORD}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("# vars:"):
            start = raw.index("# vars:")
            if declared is not None:
                raise ParseError("a system file has at most one '# vars:' header",
                                 lineno, start + 1)
            tokens = TokenStream(raw, lineno, start + len("# vars:"))
            names = []
            while tokens.peek():
                names.append(tokens.name())
            declared = tuple(names)
            continue
        tokens = TokenStream(raw, lineno)
        toks = tokens.tokens
        if not toks[0]:
            continue
        lhs, pos = _read_word(tokens, 0, spec, ("=", ""), 0, memo)
        if toks[pos] != "=":
            raise tokens.expected("'='", pos)
        rhs, pos = _read_word(tokens, pos + 1, spec, ("",), 0, memo)
        equations.append(equation(lhs, rhs))
    if declared is None:
        return system_of(equations)
    names = set(declared)
    # The memo's keys that are name tokens are the names the words use.
    if len(names) == len(declared) and all(
            key in names for key in memo if type(key) is str and is_name(key)):
        return System._unchecked(tuple(equations), declared)
    return System(tuple(equations), declared)


def parse_assignment(text, spec):
    """Parse assignment files, lines `name := <element literal>`: O(len(text)).

    A line as `serialize_assignment` writes it, with a flat literal or,
    over three or more ranks, an embedded flat one, is read straight off
    the line by `spec.read_canonical`: one regex match and one split per
    flat literal (`wreath._read_canonical`), and at depth L one match of
    the L - 2 frames around it (`interp.IteratedSpec.read_canonical`).
    Any other line, and any line that reader is not certain of, goes
    through the token grammar, which reads every valid spelling to the
    same value and raises every error.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        name, separator, literal = raw.partition(" := ")
        if separator and NAME_RE.match(name) and name not in out:
            value = spec.read_canonical(literal)
            if value is not None:
                out[name] = value
                continue
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
    lines = [f"{name} := {value}" for name, value in assignment.items()]
    return "\n".join(lines) + ("\n" if lines else "")


# -- word grammar ---------------------------------------------------------------


def _read_word(tokens, pos, spec, stop, depth, memo):
    """Juxtaposed factors from token `pos` up to a token in `stop`: (word, next pos).

    `depth` counts the brackets and parentheses open around the word.  The
    word grammar alone of the token grammars reads by a local index, with
    no method call per token: every system text goes through it, and no
    second reader exists for systems.  Each error names the position of its
    token.  O(tokens of the word), and a name or bare generator word read
    before costs one memo lookup.
    """
    toks = tokens.tokens
    factors = []
    while toks[pos] not in stop:
        factor = memo.get(toks[pos])
        if factor is not None and toks[pos + 1] != "^":
            pos += 1  # `1`, or a name or bare generator word read before
        else:
            factor, pos = _read_factor(tokens, pos, spec, depth, memo)
        factors.append(factor)
    if not factors:
        raise tokens.error("empty word (write '1' for the identity)", pos)
    if len(factors) == 1:
        return factors[0], pos
    return Concat(tuple(factors)), pos


def _read_factor(tokens, pos, spec, depth, memo):
    """One factor from token `pos`, with its `^` exponent: (word, next pos).

    `memo` maps each name read to its `Literal`, and each generator word,
    keyed by its token or, with an exponent, by its tokens, to its `Constant`.
    """
    toks = tokens.tokens
    token = toks[pos]
    if is_generator(token):
        # Its `^` exponent is its own: `@b1^-6` is one constant.
        end = pos + 1
        if toks[end] == "^":
            end += 3 if toks[end + 1] == "+" or toks[end + 1] == "-" else 2
        key = token if end == pos + 1 else tuple(toks[pos:end])
        constant = memo.get(key)
        if constant is None:
            tokens.pos = pos
            constant = memo[key] = Constant(read_generator(tokens, spec))
        return constant, end
    if is_name(token):
        base = memo.get(token) or memo.setdefault(token, Literal(token))
        pos += 1
    elif token == "{":
        tokens.pos = pos
        base = Constant(spec.read_element(tokens))
        pos = tokens.pos
    elif token == "[" or token == "(":
        if depth == MAX_NESTING:
            raise tokens.error(f"brackets and parentheses nested deeper than {MAX_NESTING}", pos)
        if token == "[":
            # `[w, f1, ..., fk]`, k >= 1: one bracket, one nesting level.
            word, pos = _read_word(tokens, pos + 1, spec, (",", "]"), depth + 1, memo)
            parts = [word]
            if toks[pos] != ",":
                raise tokens.expected("','", pos)
            while toks[pos] == ",":
                word, pos = _read_word(tokens, pos + 1, spec, (",", "]"), depth + 1, memo)
                parts.append(word)
            base = Commutator(*parts)
        else:
            base, pos = _read_word(tokens, pos + 1, spec, (")",), depth + 1, memo)
        pos += 1  # the closing `]` or `)`, where the word stopped
    elif is_int(token):
        value = tokens.int_at(pos)
        if value != 1:
            raise tokens.error(f"unexpected integer {value}", pos)
        base = IDENTITY_WORD
        pos += 1
    else:
        raise tokens.error(f"unexpected token {token or 'end of input'!r}", pos)
    if toks[pos] == "^":
        tokens.pos = pos + 1
        base = power(base, tokens.signed_int())
        pos = tokens.pos
    return base, pos
