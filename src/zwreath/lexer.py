"""The one tokenizer behind every text format.

Polynomials, element literals, systems, assignments and the CLI's integer
lists all split into the same tokens: ASCII integers, names, `->`, `:=` and
the single characters `{ } [ ] ( ) , ; : = ^ * + -`.  Whitespace and `#`
comments separate tokens and are dropped; any other character is a
ParseError.  One master pattern does the splitting (after the "Writing a
Tokenizer" recipe of the `re` documentation), and each grammar is a
recursive-descent parser over the resulting `TokenStream`.
"""

from __future__ import annotations

import itertools
import re
import sys

from .errors import ParseError

# Each match is one token, after the whitespace and comments before it.  The
# empty token marks the end of the text; a character no other alternative
# takes becomes a one-character token that no grammar accepts.
_TOKEN = re.compile(r"""
    (?:\s|\#[^\n]*)*
    (?P<token>
        [{}\[\](),;=^*+] | ->? | :=?
      | [0-9]+
      | @?[A-Za-z][A-Za-z0-9_]*
      | \Z
      | .
    )
""", re.VERBOSE | re.DOTALL)

_OPERATORS = frozenset("{ } [ ] ( ) , ; = ^ * + - -> : :=".split())


def is_int(token):
    """True for an integer token (one that starts with an ASCII digit)."""
    return "0" <= token[:1] <= "9"


def is_name(token):
    """True for a name token (one that starts with an ASCII letter)."""
    return token[:1].isalpha() and token.isascii()


def is_generator(token):
    """True for a generator name token (`@` and a name)."""
    return token[:1] == "@" and len(token) > 1


def _show(token):
    return repr(token or "end of input")


class TokenStream:
    """The tokens of one text, read front to back; the empty token ends it.

    Splitting is one C-level `findall` pass of the master pattern,
    O(len(text)), and keeps no positions: an error re-runs the same pattern
    with `finditer` up to the offending token, so the one place that knows
    lines and columns costs nothing until a ParseError is raised.  `line`
    numbers the text's first line, and each newline inside it starts a new
    one; parsing begins at offset `start`.
    """

    __slots__ = ("text", "line", "start", "tokens", "pos")

    def __init__(self, text, line=1, start=0):
        self.text = text
        self.line = line
        self.start = start
        self.tokens = _TOKEN.findall(text, start)
        self.pos = 0

    def peek(self):
        """The next token, not consumed."""
        return self.tokens[self.pos]

    def take(self):
        """Consume the next token and return it."""
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, token):
        """Consume the next token if it is `token`; say whether it was."""
        if self.tokens[self.pos] != token:
            return False
        self.pos += 1
        return True

    def expect(self, token):
        """Consume the token `token` (an operator, a keyword, or "" for the end)."""
        if self.tokens[self.pos] != token:
            raise self.expected(_show(token))
        self.pos += 1

    def name(self):
        """Consume a name token and return it."""
        token = self.tokens[self.pos]
        if not is_name(token):
            raise self.expected("a name")
        self.pos += 1
        return token

    def int_at(self, pos):
        """The value of the integer token at `pos`.

        Every integer of every grammar is converted here.  `int()` refuses
        digit strings longer than `sys.get_int_max_str_digits()` (4300 by
        default), so such a token is a ParseError at its own position.
        """
        token = self.tokens[pos]
        try:
            return int(token)
        except ValueError:
            raise self.error(f"integer of {len(token)} digits exceeds the limit of "
                             f"{sys.get_int_max_str_digits()} digits", pos) from None

    def take_int(self):
        """Consume an unsigned integer token and return its value."""
        if not is_int(self.tokens[self.pos]):
            raise self.expected("an integer")
        self.pos += 1
        return self.int_at(self.pos - 1)

    def signed_int(self):
        """Consume an integer with an optional `+` or `-` sign and return its value."""
        sign = self.tokens[self.pos]
        if sign == "+" or sign == "-":
            self.pos += 1
        value = self.take_int()
        return -value if sign == "-" else value

    def expected(self, what, pos=None):
        """A ParseError saying that `what` was expected at token `pos`, and what came."""
        pos = self.pos if pos is None else pos
        return self.error(f"expected {what}, found {_show(self.tokens[pos])}", pos)

    def error(self, message, pos=None):
        """A ParseError at token `pos` (default: the next one), with its line and column.

        A token that is no token of the language is reported as the
        unexpected character it is, whatever the grammar expected there.
        """
        pos = self.pos if pos is None else pos
        token = self.tokens[pos]
        if token and not (token in _OPERATORS or is_int(token) or is_name(token)
                          or is_generator(token)):
            message = f"unexpected character {token!r}"
        match = next(itertools.islice(_TOKEN.finditer(self.text, self.start), pos, None))
        offset = match.start("token")
        line = self.line + self.text.count("\n", 0, offset)
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))


def parse_whole(text, read, *args, **kwargs):
    """Run the grammar `read(tokens, *args, **kwargs)` over all of `text`."""
    tokens = TokenStream(text)
    value = read(tokens, *args, **kwargs)
    tokens.expect("")
    return value
