"""Exception types shared across the package."""

import sys


class Error(Exception):
    """Base class for all package-specific errors."""


class ParseError(Error, ValueError):
    """Malformed input text; carries a 1-based line/column when known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "") + ": "
        super().__init__(where + message)


class PreconditionError(Error, ValueError):
    """An operation was called on inputs outside its contract."""


class SpecMismatchError(Error, ValueError):
    """Operands belong to different ambient groups or rings."""


def shown(value):
    """`str(value)` for an error message, or a note naming the digit limit.

    `str()` refuses an int of more digits than `sys.get_int_max_str_digits()`
    (4300 by default), and so every value that holds one, with a ValueError;
    a message names the limit in its place and stays one line.
    """
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        return f"<not shown: it holds an integer of more than {limit} digits>"
