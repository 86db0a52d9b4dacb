"""Shared exception base for the tla package, and the line-error helpers
that every reader of an input file uses."""


class TlaError(Exception):
    """Base class for all errors raised by this package."""


class LineError(TlaError):
    """A data error at a 1-based line of an input file; readers set ``path``
    with :func:`located`, and the message then starts with it."""

    path = None

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        return f"{where(self.path, self.line)}: {self.args[0]}"


def where(path, line: int) -> str:
    """``<path>: line N``, or ``line N`` without a path."""
    return f"line {line}" if path is None else f"{path}: line {line}"


def decoded(line, line_num: int, error=LineError) -> str:
    """``line`` as text: a str as it is, bytes decoded as UTF-8.  Invalid
    UTF-8 raises ``error(line_num, "invalid UTF-8: <reason>")``."""
    if isinstance(line, str):
        return line
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(line_num, f"invalid UTF-8: {exc.reason}") from None


def located(error: LineError, source) -> LineError:
    """``error``, given the ``name`` of ``source`` as its path unless it has one."""
    if error.path is None:
        error.path = getattr(source, "name", None)
    return error
