"""Shared exception base for the tla package, and the one error of a bad line
of an input file.

Every reader of an input file (JSONL export, cleaned and labeled CSV tables,
lexicons, stopword lists, seed texts) raises :class:`LineError` for a bad
line, built where the line is read with the file's path, and decodes each
line with :func:`decoded`, which also drops a leading byte order mark.
"""


class TlaError(Exception):
    """Base class for all errors raised by this package."""


class LineError(TlaError):
    """A data error at a 1-based ``line`` of the input file at ``path`` (None
    for a source without a name); the message starts with both."""

    def __init__(self, path, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        return f"{where(self.path, self.line)}: {self.args[0]}"


def where(path, line: int) -> str:
    """``<path>: line N``, or ``line N`` without a path."""
    return f"line {line}" if path is None else f"{path}: line {line}"


def decoded(line, line_num: int, path, prefix: str = "") -> str:
    """``line`` as text (bytes are decoded as UTF-8), less a byte order mark
    that starts line 1.  Invalid UTF-8 is a LineError with the message
    ``<prefix>invalid UTF-8: <reason>``."""
    if not isinstance(line, str):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LineError(path, line_num, f"{prefix}invalid UTF-8: {exc.reason}") from None
    return line.removeprefix("\ufeff") if line_num == 1 else line
