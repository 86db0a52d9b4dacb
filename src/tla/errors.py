"""Shared exception base for the tla package."""


class TlaError(Exception):
    """Base class for all errors raised by this package."""


class LineError(TlaError):
    """A data error at a 1-based line of an input file; readers set ``path``
    from their source's ``name``, and the message then starts with it."""

    path = None

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")

    def __str__(self) -> str:
        return self.args[0] if self.path is None else f"{self.path}: {self.args[0]}"
