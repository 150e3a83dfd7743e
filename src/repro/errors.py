"""Exception hierarchy for the repro high-level test synthesis library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DFGError(ReproError):
    """A data-flow graph is malformed or an operation on it is invalid."""


class HDLSyntaxError(ReproError):
    """The behavioural HDL source could not be tokenised or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class HDLSemanticError(ReproError):
    """The behavioural HDL source parsed but is semantically invalid."""


class ScheduleError(ReproError):
    """A schedule is illegal (precedence or binding constraints violated)."""


class BindingError(ReproError):
    """A module/register binding is illegal for the given schedule."""


class NetlistError(ReproError):
    """An RTL or gate-level netlist is malformed."""


class ATPGError(ReproError):
    """Test generation was asked to do something impossible."""
