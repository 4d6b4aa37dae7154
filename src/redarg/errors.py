"""Exception taxonomy shared by all redarg modules."""

from __future__ import annotations


class RedargError(Exception):
    """Base class for all errors raised by this package; exit_code is
    the command line's exit status for it (4: a precondition unmet)."""

    exit_code = 2


class ParseError(RedargError):
    """Syntax error in a .trs file or a term string."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        self.message = message
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class WellFormednessError(RedargError):
    """A parsed system violates a structural invariant (variable lhs,
    extra rhs variable, sort clash, undeclared symbol with arguments,
    constructor-rooted rule)."""


class PositionOutOfRange(RedargError):
    """A position does not address a node of the given term."""


class SortMismatch(RedargError):
    """A term was used where a different sort was required."""


class ArityMismatch(RedargError):
    """An argument index or argument count is out of range for a symbol."""


class PreconditionUnmet(RedargError):
    """A detection method was invoked on a system that fails its gate.

    `gate` names the failing precondition, e.g. "left-linear",
    "constructor-system", "confluent", "seval-defined".
    """

    exit_code = 4

    def __init__(self, gate: str, detail: str = "") -> None:
        self.gate = gate
        self.detail = detail
        msg = f"precondition unmet: {gate}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NoGroundConstant(RedargError):
    """A sort has no ground constructor term to use as its designated
    constant."""

    exit_code = 4

    def __init__(self, sort: str) -> None:
        self.sort = sort
        super().__init__(f"sort {sort} has no ground constructor term")


class NotAConstructorSystem(RedargError):
    """An operation requiring a constructor system was applied to a TRS
    that is not one."""

    exit_code = 4


class EmptySort(RedargError):
    """Term enumeration was asked for a sort, or any sort, with no
    ground terms within the requested depth."""

    exit_code = 4
