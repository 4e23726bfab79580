"""Source locations for front-end constructs.

The Scaffold front-end (and, in principle, any other surface syntax)
attaches a :class:`SourceLocation` to the IR statements it produces so
that later passes — most importantly the static analyzer in
:mod:`repro.analysis` — can anchor diagnostics back to the line and
column the user wrote. Locations are carried on non-comparing fields:
two operations that differ only in where they were written are still
equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["SourceLocation"]


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A position in a source file: 1-based line, 1-based column.

    Attributes:
        line: 1-based line number.
        column: 1-based column number (0 when unknown).
        file: originating file name, if known.
    """

    line: int
    column: int = 0
    file: Optional[str] = None

    def __str__(self) -> str:
        prefix = f"{self.file}:" if self.file else ""
        if self.column:
            return f"{prefix}{self.line}:{self.column}"
        return f"{prefix}{self.line}"

    def describe(self) -> str:
        """Human-oriented rendering (``line 4, col 7``)."""
        where = f"line {self.line}"
        if self.column:
            where += f", col {self.column}"
        if self.file:
            where = f"{self.file}: {where}"
        return where

    def to_dict(self) -> dict:
        out = {"line": self.line, "column": self.column}
        if self.file:
            out["file"] = self.file
        return out
