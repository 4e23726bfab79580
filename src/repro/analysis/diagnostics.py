"""Structured diagnostics for the static analyzer.

Every finding the analyzer (``qlint``) produces is a :class:`Diagnostic`
with a stable code (``QL001`` ...), a :class:`Severity`, a human-readable
message, and optional anchors: the module it concerns, the statement
index within that module's body, the qubit involved, and a
:class:`~repro.core.source.SourceLocation` when the program came from a
front-end. :class:`DiagnosticSet` is the ordered collection the whole
toolchain passes around — the CLI renders it as text or JSON, strict
compilation raises :class:`AnalysisError` from it, and the schedule
auditor accumulates *all* violations into one instead of dying on the
first.

Code ranges (see the table in ``DESIGN.md``):

* ``QL0xx`` — program-level dataflow rules (:mod:`.program_rules`);
* ``QL1xx`` — front-end findings (:mod:`.frontend`);
* ``QL2xx`` — schedule structural invariants (:mod:`.schedule_audit`);
* ``QL3xx`` — replay / physical-realisability invariants;
* ``QL4xx`` — interprocedural qubit lifetime (:mod:`.lifetime_rules`);
* ``QL5xx`` — static resource/communication bounds
  (:mod:`.resource_rules`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
    overload,
)

from ..core.source import SourceLocation

__all__ = [
    "Severity",
    "Diagnostic",
    "DiagnosticSet",
    "AnalysisError",
]


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered: INFO < WARNING < ERROR."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        """Parse a severity name (case-insensitive).

        Raises:
            ValueError: if ``name`` is not a severity.
        """
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r} (expected one of "
                f"{', '.join(s.name.lower() for s in cls)})"
            ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    Attributes:
        code: stable machine-readable code (``QL001`` ...).
        severity: :class:`Severity` of the finding.
        message: human-readable description.
        module: name of the IR module the finding concerns, if any.
        stmt: statement index within the module's body, if applicable.
        qubit: rendered qubit name (``reg[i]``), if the finding is
            anchored to one.
        loc: source position, when the program came from a front-end.
        rule: name of the producing rule (``use-before-init`` ...).
    """

    code: str
    severity: Severity
    message: str
    module: Optional[str] = None
    stmt: Optional[int] = None
    qubit: Optional[str] = None
    loc: Optional[SourceLocation] = None
    rule: Optional[str] = None

    def render(self) -> str:
        """One-line human-readable rendering."""
        parts = [f"{self.severity}[{self.code}]"]
        anchor = ""
        if self.loc is not None:
            anchor = str(self.loc)
        elif self.module is not None:
            anchor = f"module {self.module!r}"
            if self.stmt is not None:
                anchor += f" stmt {self.stmt}"
        if anchor:
            parts.append(f"{anchor}:")
        parts.append(self.message)
        if self.loc is not None and self.module is not None:
            parts.append(f"[module {self.module!r}]")
        return " ".join(parts)

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.module is not None:
            out["module"] = self.module
        if self.stmt is not None:
            out["stmt"] = self.stmt
        if self.qubit is not None:
            out["qubit"] = self.qubit
        if self.loc is not None:
            out["location"] = self.loc.to_dict()
        if self.rule is not None:
            out["rule"] = self.rule
        return out


def _sort_key(d: Diagnostic) -> Tuple[str, int, int, int, str]:
    loc = d.loc
    return (
        d.module or "",
        loc.line if loc else 1 << 30,
        loc.column if loc else 1 << 30,
        d.stmt if d.stmt is not None else 1 << 30,
        d.code,
    )


class DiagnosticSet:
    """An ordered collection of diagnostics with rendering helpers."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self._diags: List[Diagnostic] = list(diagnostics)

    # -- construction ----------------------------------------------------

    def add(self, diagnostic: Diagnostic) -> None:
        self._diags.append(diagnostic)

    def extend(self, other: Iterable[Diagnostic]) -> None:
        self._diags.extend(other)

    # -- container protocol ---------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diags)

    def __len__(self) -> int:
        return len(self._diags)

    def __bool__(self) -> bool:
        return bool(self._diags)

    @overload
    def __getitem__(self, idx: int) -> Diagnostic: ...

    @overload
    def __getitem__(self, idx: slice) -> List[Diagnostic]: ...

    def __getitem__(
        self, idx: Union[int, slice]
    ) -> Union[Diagnostic, List[Diagnostic]]:
        return self._diags[idx]

    # -- queries ---------------------------------------------------------

    def at_least(self, severity: Severity) -> List[Diagnostic]:
        """Diagnostics at or above ``severity``."""
        return [d for d in self._diags if d.severity >= severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self._diags if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [
            d for d in self._diags if d.severity == Severity.WARNING
        ]

    @property
    def has_errors(self) -> bool:
        return any(
            d.severity == Severity.ERROR for d in self._diags
        )

    @property
    def max_severity(self) -> Optional[Severity]:
        if not self._diags:
            return None
        return max(d.severity for d in self._diags)

    def codes(self) -> Set[str]:
        """The distinct diagnostic codes present."""
        return {d.code for d in self._diags}

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self._diags if d.code == code]

    def counts(self) -> Dict[str, int]:
        """Count of diagnostics per severity name."""
        out: Dict[str, int] = {str(s): 0 for s in Severity}
        for d in self._diags:
            out[str(d.severity)] += 1
        return out

    def sorted(self) -> List[Diagnostic]:
        """Diagnostics ordered by (module, location, code)."""
        return sorted(self._diags, key=_sort_key)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Multi-line human-readable listing plus a summary line."""
        lines = [d.render() for d in self.sorted()]
        counts = self.counts()
        summary = ", ".join(
            f"{n} {name}{'s' if n != 1 else ''}"
            for name, n in (
                ("error", counts["error"]),
                ("warning", counts["warning"]),
                ("info", counts["info"]),
            )
            if n
        )
        lines.append(summary or "no findings")
        return "\n".join(lines)

    def to_list(self) -> List[dict]:
        return [d.to_dict() for d in self.sorted()]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Machine-readable JSON rendering."""
        return json.dumps(
            {
                "diagnostics": self.to_list(),
                "counts": self.counts(),
            },
            indent=indent,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.counts()
        return (
            f"DiagnosticSet({c['error']}E/{c['warning']}W/"
            f"{c['info']}I)"
        )


class AnalysisError(Exception):
    """Raised by strict compilation when the analyzer finds errors.

    Attributes:
        diagnostics: the full :class:`DiagnosticSet` of the failing
            analysis run (errors and lower-severity findings alike).
        stage: which toolflow stage the analysis ran at.
    """

    def __init__(
        self, diagnostics: DiagnosticSet, stage: str = "input"
    ) -> None:
        self.diagnostics = diagnostics
        self.stage = stage
        errors = diagnostics.errors
        head = (
            f"static analysis found {len(errors)} error(s) at stage "
            f"{stage!r}"
        )
        detail = "\n".join(d.render() for d in errors[:10])
        if len(errors) > 10:
            detail += f"\n... and {len(errors) - 10} more"
        super().__init__(f"{head}:\n{detail}" if detail else head)
