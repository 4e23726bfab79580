"""``repro.analysis`` — the static analyzer ("qlint").

A program- and schedule-level analysis layer over the toolflow: a
structured diagnostics framework with stable codes (``QL001`` ...), a
rule registry with a battery of dataflow analyses over the hierarchical
IR, front-end lint for the Scaffold/QASM surface syntaxes, a schedule
auditor that re-checks every Multi-SIMD structural and physical
invariant while collecting *all* violations, and an interprocedural
(``--deep``) layer: a worklist fixpoint engine over the call graph
(:mod:`.dataflow`) feeding qubit-lifetime rules (``QL4xx``) and static
resource/communication bounds with a schedule sanitizer (``QL5xx``).

Entry points:

* :func:`analyze_program` — run the registered rules on a Program;
* :func:`analyze_deep` — run the interprocedural battery
  (``QL4xx``/``QL5xx`` rules);
* :func:`lint_scaffold_source` / :func:`lint_qasm_source` — lint
  surface text without raising;
* :func:`audit_schedule` / :func:`audit_replay` — post-hoc schedule
  auditing with collected diagnostics (``deep=True`` adds the bounds
  sanitizer);
* ``python -m repro lint`` — the CLI surface (``--deep`` for the
  interprocedural battery);
* ``compile_and_schedule(strict=True)`` — in-toolflow enforcement.
"""

from .dataflow import (
    FixpointResult,
    InterproceduralAnalysis,
    Lattice,
    PowersetLattice,
    TransferFunctions,
    solve_bottom_up,
)
from .deep import (
    DEFAULT_MACHINE,
    DeepAnalysis,
    DeepContext,
    analyze_deep,
)
from .diagnostics import (
    AnalysisError,
    Diagnostic,
    DiagnosticSet,
    Severity,
)
from .frontend import (
    FrontendLint,
    lint_qasm_source,
    lint_scaffold_source,
)
from .lifetime_rules import (
    LifetimeAnalysis,
    LifetimeSummary,
)
from .registry import (
    DeepRule,
    Reporter,
    Rule,
    analyze_deep_rules,
    analyze_program,
    deep_rule,
    registered_deep_rules,
    registered_rules,
    rule,
)
from .resource_rules import (
    ResourceAnalysis,
    ResourceSummary,
    audit_profile_bounds,
    audit_schedule_bounds,
)
from .schedule_audit import audit_replay, audit_schedule

# Importing the module registers the built-in QL0xx rules. (The deep
# QL4xx/QL5xx rules register through the lifetime/resource imports
# above.)
from . import program_rules  # noqa: F401

__all__ = [
    "AnalysisError",
    "DEFAULT_MACHINE",
    "DeepAnalysis",
    "DeepContext",
    "DeepRule",
    "Diagnostic",
    "DiagnosticSet",
    "FixpointResult",
    "FrontendLint",
    "InterproceduralAnalysis",
    "Lattice",
    "LifetimeAnalysis",
    "LifetimeSummary",
    "PowersetLattice",
    "Reporter",
    "ResourceAnalysis",
    "ResourceSummary",
    "Rule",
    "Severity",
    "TransferFunctions",
    "analyze_deep",
    "analyze_deep_rules",
    "analyze_program",
    "audit_profile_bounds",
    "audit_replay",
    "audit_schedule",
    "audit_schedule_bounds",
    "deep_rule",
    "lint_qasm_source",
    "lint_scaffold_source",
    "registered_deep_rules",
    "registered_rules",
    "rule",
    "solve_bottom_up",
]
