"""Project-native static analysis for the repro codebase.

An AST-based lint pass that machine-enforces the invariants no generic
tool knows about: explicit seeding of every random draw (determinism ↔
the golden-parity test suites), the ``np.uint64``/tail-mask conventions of
the packed word kernels (↔ P-value parity with the scalar oracles), the lock
discipline of the fleet service tier (↔ the bounded-lock-hold e2e tests),
and the typed/picklable API surfaces the external tooling gates rely on.

Run it as ``python -m repro.analysis [paths...]`` or via the main CLI's
``lint`` sub-command.  Findings can be suppressed inline with
``# repro: ignore[RULE]`` or accepted — with a written justification —
in the committed ``analysis-baseline.json``.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, DEFAULT_BASELINE_PATH
from repro.analysis.cli import main
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.framework import (
    Checker,
    CheckerRegistry,
    DEFAULT_REGISTRY,
    FileContext,
    Rule,
    analyze_file,
    analyze_source,
    collect_files,
)

# Importing the checker package registers every shipped family.
import repro.analysis.checkers  # noqa: F401  isort: skip

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Checker",
    "CheckerRegistry",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_REGISTRY",
    "FileContext",
    "Finding",
    "Rule",
    "Severity",
    "analyze_file",
    "analyze_source",
    "collect_files",
    "main",
]
