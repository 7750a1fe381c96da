"""Quantitative promotion gates: no model takes traffic on vibes.

``repro-sato registry promote --gate`` refuses to flip the promotion
pointer unless the candidate clears two thresholds:

* **macro-F1 on a held-out eval set** — absolute quality, measured by
  running the candidate over a labelled table set that was never part of
  training (:func:`holdout_report`),
* **agreement with the incumbent** — behavioural drift, measured by
  replaying the same eval tables through both the candidate and the
  currently promoted version and comparing per-column predictions
  (:func:`replay_agreement`).  This is the offline twin of the live
  :class:`~repro.registry.shadow.ShadowEvaluator`; live shadow stats from a
  running server's ``/metrics`` can be supplied instead via the CLI.

Both checks produce one :class:`GateResult` that is recorded in the
registry's promotion pointer, so every promotion carries its evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evaluation.metrics import ClassificationReport, classification_report
from repro.tables import Table, tables_from_jsonl

__all__ = [
    "DEFAULT_GATE_MIN_AGREEMENT",
    "DEFAULT_GATE_MIN_F1",
    "DEFAULT_SUITE_GATE_MIN_F1",
    "DEFAULT_SUITE_REGRESSION_TOLERANCE",
    "GateResult",
    "SuiteGate",
    "SuiteGateResult",
    "holdout_report",
    "load_eval_tables",
    "parse_suite_gate",
    "replay_agreement",
    "run_gate",
    "run_suite_gates",
]

#: Default promotion-gate thresholds: the defaults of ``registry promote
#: --min-f1/--min-agreement``.  The F1 floor is deliberately modest (the
#: tiny synthetic corpora of tests/benchmarks top out well below
#: paper-scale accuracy); production deployments should set their own.
DEFAULT_GATE_MIN_F1 = 0.5
DEFAULT_GATE_MIN_AGREEMENT = 0.85

#: Absolute per-suite floor used when neither the gate configuration nor
#: the suite spec's ``difficulty.suggested_floor`` names one.  Deliberately
#: near zero: the useful per-suite criterion is usually the
#: no-regression-vs-incumbent check; explicit floors are a policy choice.
DEFAULT_SUITE_GATE_MIN_F1 = 0.02

#: How far a candidate's per-suite macro-F1 may fall below the incumbent's
#: before the promotion is refused.  The tiny suite presets make F1 exactly
#: reproducible (deterministic corpora, deterministic inference), so the
#: tolerance absorbs genuine model-to-model variation only.
DEFAULT_SUITE_REGRESSION_TOLERANCE = 0.05


def load_eval_tables(path, labeled_only: bool = True) -> list[Table]:
    """Load a held-out eval set (corpus JSONL), keeping labelled tables.

    Tables without a single ground-truth column label cannot contribute to
    F1 and are dropped when ``labeled_only`` is set.  The same loader backs
    ``repro-sato evaluate --model`` and the promotion gate, so the two
    paths can never disagree about what "the eval set" means.
    """
    tables = tables_from_jsonl(path)
    if labeled_only:
        tables = [
            table
            for table in tables
            if any(column.semantic_type is not None for column in table.columns)
        ]
    if not tables:
        raise ValueError(f"eval set {path} holds no labelled tables")
    return tables


def holdout_report(predictor, tables: list[Table]) -> ClassificationReport:
    """Classification report of a predictor over labelled eval tables.

    ``predictor`` needs only ``predict_tables``; batched prediction keeps
    this fast enough to run inside a promotion.
    """
    predictions = predictor.predict_tables(tables)
    y_true: list[str] = []
    y_pred: list[str] = []
    for table, labels in zip(tables, predictions):
        for column, label in zip(table.columns, labels):
            if column.semantic_type is not None:
                y_true.append(column.semantic_type)
                y_pred.append(label)
    return classification_report(y_true, y_pred)


def replay_agreement(candidate, incumbent, tables: list[Table]) -> float:
    """Column-level agreement between two predictors on the same tables."""
    candidate_labels = candidate.predict_tables(tables)
    incumbent_labels = incumbent.predict_tables(tables)
    compared = 0
    agreed = 0
    for ours, theirs in zip(candidate_labels, incumbent_labels):
        for a, b in zip(ours, theirs):
            compared += 1
            agreed += a == b
    return agreed / compared if compared else 1.0


@dataclass(frozen=True)
class SuiteGate:
    """One configured per-suite promotion criterion.

    ``min_f1`` of ``None`` defers to the suite spec's
    ``difficulty.suggested_floor`` (falling back to
    :data:`DEFAULT_SUITE_GATE_MIN_F1`), so shipped suites carry their own
    review-able default policy.
    """

    suite: str
    min_f1: float | None = None


def parse_suite_gate(text: str) -> SuiteGate:
    """Parse the CLI form ``name`` or ``name:0.25`` into a :class:`SuiteGate`."""
    suite, separator, floor = text.partition(":")
    if not suite:
        raise ValueError(f"--suite expects NAME or NAME:MIN_F1, got {text!r}")
    if not separator:
        return SuiteGate(suite=suite)
    try:
        return SuiteGate(suite=suite, min_f1=float(floor))
    except ValueError:
        raise ValueError(
            f"--suite expects NAME or NAME:MIN_F1, got {text!r}"
        ) from None


@dataclass
class SuiteGateResult:
    """Outcome of one per-suite criterion (part of the gate evidence)."""

    suite: str
    preset: str
    macro_f1: float
    min_f1: float
    incumbent_f1: float | None
    tolerance: float
    passed: bool
    n_columns: int
    reasons: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "preset": self.preset,
            "macro_f1": self.macro_f1,
            "min_f1": self.min_f1,
            "incumbent_f1": self.incumbent_f1,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "n_columns": self.n_columns,
            "reasons": list(self.reasons),
        }


def run_suite_gates(
    candidate,
    suite_gates: list[SuiteGate],
    incumbent=None,
    preset: str = "tiny",
    tolerance: float = DEFAULT_SUITE_REGRESSION_TOLERANCE,
) -> list[SuiteGateResult]:
    """Evaluate every configured per-suite criterion.

    Each suite imposes two conditions on the candidate's macro-F1 over the
    deterministically built suite corpus:

    * **absolute floor** — at least the gate's ``min_f1`` (or the suite's
      suggested floor),
    * **no regression** — when an incumbent predictor is given, at least
      ``incumbent_f1 - tolerance``: "handles more scenarios" must never
      silently become "handles fewer".
    """
    from repro.corpus.suites import load_suite_spec
    from repro.evaluation.suites import evaluate_suite

    results: list[SuiteGateResult] = []
    for gate in suite_gates:
        spec = load_suite_spec(gate.suite)
        min_f1 = gate.min_f1
        if min_f1 is None:
            min_f1 = float(
                spec.difficulty.get("suggested_floor", DEFAULT_SUITE_GATE_MIN_F1)
            )
        report = evaluate_suite(candidate, gate.suite, preset)
        incumbent_f1 = None
        if incumbent is not None:
            incumbent_f1 = evaluate_suite(incumbent, gate.suite, preset).macro_f1
        reasons: list[str] = []
        if report.macro_f1 < min_f1:
            reasons.append(
                f"suite {gate.suite}: macro-F1 {report.macro_f1:.3f} below "
                f"floor {min_f1:.3f}"
            )
        if incumbent_f1 is not None and report.macro_f1 < incumbent_f1 - tolerance:
            reasons.append(
                f"suite {gate.suite}: macro-F1 {report.macro_f1:.3f} regressed "
                f"vs incumbent {incumbent_f1:.3f} (tolerance {tolerance:.3f})"
            )
        results.append(
            SuiteGateResult(
                suite=gate.suite,
                preset=preset,
                macro_f1=report.macro_f1,
                min_f1=min_f1,
                incumbent_f1=incumbent_f1,
                tolerance=tolerance,
                passed=not reasons,
                n_columns=report.n_columns,
                reasons=reasons,
            )
        )
    return results


@dataclass
class GateResult:
    """Outcome of a gated promotion check (recorded with the promotion)."""

    passed: bool
    macro_f1: float
    weighted_f1: float
    agreement: float | None
    min_macro_f1: float
    min_agreement: float
    n_eval_tables: int
    reasons: list[str] = field(default_factory=list)
    suites: list[SuiteGateResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "agreement": self.agreement,
            "min_macro_f1": self.min_macro_f1,
            "min_agreement": self.min_agreement,
            "n_eval_tables": self.n_eval_tables,
            "reasons": list(self.reasons),
            "suites": [suite.to_dict() for suite in self.suites],
        }


def run_gate(
    candidate,
    eval_tables: list[Table],
    min_macro_f1: float,
    min_agreement: float,
    incumbent=None,
    shadow_agreement: float | None = None,
    suite_gates: list[SuiteGate] | None = None,
    suite_preset: str = "tiny",
    suite_tolerance: float = DEFAULT_SUITE_REGRESSION_TOLERANCE,
) -> GateResult:
    """Evaluate every promotion gate for a candidate predictor.

    ``incumbent`` (the currently promoted version's predictor) enables the
    replay-agreement gate and the per-suite no-regression checks;
    ``shadow_agreement`` — an agreement rate already measured on live
    traffic — takes precedence over the replay when given.  With neither,
    only the F1 gate (plus any ``suite_gates`` floors) applies (first
    promotion).  ``suite_gates`` adds one hard-case scenario criterion per
    entry (see :func:`run_suite_gates`); every configured suite must pass
    for the promotion to pass.
    """
    report = holdout_report(candidate, eval_tables)
    agreement: float | None = shadow_agreement
    if agreement is None and incumbent is not None:
        agreement = replay_agreement(candidate, incumbent, eval_tables)

    reasons: list[str] = []
    if report.macro_f1 < min_macro_f1:
        reasons.append(
            f"macro-F1 {report.macro_f1:.3f} below gate {min_macro_f1:.3f}"
        )
    if agreement is not None and agreement < min_agreement:
        reasons.append(
            f"agreement {agreement:.3f} below gate {min_agreement:.3f}"
        )
    suites: list[SuiteGateResult] = []
    if suite_gates:
        suites = run_suite_gates(
            candidate,
            suite_gates,
            incumbent=incumbent,
            preset=suite_preset,
            tolerance=suite_tolerance,
        )
        for suite in suites:
            reasons.extend(suite.reasons)
    return GateResult(
        passed=not reasons,
        macro_f1=report.macro_f1,
        weighted_f1=report.weighted_f1,
        agreement=agreement,
        min_macro_f1=min_macro_f1,
        min_agreement=min_agreement,
        n_eval_tables=len(eval_tables),
        reasons=reasons,
        suites=suites,
    )
