"""The machine-readable report shapes shared by the CLI and the HTTP frontend.

``repro detect --json`` and ``POST .../detect`` must emit the *same* JSON
document — the CI smoke job, the HTTP client and any operator tooling parse
one shape, not two.  These builders are that single source of truth: the CLI
prints them, the WSGI app serialises them onto the wire, and the test suites
assert both against the same keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.watermarking.mark import Mark, mark_loss

if TYPE_CHECKING:  # annotations only: the CLI imports this module before any verb runs
    from repro.service.api import DetectOutcome
    from repro.watermarking.ownership import DisputeVerdict

__all__ = ["DEFAULT_MAX_LOSS", "detect_report", "dispute_report", "error_payload"]

#: Mark-loss threshold below which a detection counts as a positive match.
DEFAULT_MAX_LOSS = 0.1


def detect_report(
    outcome: DetectOutcome,
    *,
    expected_mark: str | None = None,
    max_loss: float = DEFAULT_MAX_LOSS,
) -> dict:
    """The detect JSON document: the outcome plus the ``ok`` verdict.

    *expected_mark* overrides the vault's registered mark (the operator may
    compare against an externally retained one).  ``ok`` is ``None`` when
    there is nothing to compare against — an unregistered dataset is "no
    verdict", not a failure.
    """
    expected = expected_mark or outcome.expected_mark
    loss = (
        mark_loss(Mark.from_string(expected), Mark.from_string(outcome.mark))
        if expected
        else None
    )
    payload = outcome.to_json()
    payload["expected_mark"] = expected
    payload["mark_loss"] = loss
    payload["ok"] = None if loss is None else loss <= max_loss
    return payload


def dispute_report(dataset_id: str, verdict: DisputeVerdict) -> dict:
    """The dispute JSON document: per-claim assessments plus the winner."""
    return {
        "dataset": dataset_id,
        "winner": verdict.winner,
        "valid_claimants": verdict.valid_claimants,
        "assessments": [
            {
                "claimant": assessment.claimant,
                "valid": assessment.valid,
                "decryption_ok": assessment.decryption_ok,
                "statistic_ok": assessment.statistic_ok,
                "mark_matches": assessment.mark_matches,
                "mark_bit_errors": assessment.mark_bit_errors,
            }
            for assessment in verdict.assessments
        ],
    }


def error_payload(message: str) -> dict:
    """The uniform failure document: ``{"error": <message>}``, nothing else."""
    return {"error": message}
