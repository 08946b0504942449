"""Rightful-ownership protocol (Section 5.4).

Surviving mark-removal attacks is necessary but not sufficient to establish
ownership: an attacker can *add* their own mark to the watermarked table
(Attack 1) or *subtract* a bogus mark to fabricate a bogus "original"
(Attack 2).  The multimedia literature solves this only when the mark is a
one-way function of the original data and the original is available in court.

The binned table offers an elegant shortcut: its identifying columns are
encrypted, so only the true owner can produce their clear-text.  The owner's
mark is therefore fixed to ``F(v)`` where ``v`` is a statistic (the mean) of
the clear-text identifiers and ``F`` a one-way function.  In a dispute the
claimed owner must

1. present the registered statistic ``v``,
2. decrypt the identifying column of the disputed table and recompute the
   statistic ``v'``; the claim is valid only if ``|v - v'| < τ`` (the table
   may have lost or gained tuples under attack, hence a tolerance rather than
   equality),
3. show that the mark extracted from the disputed table matches ``F(v)``.

An attacker fails step 2 (they cannot decrypt) and cannot fabricate data whose
statistic maps through ``F`` onto a mark already present (one-wayness), so
both classic attacks are defeated without hauling the entire original table
into court.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.binning.binner import BinnedTable
from repro.crypto.cipher import FieldEncryptor
from repro.telemetry.trace import span as _stage_span
from repro.watermarking.hierarchical import DetectionVotes, HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import Mark

__all__ = [
    "OwnershipClaim",
    "ClaimEvidence",
    "DisputeVerdict",
    "identifier_total",
    "statistic_from_total",
    "identifier_statistic",
    "claim_watermarker",
    "OwnershipRegistry",
]


def identifier_total(clear_identifiers: Iterable[object]) -> tuple[int, int]:
    """The mergeable half of ``v``: exact ``(sum, count)`` of the numeric identifiers.

    Identifiers that are not purely numeric strings contribute nothing.  The
    sum is an exact ``int``, so partial totals over row chunks add up to the
    whole table's total in any order.
    """
    total = 0
    count = 0
    for identifier in clear_identifiers:
        text = identifier if isinstance(identifier, str) else str(identifier)
        if text.isdigit():
            total += int(text)
            count += 1
    return total, count


def statistic_from_total(total: int, count: int) -> float:
    """``v`` from an :func:`identifier_total`: the mean, rounded once to a float.

    While every partial sum stays below 2**53 this equals the float mean
    accumulated value by value, bit for bit; beyond that it is the exactly
    rounded mean, which float accumulation is not.  With no numeric
    identifier the statistic is undefined and a ``ValueError`` is raised —
    which is exactly what happens when a false claimant "decrypts" the column
    with the wrong key and obtains garbage.
    """
    if count == 0:
        raise ValueError("no numeric identifiers: cannot compute the ownership statistic")
    return total / count


def identifier_statistic(clear_identifiers: Iterable[object]) -> float:
    """The statistic ``v``: the mean of the clear-text identifiers as numbers."""
    return statistic_from_total(*identifier_total(clear_identifiers))


@dataclass(frozen=True)
class OwnershipClaim:
    """What a claimant brings to the dispute."""

    claimant: str
    registered_statistic: float
    mark: Mark
    watermark_key: WatermarkKey
    encryption_key: bytes | str
    copies: int = 4
    columns: tuple[str, ...] | None = None
    code: str | None = None


def claim_watermarker(claim: OwnershipClaim) -> HierarchicalWatermarker:
    """The detector a claim is judged by: the claimant's key, copies, columns and code."""
    return HierarchicalWatermarker(
        claim.watermark_key, columns=claim.columns, copies=claim.copies, code=claim.code
    )


@dataclass
class ClaimEvidence:
    """Partial assessment of one claim over some rows of the disputed table.

    The mergeable half of :meth:`OwnershipRegistry.assess_claim`, the way
    :class:`~repro.watermarking.hierarchical.DetectionVotes` is for detection:
    evidence collected per row chunk and merged in chunk order finalises to
    the assessment of the whole table, field for field.
    """

    votes: DetectionVotes
    identifier_total: int = 0
    identifier_count: int = 0
    decryption_failed: bool = False

    def merge(self, other: "ClaimEvidence") -> "ClaimEvidence":
        """Fold *other* (later rows) into this evidence, in place; returns self."""
        self.votes.merge(other.votes)
        self.identifier_total += other.identifier_total
        self.identifier_count += other.identifier_count
        self.decryption_failed = self.decryption_failed or other.decryption_failed
        return self


@dataclass(frozen=True)
class ClaimAssessment:
    """Outcome of evaluating a single claim."""

    claimant: str
    decryption_ok: bool
    statistic_ok: bool
    mark_matches: bool
    recomputed_statistic: float | None
    mark_bit_errors: int | None

    @property
    def valid(self) -> bool:
        return self.decryption_ok and self.statistic_ok and self.mark_matches


@dataclass(frozen=True)
class DisputeVerdict:
    """Outcome of a dispute over one table."""

    assessments: tuple[ClaimAssessment, ...]

    @property
    def valid_claimants(self) -> list[str]:
        return [assessment.claimant for assessment in self.assessments if assessment.valid]

    @property
    def winner(self) -> str | None:
        """The single valid claimant, or ``None`` if zero or several claims hold."""
        valid = self.valid_claimants
        return valid[0] if len(valid) == 1 else None


class OwnershipRegistry:
    """Registers owner marks and resolves disputes (Section 5.4)."""

    def __init__(
        self,
        *,
        mark_length: int = 20,
        tau: float = 1e7,
        max_bit_errors: int = 2,
        statistic_precision: float = 1e6,
    ) -> None:
        """
        Parameters
        ----------
        mark_length:
            Length of owner marks in bits.
        tau:
            Tolerance ``τ`` on the statistic comparison ``|v - v'| < τ``.
            Deleted or added tuples shift the mean slightly; the default
            tolerates heavy attacks on nine-digit identifiers while still
            rejecting unrelated data.
        max_bit_errors:
            Maximum Hamming distance between the extracted mark and ``F(v)``
            for the mark check to pass.
        statistic_precision:
            Quantisation applied to the statistic before hashing (so the
            owner-side recomputation lands on the same mark, see
            :meth:`repro.watermarking.mark.Mark.from_statistic`).
        """
        if mark_length < 1:
            raise ValueError("mark_length must be at least 1")
        if tau <= 0:
            raise ValueError("tau must be positive")
        if max_bit_errors < 0:
            raise ValueError("max_bit_errors must be non-negative")
        self._mark_length = mark_length
        self._tau = tau
        self._max_bit_errors = max_bit_errors
        self._precision = statistic_precision

    @property
    def mark_length(self) -> int:
        return self._mark_length

    # ------------------------------------------------------------ registration
    def derive_mark(self, clear_identifiers: Sequence[object]) -> tuple[float, Mark]:
        """Owner-side: compute the statistic ``v`` and the mark ``F(v)``."""
        statistic = identifier_statistic(clear_identifiers)
        return statistic, self.mark_for_statistic(statistic)

    def mark_for_statistic(self, statistic: float) -> Mark:
        """``F(v)`` for an already-computed statistic (vault re-hydration path)."""
        return Mark.from_statistic(statistic, self._mark_length, precision=self._precision)

    # ---------------------------------------------------------------- disputes
    def empty_evidence(self, claim: OwnershipClaim) -> ClaimEvidence:
        """The evidence of zero rows (a header-only disputed table)."""
        return ClaimEvidence(votes=DetectionVotes(wmd_length=self._mark_length * claim.copies))

    def collect_claim_evidence(
        self,
        disputed: BinnedTable,
        claim: OwnershipClaim,
        *,
        watermarker: HierarchicalWatermarker | None = None,
    ) -> ClaimEvidence:
        """Decrypt *disputed*'s identifying columns under the claim's key and collect its votes.

        Decryption runs column-wide (:meth:`FieldEncryptor.decrypt_many`) and
        stops at the first token that does not decrypt: one failure already
        decides ``decryption_ok``.  *watermarker* lets callers reuse a
        detector built for this claim across chunks.
        """
        encryptor = FieldEncryptor(claim.encryption_key)
        watermarker = watermarker if watermarker is not None else claim_watermarker(claim)
        table = disputed.table
        total = count = 0
        failed = False
        with _stage_span("dispute.decrypt", rows=len(table)):
            try:
                for column in disputed.identifying_columns:
                    column_total, column_count = identifier_total(
                        encryptor.decrypt_many(map(str, table.column_values(column)))
                    )
                    total += column_total
                    count += column_count
            except (ValueError, UnicodeDecodeError):
                # Covers undecryptable tokens and digit strings int() refuses.
                failed = True
        with _stage_span("dispute.collect", rows=len(table)):
            votes = watermarker.collect_votes(disputed, self._mark_length)
        return ClaimEvidence(
            votes=votes, identifier_total=total, identifier_count=count, decryption_failed=failed
        )

    def finalize_claim(self, evidence: ClaimEvidence, claim: OwnershipClaim) -> ClaimAssessment:
        """Judge one claim from its (merged) evidence: steps 2 and 3 of Section 5.4."""
        decryption_ok = not evidence.decryption_failed
        recomputed: float | None = None
        statistic_ok = False
        if decryption_ok:
            try:
                recomputed = statistic_from_total(evidence.identifier_total, evidence.identifier_count)
                statistic_ok = abs(recomputed - claim.registered_statistic) < self._tau
            except ValueError:
                decryption_ok = False

        expected = self.mark_for_statistic(claim.registered_statistic)
        detected = claim_watermarker(claim).finalize_votes(evidence.votes, self._mark_length)
        bit_errors = detected.mark.hamming_distance(expected)
        mark_matches = bit_errors <= self._max_bit_errors and claim.mark.bits == expected.bits

        return ClaimAssessment(
            claimant=claim.claimant,
            decryption_ok=decryption_ok,
            statistic_ok=statistic_ok,
            mark_matches=mark_matches,
            recomputed_statistic=recomputed,
            mark_bit_errors=bit_errors,
        )

    def assess_claim(self, disputed: BinnedTable, claim: OwnershipClaim) -> ClaimAssessment:
        """Evaluate one claim against the disputed table."""
        return self.finalize_claim(self.collect_claim_evidence(disputed, claim), claim)

    def resolve_dispute(self, disputed: BinnedTable, claims: Sequence[OwnershipClaim]) -> DisputeVerdict:
        """Assess every claim and return the verdict."""
        if not claims:
            raise ValueError("at least one claim is required")
        return DisputeVerdict(tuple(self.assess_claim(disputed, claim) for claim in claims))
