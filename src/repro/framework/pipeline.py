"""The unified protection framework (Figure 2 of the paper).

``ProtectionFramework`` wires the two agents together: the table to be
outsourced is first binned to the k-anonymity specification (within the usage
metrics), then watermarked with a mark derived from the clear-text identifying
column, and the result — along with everything the owner must retain to later
prove ownership — is returned as :class:`ProtectedData`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binning.binner import BinnedTable, BinningAgent, BinningResult
from repro.binning.kanonymity import KAnonymitySpec
from repro.dht.tree import DomainHierarchyTree
from repro.metrics.usage_metrics import UsageMetrics
from repro.relational.table import Table
from repro.watermarking.hierarchical import DetectionReport, EmbeddingReport, HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import Mark, mark_loss
from repro.watermarking.ownership import OwnershipClaim, OwnershipRegistry

from typing import Mapping, Sequence

__all__ = ["ProtectedData", "ProtectionFramework"]


@dataclass(frozen=True)
class ProtectedData:
    """Everything the protection pipeline produces.

    ``watermarked`` is what gets outsourced; the rest stays with the owner —
    the un-watermarked binned table (useful for forensics), the registered
    statistic and mark (needed in court) and the embedding/binning reports
    used by the experiments.
    """

    watermarked: BinnedTable
    binned: BinnedTable
    binning_result: BinningResult
    embedding_report: EmbeddingReport
    mark: Mark
    registered_statistic: float

    @property
    def outsourced_table(self) -> Table:
        """The relational table actually handed to the third party."""
        return self.watermarked.table


class ProtectionFramework:
    """Bin, watermark and (later) verify ownership of an outsourced table."""

    def __init__(
        self,
        trees: Mapping[str, DomainHierarchyTree],
        usage_metrics: UsageMetrics,
        k_spec: KAnonymitySpec,
        *,
        encryption_key: bytes | str,
        watermark_secret: bytes | str,
        eta: int = 100,
        mark_length: int = 20,
        copies: int = 4,
        watermark_columns: Sequence[str] | None = None,
        level_weighting: bool = False,
        ownership_tau: float = 1e7,
        max_mark_bit_errors: int = 2,
        code: str | None = None,
    ) -> None:
        self._binning_agent = BinningAgent(trees, usage_metrics, k_spec, encryption_key)
        self._encryption_key = encryption_key
        self._watermark_key = WatermarkKey.from_secret(watermark_secret, eta)
        self._mark_length = mark_length
        self._copies = copies
        self._watermark_columns = tuple(watermark_columns) if watermark_columns is not None else None
        self._registry = OwnershipRegistry(
            mark_length=mark_length, tau=ownership_tau, max_bit_errors=max_mark_bit_errors
        )
        self._watermarker = HierarchicalWatermarker(
            self._watermark_key,
            columns=self._watermark_columns,
            copies=copies,
            level_weighting=level_weighting,
            code=code,
        )

    # ------------------------------------------------------------- properties
    @property
    def watermark_key(self) -> WatermarkKey:
        return self._watermark_key

    @property
    def mark_length(self) -> int:
        return self._mark_length

    @property
    def registry(self) -> OwnershipRegistry:
        return self._registry

    @property
    def binning_agent(self) -> BinningAgent:
        """The binning half of the pipeline (the service streams through it)."""
        return self._binning_agent

    @property
    def encryption_key(self) -> bytes | str:
        return self._encryption_key

    @property
    def copies(self) -> int:
        return self._copies

    @property
    def watermark_columns(self) -> tuple[str, ...] | None:
        return self._watermark_columns

    def watermarker(self) -> HierarchicalWatermarker:
        """The configured hierarchical watermarker (shared by protect/verify).

        One instance is kept for the framework's lifetime so the batched hash
        engine's digest caches carry over from embedding to every later
        detection pass — a detect on the table just protected (or on an
        attacked variant with mostly unchanged idents) reuses the cached
        per-tuple digests instead of recomputing them.
        """
        return self._watermarker

    # -------------------------------------------------------------------- API
    def protect(self, table: Table) -> ProtectedData:
        """Run the full pipeline of Figure 2 on *table*."""
        identifying = [column.name for column in table.schema.identifying_columns]
        if not identifying:
            raise ValueError("the table must have at least one identifying column")
        statistic, mark = self._registry.derive_mark(
            [row[column] for row in table for column in identifying]
        )
        binning_result = self._binning_agent.bin(table)
        embedding = self._watermarker.embed(binning_result.binned, mark)
        return ProtectedData(
            watermarked=embedding.watermarked,
            binned=binning_result.binned,
            binning_result=binning_result,
            embedding_report=embedding,
            mark=mark,
            registered_statistic=statistic,
        )

    def detect(self, suspect: BinnedTable) -> DetectionReport:
        """Run mark detection on a (possibly attacked) table."""
        return self._watermarker.detect(suspect, self._mark_length)

    def mark_loss(self, suspect: BinnedTable, original_mark: Mark) -> float:
        """Fraction of mark bits lost in *suspect* relative to *original_mark*."""
        return mark_loss(original_mark, self.detect(suspect).mark)

    def owner_claim(self, statistic: float, claimant: str = "owner") -> OwnershipClaim:
        """The claim an owner who registered *statistic* brings to a dispute.

        The claim's mark is ``F(statistic)`` under this framework's registry;
        the framework itself keeps no registration, so any process holding the
        statistic (``ProtectedData.registered_statistic`` or a vault record)
        builds the same claim.
        """
        return OwnershipClaim(
            claimant=claimant,
            registered_statistic=statistic,
            mark=self._registry.mark_for_statistic(statistic),
            watermark_key=self._watermark_key,
            encryption_key=self._encryption_key,
            copies=self._copies,
            columns=self._watermark_columns,
            code=self._watermarker.code_name,
        )

    def resolve_dispute(self, disputed: BinnedTable, claims: Sequence[OwnershipClaim]):
        """Delegate dispute resolution to the ownership registry."""
        return self._registry.resolve_dispute(disputed, claims)
