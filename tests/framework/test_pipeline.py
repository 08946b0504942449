"""Tests for the unified ProtectionFramework (Figure 2)."""

import pytest

from repro.attacks.alteration import SubsetAlterationAttack
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.framework.pipeline import ProtectionFramework
from repro.metrics.usage_metrics import UsageMetrics
from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table
from repro.watermarking.mark import mark_loss


class TestProtect:
    def test_protected_data_contents(self, protected_small, medium_table):
        assert len(protected_small.watermarked.table) == len(medium_table)
        assert len(protected_small.binned.table) == len(medium_table)
        assert protected_small.outsourced_table is protected_small.watermarked.table
        assert len(protected_small.mark) == 20
        assert protected_small.registered_statistic > 0
        assert protected_small.binning_result.binned is protected_small.binned
        assert protected_small.embedding_report.watermarked is protected_small.watermarked

    def test_watermarked_differs_from_binned(self, protected_small):
        assert protected_small.watermarked.table != protected_small.binned.table

    def test_outsourced_table_contains_no_raw_identifiers(self, protected_small, medium_table):
        raw = set(medium_table.column_values("ssn"))
        outsourced = set(protected_small.outsourced_table.column_values("ssn"))
        assert raw.isdisjoint(outsourced)

    def test_mark_derived_from_identifier_statistic(self, protection_framework, protected_small, medium_table):
        statistic, mark = protection_framework.registry.derive_mark(medium_table.column_values("ssn"))
        assert statistic == pytest.approx(protected_small.registered_statistic)
        assert mark == protected_small.mark

    def test_detect_on_clean_table(self, protection_framework, protected_small):
        report = protection_framework.detect(protected_small.watermarked)
        assert report.mark == protected_small.mark
        assert protection_framework.mark_loss(protected_small.watermarked, protected_small.mark) == 0.0

    def test_mark_loss_under_attack_is_bounded(self, protection_framework, protected_small):
        attacked = SubsetAlterationAttack(0.4, seed=1).run(protected_small.watermarked).attacked
        loss = protection_framework.mark_loss(attacked, protected_small.mark)
        assert 0.0 <= loss <= 0.6

    def test_requires_identifying_column(self, trees, depth1_metrics):
        framework = ProtectionFramework(
            trees,
            depth1_metrics,
            KAnonymitySpec(k=2, mode=EnforcementMode.MONO),
            encryption_key="k",
            watermark_secret="w",
        )
        schema = TableSchema((Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),))
        table = Table(schema, [{"age": 30}] * 5)
        with pytest.raises(ValueError):
            framework.protect(table)

    def test_owner_claim_fields(self, protection_framework, protected_small):
        claim = protection_framework.owner_claim(protected_small.registered_statistic, "hospital")
        assert claim.claimant == "hospital"
        assert claim.mark == protected_small.mark
        assert claim.registered_statistic == pytest.approx(protected_small.registered_statistic)
        assert claim.watermark_key == protection_framework.watermark_key

    def test_owner_claim_depends_only_on_the_statistic(
        self, protection_framework, protected_small, trees, depth1_metrics, small_table
    ):
        # The framework keeps no registration: protecting another table does
        # not change the first table's claim, and a framework that never
        # protected anything builds the same claim from the statistic alone.
        claim = protection_framework.owner_claim(protected_small.registered_statistic, "hospital")
        other = protection_framework.protect(small_table)
        assert other.registered_statistic != protected_small.registered_statistic
        assert protection_framework.owner_claim(other.registered_statistic).mark == other.mark
        assert protection_framework.owner_claim(protected_small.registered_statistic, "hospital") == claim
        fresh = ProtectionFramework(
            trees,
            depth1_metrics,
            KAnonymitySpec(k=10, mode=EnforcementMode.MONO, epsilon=5),
            encryption_key="test-encryption-key",
            watermark_secret="test-watermark-secret",
            eta=25,
            mark_length=20,
            copies=4,
        )
        assert fresh.owner_claim(protected_small.registered_statistic, "hospital") == claim

    def test_configuration_accessors(self, protection_framework):
        assert protection_framework.mark_length == 20
        assert protection_framework.watermark_key.eta == 25
        assert protection_framework.watermarker().copies == 4


class TestEndToEndVariants:
    def test_joint_mode_pipeline(self, trees, small_table):
        framework = ProtectionFramework(
            trees,
            UsageMetrics.uniform_depth(trees, 0),
            KAnonymitySpec(k=5, mode=EnforcementMode.JOINT),
            encryption_key="k",
            watermark_secret="w",
            eta=4,
            copies=1,
        )
        protected = framework.protect(small_table)
        sizes = protected.binned.joint_bin_sizes()
        assert all(size >= 5 for size in sizes.values())
        # Joint binning on a small table collapses several columns to the
        # root, which shrinks the watermark bandwidth; the mark must still be
        # recovered essentially intact from the remaining channel.
        loss = mark_loss(protected.mark, framework.detect(protected.watermarked).mark)
        assert loss <= 0.05

    def test_restricted_watermark_columns(self, trees, depth1_metrics, small_table):
        framework = ProtectionFramework(
            trees,
            depth1_metrics,
            KAnonymitySpec(k=5, mode=EnforcementMode.MONO),
            encryption_key="k",
            watermark_secret="w",
            eta=10,
            watermark_columns=("symptom", "prescription"),
        )
        protected = framework.protect(small_table)
        assert protected.watermarked.table.column_values("age") == protected.binned.table.column_values("age")
        assert framework.detect(protected.watermarked).mark == protected.mark

    def test_different_secrets_give_independent_marks(self, trees, depth1_metrics, small_table):
        spec = KAnonymitySpec(k=5, mode=EnforcementMode.MONO)
        fw_a = ProtectionFramework(
            trees, depth1_metrics, spec, encryption_key="k", watermark_secret="alpha", eta=10
        )
        fw_b = ProtectionFramework(
            trees, depth1_metrics, spec, encryption_key="k", watermark_secret="beta", eta=10
        )
        protected_a = fw_a.protect(small_table)
        # Detection with the wrong framework's key misreads the mark.
        assert mark_loss(protected_a.mark, fw_b.detect(protected_a.watermarked).mark) > 0.1
