"""End-to-end integration tests: the full Figure 2 pipeline under fire."""

import pytest

from repro.attacks.addition import SubsetAdditionAttack
from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import SubsetDeletionAttack
from repro.attacks.generalization_attack import GeneralizationAttack
from repro.attacks.ownership_attacks import AdditiveMarkAttack
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.datagen.medical import generate_medical_table
from repro.framework.analysis import seamlessness_report
from repro.framework.pipeline import ProtectionFramework
from repro.metrics.usage_metrics import UsageMetrics
from repro.ontology.registry import standard_ontology


@pytest.fixture(scope="module")
def pipeline():
    """A complete hospital-side setup on a 2500-row table."""
    table = generate_medical_table(size=2500, seed=99)
    trees = dict(standard_ontology().items())
    framework = ProtectionFramework(
        trees,
        UsageMetrics.uniform_depth(trees, 1),
        KAnonymitySpec(k=15, mode=EnforcementMode.MONO, epsilon=5),
        encryption_key="integration-encryption-key",
        watermark_secret="integration-watermark-secret",
        eta=40,
        mark_length=20,
        copies=4,
    )
    protected = framework.protect(table)
    return table, framework, protected


class TestPrivacyGuarantees:
    def test_k_anonymity_per_attribute_after_watermarking(self, pipeline):
        _, _, protected = pipeline
        for column in protected.watermarked.quasi_columns:
            sizes = protected.watermarked.bin_sizes(column)
            assert all(size >= 15 for size in sizes.values()), column

    def test_no_raw_quasi_identifier_values_leak(self, pipeline):
        table, _, protected = pipeline
        # Every symptom in the outsourced table is a generalized category, not
        # one of the raw leaf-level diagnoses that could re-identify.
        raw_symptoms = set(table.column_values("symptom"))
        outsourced = set(protected.outsourced_table.column_values("symptom"))
        tree = protected.watermarked.tree("symptom")
        for value in outsourced:
            node = tree.value_to_node(value)
            assert not node.is_leaf or value not in raw_symptoms or node.name in protected.watermarked.ultimate_nodes["symptom"]

    def test_identifiers_encrypted_but_traceable_by_owner(self, pipeline):
        table, framework, protected = pipeline
        raw = table.column_values("ssn")
        outsourced = protected.outsourced_table.column_values("ssn")
        assert set(raw).isdisjoint(outsourced)
        # Traceability (Section 4.2.3): the owner can map tokens back.
        claim = framework.owner_claim(protected.registered_statistic)
        from repro.crypto.cipher import FieldEncryptor

        encryptor = FieldEncryptor(claim.encryption_key)
        assert [encryptor.decrypt(token) for token in outsourced[:20]] == raw[:20]

    def test_seamlessness(self, pipeline):
        _, _, protected = pipeline
        report = seamlessness_report(protected.binned, protected.watermarked)
        assert not report.any_bin_below_k
        assert sum(column.bins_changed for column in report.columns) > 0


class TestOwnershipUnderAttack:
    def test_mark_survives_each_attack_type(self, pipeline):
        _, framework, protected = pipeline
        attacks = [
            SubsetAlterationAttack(0.3, seed=1),
            SubsetAdditionAttack(0.5, seed=2),
            SubsetDeletionAttack(0.4, seed=3),
            GeneralizationAttack(levels=1),
        ]
        for attack in attacks:
            attacked = attack.run(protected.watermarked).attacked
            loss = framework.mark_loss(attacked, protected.mark)
            assert loss <= 0.35, type(attack).__name__

    def test_mark_survives_stacked_attacks(self, pipeline):
        _, framework, protected = pipeline
        stage1 = GeneralizationAttack(levels=1).run(protected.watermarked).attacked
        stage2 = SubsetDeletionAttack(0.25, seed=4).run(stage1).attacked
        stage3 = SubsetAdditionAttack(0.25, seed=5).run(stage2).attacked
        loss = framework.mark_loss(stage3, protected.mark)
        assert loss <= 0.35

    def test_dispute_after_attack_still_resolves_for_owner(self, pipeline):
        _, framework, protected = pipeline
        # The data thief republishes an attacked copy with their own mark on top.
        stolen = SubsetAlterationAttack(0.15, seed=6).run(protected.watermarked).attacked
        attack = AdditiveMarkAttack(seed=7, eta=40, copies=4)
        result = attack.run(stolen, 20)
        owner = framework.owner_claim(protected.registered_statistic, "hospital")
        verdict = framework.resolve_dispute(result.attack.attacked, [owner, result.attacker_claim])
        assert verdict.winner == "hospital"


class TestReproducibility:
    def test_whole_pipeline_is_deterministic(self):
        def run_once():
            table = generate_medical_table(size=600, seed=7)
            trees = dict(standard_ontology().items())
            framework = ProtectionFramework(
                trees,
                UsageMetrics.uniform_depth(trees, 1),
                KAnonymitySpec(k=8, mode=EnforcementMode.MONO),
                encryption_key="det-key",
                watermark_secret="det-secret",
                eta=20,
            )
            protected = framework.protect(table)
            return protected.outsourced_table, protected.mark

        table_a, mark_a = run_once()
        table_b, mark_b = run_once()
        assert mark_a == mark_b
        assert table_a == table_b
