"""Tests for the rightful-ownership attacks (Figure 10)."""

import pytest

from repro.attacks.ownership_attacks import AdditiveMarkAttack, SubtractiveMarkAttack
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.mark import mark_loss


class TestAdditiveMarkAttack:
    def test_both_marks_detectable_after_attack(self, protection_framework, protected_small):
        """Attack 1 creates the ambiguity the dispute protocol must resolve."""
        attack = AdditiveMarkAttack(seed=1, eta=25, copies=4)
        result = attack.run(protected_small.watermarked, 20)
        # The owner's mark survives the attacker's embedding...
        owner_loss = protection_framework.mark_loss(result.attack.attacked, protected_small.mark)
        assert owner_loss <= 0.15
        # ...and the attacker's mark is present under the attacker's key.
        attacker_detector = HierarchicalWatermarker(result.attacker_key, copies=4)
        attacker_loss = mark_loss(
            result.attacker_mark, attacker_detector.detect(result.attack.attacked, 20).mark
        )
        assert attacker_loss <= 0.15

    def test_dispute_resolves_for_owner(self, protection_framework, protected_small):
        attack = AdditiveMarkAttack(seed=2, eta=25, copies=4)
        result = attack.run(protected_small.watermarked, 20)
        owner_claim = protection_framework.owner_claim(protected_small.registered_statistic, "hospital")
        verdict = protection_framework.resolve_dispute(
            result.attack.attacked, [owner_claim, result.attacker_claim]
        )
        assert verdict.winner == "hospital"
        assert result.attacker_claim.claimant not in verdict.valid_claimants

    def test_attack_result_metadata(self, protected_small):
        result = AdditiveMarkAttack(seed=3, eta=25).run(protected_small.watermarked, 20)
        assert result.attack.rows_touched > 0
        assert "Attack 1" in result.attack.description
        assert result.attacker_claim.claimant == "attacker"

    def test_deterministic(self, protected_small):
        a = AdditiveMarkAttack(seed=7, eta=25).run(protected_small.watermarked, 20)
        b = AdditiveMarkAttack(seed=7, eta=25).run(protected_small.watermarked, 20)
        assert a.attacker_mark == b.attacker_mark
        assert a.attack.attacked.table == b.attack.attacked.table


class TestSubtractiveMarkAttack:
    def test_dispute_over_published_table_resolves_for_owner(
        self, protection_framework, protected_small
    ):
        attack = SubtractiveMarkAttack(seed=4, eta=25, copies=4)
        result = attack.run(protected_small.watermarked, 20)
        owner_claim = protection_framework.owner_claim(protected_small.registered_statistic, "hospital")
        verdict = protection_framework.resolve_dispute(
            protected_small.watermarked, [owner_claim, result.attacker_claim]
        )
        assert verdict.winner == "hospital"

    def test_bogus_original_differs_from_published_table(self, protected_small):
        result = SubtractiveMarkAttack(seed=5, eta=25).run(protected_small.watermarked, 20)
        assert result.attack.attacked.table != protected_small.watermarked.table

    def test_attacker_cannot_decrypt_identifiers(self, protection_framework, protected_small):
        result = SubtractiveMarkAttack(seed=6, eta=25).run(protected_small.watermarked, 20)
        assessment = protection_framework.registry.assess_claim(
            protected_small.watermarked, result.attacker_claim
        )
        assert not assessment.valid
        assert not (assessment.decryption_ok and assessment.statistic_ok)
