"""Tests for the rightful-ownership protocol (Section 5.4)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.watermarking.mark import Mark
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.ownership import (
    DisputeVerdict,
    OwnershipClaim,
    OwnershipRegistry,
    identifier_statistic,
    identifier_total,
)

#: Identifier cells as a suspect column holds them: digit strings (leading
#: zeros included) mixed with text the statistic must skip.
NOISE = st.sampled_from(["", "x", "12a", " 7", "-3", "1.5"])


def _float_mean(clear) -> float:
    """The statistic as the seed accumulated it: float by float, in order."""
    values = [float(int(text)) for text in clear if text.isdigit()]
    return sum(values) / len(values)


class TestIdentifierStatistic:
    def test_mean_of_numeric_identifiers(self):
        assert identifier_statistic(["100", "200", "300"]) == pytest.approx(200.0)

    def test_non_numeric_entries_ignored(self):
        assert identifier_statistic(["100", "garbage", "300"]) == pytest.approx(200.0)

    def test_all_garbage_raises(self):
        with pytest.raises(ValueError):
            identifier_statistic(["x", "y", ""])


class TestExactStatistic:
    """``v`` is an exact int total over a count, divided once."""

    @given(
        st.lists(
            st.one_of(st.integers(0, 10**12).map(str), st.integers(0, 999).map("{:09d}".format), NOISE),
            min_size=1,
            max_size=200,
        ).filter(lambda cells: any(cell.isdigit() for cell in cells))
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_float_mean_below_2_53(self, cells):
        # Every running sum stays below 2**53 (200 values of at most 1e12),
        # where float accumulation is exact: the registered statistic — and
        # with it the mark F(v) and every protect output — is unchanged.
        assert identifier_statistic(cells) == _float_mean(cells)
        registry = OwnershipRegistry()
        assert registry.derive_mark(cells)[1] == registry.mark_for_statistic(_float_mean(cells))

    @given(st.lists(st.integers(2**53, 10**30), min_size=1, max_size=60), st.data())
    @settings(max_examples=200, deadline=None)
    def test_is_the_exact_mean_rounded_once_above_2_53(self, values, data):
        cells = [str(value) for value in values]
        total, count = identifier_total(cells)
        assert (total, count) == (sum(values), len(values))
        assert identifier_statistic(cells) == float(Fraction(sum(values), len(values)))
        # Partial totals merge in any order: the chunking of a streamed
        # dispute cannot move the statistic.
        cut = data.draw(st.integers(0, len(cells)))
        head, tail = identifier_total(cells[:cut]), identifier_total(cells[cut:])
        assert (head[0] + tail[0], head[1] + tail[1]) == (total, count)


class TestRegistryConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError):
            OwnershipRegistry(mark_length=0)
        with pytest.raises(ValueError):
            OwnershipRegistry(tau=0)
        with pytest.raises(ValueError):
            OwnershipRegistry(max_bit_errors=-1)

    def test_derive_mark(self, medium_table):
        registry = OwnershipRegistry(mark_length=20)
        statistic, mark = registry.derive_mark(medium_table.column_values("ssn"))
        assert isinstance(mark, Mark)
        assert len(mark) == 20
        assert statistic > 0
        # Deterministic.
        assert registry.derive_mark(medium_table.column_values("ssn")) == (statistic, mark)

    def test_dispute_requires_claims(self, protected_small):
        with pytest.raises(ValueError):
            OwnershipRegistry().resolve_dispute(protected_small.watermarked, [])


class TestDisputeResolution:
    def test_owner_claim_is_valid_on_own_table(self, protection_framework, protected_small):
        claim = protection_framework.owner_claim("hospital")
        verdict = protection_framework.resolve_dispute(protected_small.watermarked, [claim])
        assert isinstance(verdict, DisputeVerdict)
        assert verdict.valid_claimants == ["hospital"]
        assert verdict.winner == "hospital"
        assessment = verdict.assessments[0]
        assert assessment.decryption_ok and assessment.statistic_ok and assessment.mark_matches
        assert assessment.mark_bit_errors == 0
        assert assessment.recomputed_statistic == pytest.approx(
            protected_small.registered_statistic, abs=1.0
        )

    def test_owner_claim_carries_the_mark_code(self, protection_framework, protected_small):
        claim = protection_framework.owner_claim()
        assert claim.code == "repetition"

    def test_interleaved_protection_wins_its_dispute(self, trees, depth1_metrics, medium_table):
        # Regression: assess_claim used to rebuild its detection watermarker
        # without the claim's code, so interleaved-encoded marks were decoded
        # as repetition and the owner's own claim failed.
        from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
        from repro.framework.pipeline import ProtectionFramework

        framework = ProtectionFramework(
            trees,
            depth1_metrics,
            KAnonymitySpec(k=10, mode=EnforcementMode.MONO, epsilon=5),
            encryption_key="test-encryption-key",
            watermark_secret="test-watermark-secret",
            eta=25,
            mark_length=20,
            copies=6,
            code="interleaved",
        )
        protected = framework.protect(medium_table)
        claim = framework.owner_claim()
        assert claim.code == "interleaved"
        verdict = framework.resolve_dispute(protected.watermarked, [claim])
        assert verdict.winner == "owner"
        assert verdict.assessments[0].mark_bit_errors == 0

    def test_claim_with_wrong_encryption_key_fails(self, protection_framework, protected_small):
        owner = protection_framework.owner_claim("hospital")
        impostor = OwnershipClaim(
            claimant="impostor",
            registered_statistic=owner.registered_statistic,
            mark=owner.mark,
            watermark_key=owner.watermark_key,
            encryption_key="not-the-owner-key",
            copies=owner.copies,
        )
        verdict = protection_framework.resolve_dispute(protected_small.watermarked, [impostor])
        assert verdict.winner is None
        assessment = verdict.assessments[0]
        assert not (assessment.decryption_ok and assessment.statistic_ok)

    def test_claim_with_wrong_watermark_key_fails(self, protection_framework, protected_small):
        owner = protection_framework.owner_claim("hospital")
        impostor = OwnershipClaim(
            claimant="impostor",
            registered_statistic=owner.registered_statistic,
            mark=owner.mark,
            watermark_key=WatermarkKey.from_secret("some-other-secret", 25),
            encryption_key=owner.encryption_key,
            copies=owner.copies,
        )
        verdict = protection_framework.resolve_dispute(protected_small.watermarked, [impostor])
        assert "impostor" not in verdict.valid_claimants

    def test_claim_with_fabricated_statistic_fails(self, protection_framework, protected_small):
        owner = protection_framework.owner_claim("hospital")
        fabricated = OwnershipClaim(
            claimant="fabricator",
            registered_statistic=owner.registered_statistic + 1e9,
            mark=Mark.from_statistic(owner.registered_statistic + 1e9, 20, precision=1e6),
            watermark_key=owner.watermark_key,
            encryption_key=owner.encryption_key,
            copies=owner.copies,
        )
        verdict = protection_framework.resolve_dispute(protected_small.watermarked, [fabricated])
        assert "fabricator" not in verdict.valid_claimants

    def test_winner_none_when_two_claims_valid(self, protection_framework, protected_small):
        owner = protection_framework.owner_claim("hospital")
        duplicate = OwnershipClaim(
            claimant="hospital-twin",
            registered_statistic=owner.registered_statistic,
            mark=owner.mark,
            watermark_key=owner.watermark_key,
            encryption_key=owner.encryption_key,
            copies=owner.copies,
        )
        verdict = protection_framework.resolve_dispute(protected_small.watermarked, [owner, duplicate])
        assert set(verdict.valid_claimants) == {"hospital", "hospital-twin"}
        assert verdict.winner is None
