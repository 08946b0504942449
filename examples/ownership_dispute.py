"""Rightful-ownership dispute: hospital vs. data thief in front of the judge.

The scenario of Section 5.4: a biotech reseller obtains the hospital's
outsourced table, embeds their *own* mark on top of it (Attack 1) and claims
they compiled the data themselves.  Both parties can point at "their" mark, so
mark presence alone settles nothing.  The dispute is resolved by the protocol
built on the encrypted identifying column:

* each claimant presents a registered statistic ``v`` and the keys backing it,
* the court recomputes the statistic from the decrypted identifiers — which
  only works with the true owner's encryption key,
* the extracted mark must equal the one-way image ``F(v)``.

Run with::

    python examples/ownership_dispute.py
"""

from __future__ import annotations

from repro import (
    KAnonymitySpec,
    ProtectionFramework,
    UsageMetrics,
    generate_medical_table,
    standard_ontology,
)
from repro.attacks import AdditiveMarkAttack, SubtractiveMarkAttack
from repro.binning.kanonymity import EnforcementMode
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.mark import mark_loss


def describe(verdict, owner_name: str, attacker_name: str) -> None:
    for assessment in verdict.assessments:
        status = "VALID" if assessment.valid else "rejected"
        print(
            f"    {assessment.claimant:<12} -> {status:<8} "
            f"(decryption {'ok' if assessment.decryption_ok else 'FAILED'}, "
            f"statistic {'ok' if assessment.statistic_ok else 'FAILED'}, "
            f"mark {'ok' if assessment.mark_matches else 'FAILED'})"
        )
    print(f"    court ruling: {verdict.winner or 'unresolved'}")


def main() -> None:
    print("Setting the scene: the hospital protects and outsources its table.")
    table = generate_medical_table(size=5_000, seed=2024)
    trees = dict(standard_ontology().items())
    hospital = ProtectionFramework(
        trees,
        UsageMetrics.uniform_depth(trees, depth=1),
        KAnonymitySpec(k=20, mode=EnforcementMode.MONO, epsilon=5),
        encryption_key="hospital-identifier-key",
        watermark_secret="hospital-watermark-key",
        eta=50,
    )
    protected = hospital.protect(table)
    owner_claim = hospital.owner_claim(protected.registered_statistic, "hospital")
    print(f"  registered statistic v = {protected.registered_statistic:,.0f}")
    print(f"  registered mark F(v)   = {protected.mark}")

    print()
    print("=" * 70)
    print("Attack 1 — the reseller stamps their own mark on the stolen table")
    print("=" * 70)
    additive = AdditiveMarkAttack(attacker="biotech-reseller", seed=1, eta=50)
    attack1 = additive.run(protected.watermarked, mark_length=20)
    # Both marks really are detectable — that is what makes the dispute hard.
    owner_loss = hospital.mark_loss(attack1.attack.attacked, protected.mark)
    reseller_loss = mark_loss(
        attack1.attacker_mark,
        HierarchicalWatermarker(attack1.attacker_key, copies=4).detect(attack1.attack.attacked, 20).mark,
    )
    print(f"  hospital mark still readable (loss {owner_loss:.0%}); reseller mark readable (loss {reseller_loss:.0%})")
    print("  the court assesses both claims:")
    verdict = hospital.resolve_dispute(attack1.attack.attacked, [owner_claim, attack1.attacker_claim])
    describe(verdict, "hospital", "biotech-reseller")

    print()
    print("=" * 70)
    print("Attack 2 — the reseller fabricates a bogus 'original' table")
    print("=" * 70)
    subtractive = SubtractiveMarkAttack(attacker="biotech-reseller", seed=2, eta=50)
    attack2 = subtractive.run(protected.watermarked, mark_length=20)
    print("  the dispute is over the hospital's published table; the reseller backs")
    print("  their claim with the fabricated original and a made-up statistic:")
    verdict = hospital.resolve_dispute(protected.watermarked, [owner_claim, attack2.attacker_claim])
    describe(verdict, "hospital", "biotech-reseller")

    print()
    print(
        "In both attacks the reseller fails the statistic check — they cannot decrypt\n"
        "the identifying column — so the hospital's is the only valid claim."
    )


if __name__ == "__main__":
    main()
