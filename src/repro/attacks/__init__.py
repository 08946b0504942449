"""Attack simulators used in the robustness evaluation (Sections 5 and 7.2).

Every attacker operates on a *copy* of the outsourced (binned and
watermarked) table, does not know the secret watermarking key, and tries
either to destroy the embedded mark while keeping the data useful or to
confuse the ownership resolution:

* :class:`SubsetAlterationAttack` — alter a random fraction of the tuples
  arbitrarily (Figure 12a),
* :class:`SubsetAdditionAttack` — add bogus tuples (Figure 12b),
* :class:`SubsetDeletionAttack` — delete tuples, by identifier ranges as in
  the paper's SQL clause or at random (Figure 12c),
* :class:`GeneralizationAttack` — generalise every value one or more levels
  up the hierarchy, the attack specific to binned data (Section 5.2),
* :mod:`repro.attacks.ownership_attacks` — the additive (Attack 1) and
  subtractive (Attack 2) rightful-ownership attacks (Section 5.4).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "AttackResult": ".base",
        "SubsetAlterationAttack": ".alteration",
        "SubsetAdditionAttack": ".addition",
        "SubsetDeletionAttack": ".deletion",
        "GeneralizationAttack": ".generalization_attack",
        "AdditiveMarkAttack": ".ownership_attacks",
        "SubtractiveMarkAttack": ".ownership_attacks",
    },
)
