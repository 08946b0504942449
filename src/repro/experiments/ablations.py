"""Ablation experiments for claims made outside the numbered figures.

* the generalization attack destroys the single-level scheme but not the
  hierarchical one (Section 5.2/5.3),
* the rightful-ownership protocol rules for the true owner under Attacks 1
  and 2 (Section 5.4),
* Lemmas 1–2 match a Monte-Carlo simulation of the embedding primitive
  (Section 6),
* downward binning versus the classical upward (Datafly-style) baseline
  (Section 4.2.1's efficiency/quality discussion),
* LSB watermarking of numeric data collapses under trivial bit flipping,
  which motivates permutation-based embedding (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.attacks.generalization_attack import GeneralizationAttack
from repro.attacks.ownership_attacks import AdditiveMarkAttack, SubtractiveMarkAttack
from repro.binning.baseline_datafly import DataflyBinner
from repro.binning.binner import BinningAgent
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.crypto.prng import DeterministicPRNG
from repro.datagen.medical import generate_medical_table
from repro.experiments.config import ExperimentConfig, build_workload, standard_trees
from repro.framework.analysis import pr_minus, pr_plus
from repro.metrics.usage_metrics import UsageMetrics
from repro.watermarking.baseline_lsb import LSBWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import mark_loss
from repro.watermarking.single_level import SingleLevelWatermarker

__all__ = [
    "GeneralizationAttackAblation",
    "run_generalization_attack_ablation",
    "OwnershipAblation",
    "run_ownership_ablation",
    "BinningStrategyPoint",
    "run_binning_strategy_ablation",
    "LSBAblation",
    "run_lsb_ablation",
    "SeamlessnessTheoryPoint",
    "run_seamlessness_theory_check",
]


# --------------------------------------------------------------------------- §5.2/§5.3
@dataclass(frozen=True)
class GeneralizationAttackAblation:
    """Mark loss of both schemes under the generalization attack."""

    levels: int
    hierarchical_mark_loss: float
    single_level_mark_loss: float


def run_generalization_attack_ablation(
    config: ExperimentConfig | None = None,
    *,
    levels: Sequence[int] = (1, 2),
) -> list[GeneralizationAttackAblation]:
    """Hierarchical vs single-level watermarking under the generalization attack."""
    config = config or ExperimentConfig()
    workload = build_workload(config)
    protected = workload.protected

    single_key = WatermarkKey.from_secret(config.watermark_secret + "-single-level", config.eta)
    single = SingleLevelWatermarker(single_key, copies=config.effective_copies())
    single_embedding = single.embed(protected.binned, protected.mark)

    results: list[GeneralizationAttackAblation] = []
    for level in levels:
        attack = GeneralizationAttack(levels=level)
        attacked_hier = attack.run(protected.watermarked).attacked
        attacked_single = attack.run(single_embedding.watermarked).attacked
        results.append(
            GeneralizationAttackAblation(
                levels=level,
                hierarchical_mark_loss=mark_loss(
                    protected.mark, workload.framework.detect(attacked_hier).mark
                ),
                single_level_mark_loss=mark_loss(
                    protected.mark, single.detect(attacked_single, config.mark_length).mark
                ),
            )
        )
    return results


# ------------------------------------------------------------------------------- §5.4
@dataclass(frozen=True)
class OwnershipAblation:
    """Dispute outcomes under the two rightful-ownership attacks."""

    attack: str
    owner_valid: bool
    attacker_valid: bool
    winner: str | None


def run_ownership_ablation(config: ExperimentConfig | None = None) -> list[OwnershipAblation]:
    """Resolve disputes after Attack 1 (additive) and Attack 2 (subtractive)."""
    config = config or ExperimentConfig()
    workload = build_workload(config)
    framework = workload.framework
    protected = workload.protected
    owner_claim = framework.owner_claim(protected.registered_statistic, "hospital")

    outcomes: list[OwnershipAblation] = []

    additive = AdditiveMarkAttack(seed=("ownership", 1), eta=config.eta, copies=config.effective_copies())
    additive_result = additive.run(protected.watermarked, config.mark_length)
    verdict = framework.resolve_dispute(
        additive_result.attack.attacked, [owner_claim, additive_result.attacker_claim]
    )
    outcomes.append(
        OwnershipAblation(
            attack="additive (Attack 1)",
            owner_valid="hospital" in verdict.valid_claimants,
            attacker_valid=additive_result.attacker_claim.claimant in verdict.valid_claimants,
            winner=verdict.winner,
        )
    )

    subtractive = SubtractiveMarkAttack(seed=("ownership", 2), eta=config.eta, copies=config.effective_copies())
    subtractive_result = subtractive.run(protected.watermarked, config.mark_length)
    # In Attack 2 the disputed table is the owner's published table; the
    # attacker only fabricates a bogus original to back their claim.
    verdict = framework.resolve_dispute(
        protected.watermarked, [owner_claim, subtractive_result.attacker_claim]
    )
    outcomes.append(
        OwnershipAblation(
            attack="subtractive (Attack 2)",
            owner_valid="hospital" in verdict.valid_claimants,
            attacker_valid=subtractive_result.attacker_claim.claimant in verdict.valid_claimants,
            winner=verdict.winner,
        )
    )
    return outcomes


# --------------------------------------------------------------------------- §4.2.1
@dataclass(frozen=True)
class BinningStrategyPoint:
    """Downward binning vs the upward Datafly baseline at one value of k."""

    k: int
    downward_information_loss: float
    datafly_information_loss: float
    datafly_steps: int


def run_binning_strategy_ablation(
    config: ExperimentConfig | None = None,
    *,
    k_values: Sequence[int] = (10, 20, 45, 100),
) -> list[BinningStrategyPoint]:
    """Compare the paper's downward binning with upward full-domain generalization."""
    config = config or ExperimentConfig()
    table = generate_medical_table(size=config.table_size, seed=config.seed)
    trees = standard_trees()
    metrics = UsageMetrics.uniform_depth(trees, config.metrics_depth)

    points: list[BinningStrategyPoint] = []
    for k in k_values:
        spec = KAnonymitySpec(k=k, mode=EnforcementMode.MONO)
        downward = BinningAgent(trees, metrics, spec, config.encryption_key).bin(table)
        datafly = DataflyBinner(trees, spec).bin(table)
        points.append(
            BinningStrategyPoint(
                k=k,
                downward_information_loss=downward.normalized_information_loss,
                datafly_information_loss=datafly.normalized_information_loss,
                datafly_steps=datafly.steps,
            )
        )
    return points


# ------------------------------------------------------------------------------ §2
@dataclass(frozen=True)
class LSBAblation:
    """LSB baseline vs hierarchical scheme under their cheapest damaging attacks."""

    lsb_match_rate_clean: float
    lsb_match_rate_after_flip: float
    lsb_survives_flip: bool
    hierarchical_loss_after_generalization: float


def run_lsb_ablation(config: ExperimentConfig | None = None) -> LSBAblation:
    """Show why LSB embedding is fragile while hierarchical permutation is not."""
    config = config or ExperimentConfig()
    table = generate_medical_table(size=config.table_size, seed=config.seed)
    key = WatermarkKey.from_secret(config.watermark_secret + "-lsb", max(2, config.eta // 10))
    lsb = LSBWatermarker(key, columns=("age",), ident_column="ssn", xi=2)
    marked = lsb.embed(table)
    clean = lsb.detect(marked)

    # The trivial attack: flip every least significant bit of the marked column.
    rng = DeterministicPRNG(("lsb-flip", config.seed))
    flipped = marked.copy()
    for row in flipped:
        if isinstance(row["age"], int):
            row["age"] = row["age"] ^ 1 if rng.random() < 0.95 else row["age"]
    attacked = lsb.detect(flipped)

    workload = build_workload(config)
    gen_attacked = GeneralizationAttack(levels=1).run(workload.protected.watermarked).attacked
    hier_loss = mark_loss(workload.protected.mark, workload.framework.detect(gen_attacked).mark)

    return LSBAblation(
        lsb_match_rate_clean=clean.match_rate,
        lsb_match_rate_after_flip=attacked.match_rate,
        lsb_survives_flip=attacked.mark_present,
        hierarchical_loss_after_generalization=hier_loss,
    )


# ------------------------------------------------------------------------------ §6
@dataclass(frozen=True)
class SeamlessnessTheoryPoint:
    """Lemmas 1–2 against a Monte-Carlo simulation of one bit-embedding."""

    n_k: int
    group_sizes: tuple[int, ...]
    pr_minus_theory: float
    pr_plus_theory: float
    pr_minus_simulated: float
    pr_plus_simulated: float


def run_seamlessness_theory_check(
    *,
    group_sizes: Sequence[int] = (4, 3, 5),
    n_k: int = 4,
    trials: int = 20_000,
    seed: object = 0,
) -> SeamlessnessTheoryPoint:
    """Monte-Carlo check of Lemmas 1 and 2 under the paper's two assumptions.

    ``group_sizes`` lists, per maximal generalization node, how many ultimate
    generalization nodes it covers; the simulated embedding picks a uniform
    tuple (assumption i: equal bin sizes) and a uniform target node among the
    group (assumption ii), and we count how often the watched bin shrinks or
    grows.
    """
    if n_k not in group_sizes:
        raise ValueError("n_k must be one of the group sizes")
    rng = DeterministicPRNG(("seamlessness-theory", seed))
    total_bins = sum(group_sizes)
    # The watched bin is the first ultimate node of the group with size n_k.
    group_start = 0
    for size in group_sizes:
        if size == n_k:
            break
        group_start += size
    watched = group_start

    shrink = 0
    grow = 0
    for _ in range(trials):
        source_bin = rng.randint(0, total_bins - 1)
        # Which group does the source bin belong to?
        cumulative = 0
        for size in group_sizes:
            if source_bin < cumulative + size:
                group_size, group_offset = size, cumulative
                break
            cumulative += size
        target_bin = group_offset + rng.randint(0, group_size - 1)
        if source_bin == watched and target_bin != watched:
            shrink += 1
        if source_bin != watched and target_bin == watched:
            grow += 1
    return SeamlessnessTheoryPoint(
        n_k=n_k,
        group_sizes=tuple(group_sizes),
        pr_minus_theory=pr_minus(n_k, list(group_sizes)),
        pr_plus_theory=pr_plus(n_k, list(group_sizes)),
        pr_minus_simulated=shrink / trials,
        pr_plus_simulated=grow / trials,
    )
