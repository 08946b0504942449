"""Run the full evaluation and print every table/figure as text.

Usage::

    python -m repro.experiments [--size N] [--quick]

``--quick`` runs at a reduced table size and with coarser sweeps so the whole
evaluation finishes in well under a minute; the default reproduces the paper's
20 000-tuple setting.
"""

from __future__ import annotations

import argparse
import time

from repro.experiments.ablations import (
    run_binning_strategy_ablation,
    run_generalization_attack_ablation,
    run_lsb_ablation,
    run_ownership_ablation,
    run_seamlessness_theory_check,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12a, run_fig12b, run_fig12c
from repro.experiments.fig13 import run_fig13
from repro.experiments.fig14 import run_fig14


def _print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def _print_fig12(points, label: str) -> None:
    etas = sorted({point.eta for point in points})
    fractions = sorted({point.fraction for point in points})
    print(f"{label:>12} | " + " | ".join(f"eta={eta:>3}" for eta in etas))
    for fraction in fractions:
        row = [f"{fraction:>11.0%} "]
        for eta in etas:
            match = next(p for p in points if p.eta == eta and abs(p.fraction - fraction) < 1e-9)
            row.append(f"{match.mark_loss:>7.1%}")
        print(" | ".join(row))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=20_000, help="table size (default 20000)")
    parser.add_argument("--quick", action="store_true", help="smaller size and coarser sweeps")
    parser.add_argument("--seed", type=int, default=2005, help="data-generation seed")
    args = parser.parse_args(argv)

    size = 4_000 if args.quick else args.size
    config = ExperimentConfig(table_size=size, seed=args.seed)
    fractions = (0.0, 0.2, 0.4, 0.6, 0.8) if args.quick else (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    k_values_fig11 = (2, 10, 50, 150, 350) if args.quick else (2, 5, 10, 25, 50, 100, 150, 200, 250, 300, 350)

    started = time.time()
    print(f"repro evaluation — table size {size}, seed {args.seed}")

    _print_header("Figure 11 — k vs information loss (mono vs multi-attribute binning)")
    for point in run_fig11(config, k_values=k_values_fig11):
        fallback = " (greedy)" if point.multi_used_fallback else ""
        print(
            f"k={point.k:>4}  mono={point.mono_information_loss:>6.1%}  "
            f"multi={point.multi_information_loss:>6.1%}{fallback}"
        )

    _print_header("Figure 12(a) — mark loss under Subset Alteration")
    _print_fig12(run_fig12a(config, fractions=fractions), "altered")

    _print_header("Figure 12(b) — mark loss under Subset Addition")
    _print_fig12(run_fig12b(config, fractions=fractions), "added")

    _print_header("Figure 12(c) — mark loss under Subset Deletion")
    _print_fig12(run_fig12c(config, fractions=fractions), "deleted")

    _print_header("Figure 13 — information loss of watermarking vs eta")
    for point in run_fig13(config):
        print(
            f"eta={point.eta:>4}  info loss={point.information_loss:>6.2%}  "
            f"cells changed={point.cells_changed}"
        )

    _print_header("Figure 14 — effect of watermarking on binning (total/changed/<k)")
    for report in run_fig14(config):
        print(f"k={report.k}:")
        for column, total, changed, below in report.as_rows():
            print(f"    {column:>14}: {total:>4} bins, {changed:>4} changed, {below:>2} below k")

    _print_header("Ablation — generalization attack: hierarchical vs single-level")
    for row in run_generalization_attack_ablation(config):
        print(
            f"levels={row.levels}  hierarchical loss={row.hierarchical_mark_loss:>6.1%}  "
            f"single-level loss={row.single_level_mark_loss:>6.1%}"
        )

    _print_header("Ablation — rightful-ownership disputes")
    for row in run_ownership_ablation(config):
        print(
            f"{row.attack:<24} owner valid={row.owner_valid}  attacker valid={row.attacker_valid}  "
            f"winner={row.winner}"
        )

    _print_header("Ablation — downward binning vs Datafly (upward) baseline")
    for row in run_binning_strategy_ablation(config):
        print(
            f"k={row.k:>4}  downward loss={row.downward_information_loss:>6.1%}  "
            f"datafly loss={row.datafly_information_loss:>6.1%}  (datafly steps={row.datafly_steps})"
        )

    _print_header("Ablation — LSB baseline fragility")
    lsb = run_lsb_ablation(config)
    print(
        f"LSB match rate clean={lsb.lsb_match_rate_clean:.1%}, after LSB flipping="
        f"{lsb.lsb_match_rate_after_flip:.1%} (mark present: {lsb.lsb_survives_flip}); "
        f"hierarchical loss after generalization attack={lsb.hierarchical_loss_after_generalization:.1%}"
    )

    _print_header("Ablation — Lemmas 1-2 vs Monte-Carlo")
    theory = run_seamlessness_theory_check()
    print(
        f"groups={theory.group_sizes}, n_k={theory.n_k}: "
        f"Pr- theory={theory.pr_minus_theory:.4f} sim={theory.pr_minus_simulated:.4f}; "
        f"Pr+ theory={theory.pr_plus_theory:.4f} sim={theory.pr_plus_simulated:.4f}"
    )

    print()
    print(f"total wall time: {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
