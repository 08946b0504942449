"""Experiment drivers — one per table/figure of the paper's evaluation.

Each driver is a plain function that builds the workload, runs the relevant
part of the framework and returns the data series the paper plots.  The
``benchmarks/`` suite wraps these functions with ``pytest-benchmark`` (one
benchmark per figure), the examples reuse them for narrative output, and
``python -m repro.experiments`` runs the whole evaluation and prints every
table in one go.

The drivers take a :class:`~repro.experiments.config.ExperimentConfig` so the
same code can run at paper scale (20 000 tuples) or at the smaller sizes used
for quick benchmark iterations.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ExperimentConfig": ".config",
        "ProtectedWorkload": ".config",
        "build_workload": ".config",
        "run_fig11": ".fig11",
        "Fig11Point": ".fig11",
        "run_fig12a": ".fig12",
        "run_fig12b": ".fig12",
        "run_fig12c": ".fig12",
        "Fig12Point": ".fig12",
        "run_fig13": ".fig13",
        "Fig13Point": ".fig13",
        "run_fig14": ".fig14",
        "run_generalization_attack_ablation": ".ablations",
        "run_ownership_ablation": ".ablations",
        "run_binning_strategy_ablation": ".ablations",
        "run_lsb_ablation": ".ablations",
        "run_seamlessness_theory_check": ".ablations",
    },
)
