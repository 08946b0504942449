"""Usage metrics: information loss and its off-line enforcement.

Binning and watermarking both degrade data quality.  The paper bounds that
degradation with *usage metrics* (Section 4.1): per-column information-loss
bounds and an average bound (Equation 4), enforced **off-line** by compiling
them into a frontier of *maximal generalization nodes* per domain hierarchy
tree.  Binning may never generalise a value beyond its maximal generalization
node, which is what enables the downward binning of Section 4.2 and provides
the watermark bandwidth of Section 5.1.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "leaf_counts": ".information_loss",
        "categorical_cut_loss": ".information_loss",
        "numeric_cut_loss": ".information_loss",
        "column_information_loss": ".information_loss",
        "table_information_loss": ".information_loss",
        "total_information_loss": ".information_loss",
        "specificity_loss": ".information_loss",
        "InformationLossBounds": ".usage_metrics",
        "UsageMetrics": ".usage_metrics",
        "derive_maximal_nodes": ".usage_metrics",
        "frontier_at_depth": ".usage_metrics",
    },
)
