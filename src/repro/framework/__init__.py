"""The unified protection framework (Figure 2) and its seamlessness analysis."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ProtectionFramework": ".pipeline",
        "ProtectedData": ".pipeline",
        "pr_minus": ".analysis",
        "pr_plus": ".analysis",
        "suggest_epsilon": ".analysis",
        "seamlessness_report": ".analysis",
        "SeamlessnessReport": ".analysis",
        "SeamlessnessColumnReport": ".analysis",
        "watermarking_information_loss": ".analysis",
    },
)
