"""Watermarking of binned relational data (Section 5).

After binning, the quasi-identifying columns are categorical and the only way
to modify them is to *permute* values among sibling nodes of the domain
hierarchy tree.  Because the usage metrics leave a gap between the ultimate
generalization nodes (what binning produced) and the maximal generalization
nodes (what the data usage tolerates), such permutations stay within the
allowed information loss — this gap is the watermark bandwidth (Section 5.1).

The package contains:

* :mod:`repro.watermarking.keys` — the secret watermarking key (k1, k2, η),
* :mod:`repro.watermarking.mark` — mark bit-strings, replication, majority
  voting and the mark-loss metric used in the evaluation,
* :mod:`repro.watermarking.ecc` — pluggable mark codes over the replication
  channel (repetition, soft-combining, interleaved block parity),
* :mod:`repro.watermarking.selection` — the keyed tuple selection of Eq. (5),
* :mod:`repro.watermarking.hierarchical` — the hierarchical scheme of
  Figure 9 (the paper's contribution),
* :mod:`repro.watermarking.single_level` — the single-level scheme of
  Section 5.2, vulnerable to the generalization attack (baseline),
* :mod:`repro.watermarking.baseline_lsb` — an Agrawal–Kiernan style LSB
  scheme for numeric columns (related-work baseline),
* :mod:`repro.watermarking.ownership` — the rightful-ownership protocol of
  Section 5.4.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "WatermarkKey": ".keys",
        "Mark": ".mark",
        "random_mark": ".mark",
        "replicate_mark": ".mark",
        "majority_vote": ".mark",
        "vote_margin": ".mark",
        "mark_loss": ".mark",
        "bits_to_string": ".mark",
        "string_to_bits": ".mark",
        "MarkCode": ".ecc",
        "DecodeResult": ".ecc",
        "RepetitionCode": ".ecc",
        "SoftRepetitionCode": ".ecc",
        "InterleavedBlockCode": ".ecc",
        "CODE_NAMES": ".ecc",
        "resolve_code": ".ecc",
        "code_to_wire": ".ecc",
        "code_from_wire": ".ecc",
        "is_selected": ".selection",
        "selected_row_indices": ".selection",
        "HierarchicalWatermarker": ".hierarchical",
        "EmbeddingReport": ".hierarchical",
        "DetectionReport": ".hierarchical",
        "SingleLevelWatermarker": ".single_level",
        "LSBWatermarker": ".baseline_lsb",
        "OwnershipRegistry": ".ownership",
        "OwnershipClaim": ".ownership",
        "DisputeVerdict": ".ownership",
    },
)
