"""Binning: k-anonymity through downward generalization (Section 4).

The binning agent transforms the table to be outsourced so that no search over
the quasi-identifying columns can be narrowed down to fewer than *k*
individuals.  Its pieces:

* :mod:`repro.binning.generalization` — valid generalizations (cuts of a DHT)
  and their application to values, rows and tables,
* :mod:`repro.binning.kanonymity` — the k-anonymity specification and the
  row counts (per leaf, per leaf combination) every check reads,
* :mod:`repro.binning.mono` — mono-attribute downward binning (Figure 5),
* :mod:`repro.binning.multi` — multi-attribute binning (Figure 7),
* :mod:`repro.binning.binner` — the complete binning agent (Figure 8):
  encrypt identifying columns, generalise quasi-identifying ones,
* :mod:`repro.binning.baseline_datafly` — an upward full-domain generalization
  baseline (Datafly / Samarati–Sweeney style) used for comparison with the
  paper's downward approach.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "BinningError": ".errors",
        "NotBinnableError": ".errors",
        "Generalization": ".generalization",
        "MultiColumnGeneralization": ".generalization",
        "KAnonymitySpec": ".kanonymity",
        "ColumnIndex": ".kanonymity",
        "is_k_anonymous": ".kanonymity",
        "gen_min_nodes": ".mono",
        "allowable_generalizations": ".multi",
        "gen_ultimate_nodes": ".multi",
        "BinningAgent": ".binner",
        "BinningResult": ".binner",
        "BinnedTable": ".binner",
        "DataflyBinner": ".baseline_datafly",
    },
)
