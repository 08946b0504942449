"""repro — reproduction of "Privacy and Ownership Preserving of Outsourced Medical Data".

Bertino, Ooi, Yang, Deng — ICDE 2005 (DOI 10.1109/ICDE.2005.111).

The library implements the paper's unified protection framework for
outsourced medical relations: k-anonymity **binning** along domain hierarchy
trees constrained by off-line usage metrics, followed by **hierarchical
watermarking** of the binned data, with a rightful-ownership protocol built on
the encrypted identifying columns.  Everything else the paper relies on — a
relational table engine, domain hierarchy trees, medical ontologies, a
synthetic clinical data generator and the cryptographic primitives — are
implemented here as well, so the package has no runtime dependencies.

Quickstart::

    from repro import (
        KAnonymitySpec, ProtectionFramework, UsageMetrics,
        generate_medical_table, standard_ontology,
    )

    table = generate_medical_table(size=5_000, seed=42)
    trees = dict(standard_ontology().items())
    framework = ProtectionFramework(
        trees,
        UsageMetrics.uniform_depth(trees, depth=1),
        KAnonymitySpec(k=20),
        encryption_key="hospital-secret",
        watermark_secret="hospital-watermark",
        eta=75,
    )
    protected = framework.protect(table)          # bin + watermark
    report = framework.detect(protected.watermarked)
    assert report.mark.bits == protected.mark.bits

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
reproduction of every table and figure of the paper's evaluation.

Every package re-exports its names lazily (:mod:`repro._exports`): a bare
``import repro`` loads no sub-package, and each name loads its defining
module on first use.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "Table": ".relational",
        "TableSchema": ".relational",
        "Column": ".relational",
        "ColumnKind": ".relational",
        "ColumnType": ".relational",
        "medical_schema": ".relational.schema",
        "DomainHierarchyTree": ".dht",
        "Interval": ".dht",
        "from_nested_mapping": ".dht",
        "binary_numeric_tree": ".dht",
        "standard_ontology": ".ontology",
        "MedicalDataGenerator": ".datagen",
        "generate_medical_table": ".datagen",
        "UsageMetrics": ".metrics",
        "InformationLossBounds": ".metrics",
        "KAnonymitySpec": ".binning",
        "EnforcementMode": ".binning.kanonymity",
        "BinningAgent": ".binning",
        "BinningResult": ".binning",
        "BinnedTable": ".binning",
        "Generalization": ".binning",
        "MultiColumnGeneralization": ".binning",
        "DataflyBinner": ".binning",
        "BinningError": ".binning",
        "NotBinnableError": ".binning",
        "WatermarkKey": ".watermarking",
        "Mark": ".watermarking",
        "mark_loss": ".watermarking",
        "HierarchicalWatermarker": ".watermarking",
        "SingleLevelWatermarker": ".watermarking",
        "LSBWatermarker": ".watermarking",
        "OwnershipRegistry": ".watermarking",
        "OwnershipClaim": ".watermarking",
        "ProtectionFramework": ".framework",
        "ProtectedData": ".framework",
        "seamlessness_report": ".framework",
        "watermarking_information_loss": ".framework",
        "ExperimentConfig": ".experiments",
        "build_workload": ".experiments",
    },
)
__all__.insert(0, "__version__")
