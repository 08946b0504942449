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
"""

from repro.binning import (
    BinnedTable,
    BinningAgent,
    BinningError,
    BinningResult,
    DataflyBinner,
    Generalization,
    KAnonymitySpec,
    MultiColumnGeneralization,
    NotBinnableError,
)
from repro.binning.kanonymity import EnforcementMode
from repro.datagen import MedicalDataGenerator, generate_medical_table
from repro.dht import DomainHierarchyTree, Interval, binary_numeric_tree, from_nested_mapping
from repro.experiments import ExperimentConfig, build_workload
from repro.framework import (
    ProtectedData,
    ProtectionFramework,
    seamlessness_report,
    watermarking_information_loss,
)
from repro.metrics import InformationLossBounds, UsageMetrics
from repro.ontology import standard_ontology
from repro.relational import Column, ColumnKind, ColumnType, Table, TableSchema
from repro.relational.schema import medical_schema
from repro.watermarking import (
    HierarchicalWatermarker,
    LSBWatermarker,
    Mark,
    OwnershipClaim,
    OwnershipRegistry,
    SingleLevelWatermarker,
    WatermarkKey,
    mark_loss,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # relational table
    "Table",
    "TableSchema",
    "Column",
    "ColumnKind",
    "ColumnType",
    "medical_schema",
    # domain hierarchy trees and ontologies
    "DomainHierarchyTree",
    "Interval",
    "from_nested_mapping",
    "binary_numeric_tree",
    "standard_ontology",
    # data generation
    "MedicalDataGenerator",
    "generate_medical_table",
    # metrics
    "UsageMetrics",
    "InformationLossBounds",
    # binning
    "KAnonymitySpec",
    "EnforcementMode",
    "BinningAgent",
    "BinningResult",
    "BinnedTable",
    "Generalization",
    "MultiColumnGeneralization",
    "DataflyBinner",
    "BinningError",
    "NotBinnableError",
    # watermarking
    "WatermarkKey",
    "Mark",
    "mark_loss",
    "HierarchicalWatermarker",
    "SingleLevelWatermarker",
    "LSBWatermarker",
    "OwnershipRegistry",
    "OwnershipClaim",
    # framework
    "ProtectionFramework",
    "ProtectedData",
    "seamlessness_report",
    "watermarking_information_loss",
    # experiments
    "ExperimentConfig",
    "build_workload",
]
