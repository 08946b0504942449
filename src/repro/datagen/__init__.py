"""Synthetic medical data generation.

The paper's evaluation runs on a real clinical extract of roughly 20 000
tuples with schema ``R(ssn, age, zip_code, doctor, symptom, prescription)``
that is not publicly available.  This package generates a synthetic table with
the same schema, the same size, value domains drawn from the ontologies of
:mod:`repro.ontology`, skewed marginals (a few frequent diagnoses, a long tail
of rare ones) and a clinically plausible symptom→prescription correlation.

Binning and watermarking only consume the schema, the value→leaf mapping and
the empirical counts, so any non-degenerate table over the same domains
exercises exactly the code paths the paper measures.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "MedicalDataGenerator": ".medical",
        "generate_medical_table": ".medical",
        "FinancialDataGenerator": ".finance",
        "generate_financial_table": ".finance",
        "SkewedCategorical": ".distributions",
        "AgeMixture": ".distributions",
    },
)
