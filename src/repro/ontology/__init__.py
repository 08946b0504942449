"""Concrete domain hierarchy trees for the medical schema of the paper.

The evaluation (Section 7) runs on a table with schema
``R(ssn, age, zip_code, doctor, symptom, prescription)``.  The paper builds a
DHT for every quasi-identifying column during a preprocessing step: an ICD-9
based hierarchy for ``symptom`` and self-defined ontologies for the others,
with a binary interval tree for ``age`` (Figure 3).

The clinical content of the original ontologies is not published, so this
package ships *ICD-9-style* and domain-plausible hierarchies of comparable
shape (fan-out, depth, leaf counts).  Only the shape matters to binning and
watermarking: both algorithms treat labels as opaque values.

:func:`standard_ontology` returns the full registry keyed by column name;
:func:`roles_tree` reproduces the illustrative Figure 1 hierarchy used in the
documentation and tests.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "age_tree": ".age",
        "zip_code_tree": ".geography",
        "doctor_tree": ".practitioners",
        "symptom_tree": ".icd9",
        "prescription_tree": ".drugs",
        "roles_tree": ".registry",
        "standard_ontology": ".registry",
        "financial_ontology": ".finance",
        "financial_schema": ".finance",
        "OntologyRegistry": ".registry",
    },
)
