"""Minimal in-memory relational layer.

The paper operates on a single relational table with three kinds of columns
(Section 2):

* **identifying** columns that directly identify an individual (SSN),
* **quasi-identifying** columns that can be linked with external data sets to
  re-identify individuals (age, zip code, ...), and
* **other** columns carrying no identifying information.

The framework needs only a small slice of relational functionality: a typed
schema, a column-stored table with insert/delete/update, projections,
group-by counting (for bin sizes) and the range-delete used by the
Subset-Deletion attack of the evaluation
(``DELETE FROM R WHERE SSN > lval AND SSN < uval``).  This package provides
exactly that, with no external dependencies, so the rest of the library can
treat "the database" as a plain Python object.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "Column": ".schema",
        "ColumnKind": ".schema",
        "ColumnType": ".schema",
        "TableSchema": ".schema",
        "Row": ".table",
        "Table": ".table",
        "ColumnRow": ".table",
        "ColumnStore": ".table",
        "TypedColumn": ".table",
        "select_where": ".query",
        "delete_where": ".query",
        "project": ".query",
        "group_by_count": ".query",
        "equals": ".query",
        "in_range": ".query",
    },
)
