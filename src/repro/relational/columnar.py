"""The columnar storage names, re-exported from :mod:`repro.relational.table`.

:class:`~repro.relational.table.Table` stores its rows column by column;
``ColumnarTable`` is the same class under the name it carried while a
list-of-dicts table existed beside it, kept so existing imports resolve.
"""

from repro.relational.table import (
    ColumnRow,
    ColumnStore,
    CsvParsePlan,
    Table,
    TypedColumn,
    chunk_record_line,
)

ColumnarTable = Table

__all__ = [
    "TypedColumn",
    "ColumnStore",
    "ColumnRow",
    "ColumnarTable",
    "CsvParsePlan",
    "chunk_record_line",
]
