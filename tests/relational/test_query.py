"""Tests for the SQL-shaped queries the evaluation runs directly on a Table.

The paper's attacks and checks are plain SQL over the released relation,
most notably the Subset-Deletion range delete::

    DELETE FROM R WHERE SSN > lval AND SSN < uval

Each test writes one such statement as a row predicate over
:class:`~repro.relational.table.Table` and checks it selects, deletes or
counts the rows SQL would.
"""

import pytest

from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table


@pytest.fixture()
def table():
    schema = TableSchema(
        (
            Column("ssn", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
            Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
        )
    )
    return Table(schema, [{"ssn": f"{i:03d}", "age": 20 + i} for i in range(12)])


class TestPredicates:
    def test_equals(self, table):
        # SELECT * FROM R WHERE ssn = '003'
        selected = table.select(lambda row: row["ssn"] == "003")
        assert [(row["ssn"], row["age"]) for row in selected] == [("003", 23)]
        assert selected.schema == table.schema
        assert len(table.select(lambda row: row["ssn"] == "nope")) == 0
        assert len(table) == 12

    def test_in_range_exclusive(self, table):
        # SELECT * FROM R WHERE age > 22 AND age < 25: both bounds excluded.
        selected = table.select(lambda row: 22 < row["age"] < 25)
        assert sorted(row["age"] for row in selected) == [23, 24]

    def test_in_range_inclusive(self, table):
        # SELECT * FROM R WHERE age BETWEEN 22 AND 25: both bounds included.
        selected = table.select(lambda row: 22 <= row["age"] <= 25)
        assert sorted(row["age"] for row in selected) == [22, 23, 24, 25]

    def test_in_range_on_strings_matches_sql_clause(self, table):
        # Fixed-width digit strings order like the numbers they spell, so the
        # lexicographic range matches the numeric one across a digit carry
        # ("009" < "010"), as the SQL clause over a CHAR column does.
        selected = table.select(lambda row: "007" < row["ssn"] < "011")
        assert [row["ssn"] for row in selected] == ["008", "009", "010"]
        assert [row["age"] for row in selected] == [28, 29, 30]


class TestOperations:
    def test_delete_where(self, table):
        # DELETE FROM R WHERE ssn > '001' AND ssn < '005'
        assert table.delete_where(lambda row: "001" < row["ssn"] < "005") == 3
        assert len(table) == 9
        assert table.column_values("ssn") == ["000", "001"] + [f"{i:03d}" for i in range(5, 12)]
        assert table.delete_where(lambda row: "001" < row["ssn"] < "005") == 0

    def test_group_by_count(self, table):
        # SELECT age, COUNT(*) FROM R GROUP BY age
        table.insert({"ssn": "999", "age": 20})
        counts = table.group_by_count(["age"])
        assert counts[(20,)] == 2
        assert counts[(21,)] == 1
        assert sum(counts.values()) == len(table) == 13
