"""The column-stored :class:`Table`, held to pinned outputs and a list model.

Three references, none of them a second table implementation:

* **Pinned digests.**  Before the list-of-dicts table was deleted, its
  outputs on a fixed workload were recorded below as sha256 digests and
  report fields: framework protect CSV bytes, a clean detect, every attack
  followed by detect, and the runner's raw-chunk protect and collect tasks.
  The column store must reproduce each one.
* **A list-of-dicts model.**  A hypothesis test runs random sequences of
  inserts, writes, deletes, selections and (lazy) copies against a plain
  ``list[dict]`` and checks every table ever derived still matches its model
  — value for value and type for type — which is the copy-on-write contract.
* **``csv.DictReader`` + ``parse_row``** for the CSV parse, and
  ``csv.DictWriter`` for the emit bytes.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.addition import SubsetAdditionAttack
from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import DeletionMode, SubsetDeletionAttack
from repro.attacks.generalization_attack import GeneralizationAttack
from repro.binning.binner import BinnedTable, rewrite_table
from repro.crypto.cipher import FieldEncryptor
from repro.relational.columnar import ColumnarTable
from repro.relational.io import CsvRecordError, iter_csv_rows, parse_row, write_csv_rows
from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table, TypedColumn, chunk_record_line
from repro.service.executor import ShardExecutor
from repro.service.runners import (
    ProtectPlan,
    WatermarkerSpec,
    collect_raw_chunk,
    protect_raw_chunk,
)
from repro.service.streaming import iter_tables, render_csv_rows
from repro.service.wire import table_to_csv_lines
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import random_mark

MARK = random_mark(20, seed="columnar-equivalence")
KEY = WatermarkKey.from_secret("columnar-equivalence-secret", eta=10)
ENCRYPTION_KEY = "test-encryption-key"

SCHEMA = TableSchema(
    (
        Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
        Column("ward", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
        Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
    )
)
ROWS = [
    {"id": f"p{i}", "ward": "Cardiology" if i % 2 else "Trauma", "age": 20 + i}
    for i in range(10)
]

# ------------------------------------------------------------- pinned outputs
# Recorded from the list-of-dicts table on conftest's workload: the 1500-row
# ``medium_table`` (generate_medical_table(size=1500, seed=23)) through the
# session-scoped ``protection_framework`` fixture (k=10, eta=25, 20-bit mark,
# 4 copies), and the raw-chunk tasks over ``binned_small`` with KEY/MARK at
# 3 copies.
RAW_TABLE_SHA = "47879f328fe190fdce856a29b388c751cc1b4dbbd15d18b7a237e670ec77b222"
PINNED_MARK = "01010100011101111010"
PINNED_PROTECT = {
    "csv": "64a4db2130d92626e009aa21eeded11b97bf451e46206967e83cb0eff9413a2c",
    "binned": "34c07754f4d578746b7ad0a15705c000b88388888fabb8b07b0819367178f2fa",
    "mark": PINNED_MARK,
    "statistic": "504088375.19533336",
    "information_loss": "0.03586150984209388",
    "tuples_selected": 57,
    "cells_changed": 207,
}
_FULL_CONFIDENCE = "811cde4662d39cc3616e2bed64063cca77a20c6febc526afd49dea886fdb54c2"


def _pinned_detect(
    wmd_bits, positions, tuples, cells, votes, mark=PINNED_MARK, confidence=_FULL_CONFIDENCE
):
    return {
        "mark": mark,
        "wmd_bits": wmd_bits,
        "positions_with_votes": positions,
        "tuples_selected": tuples,
        "cells_read": cells,
        "votes_cast": votes,
        "corrected_bits": 0,
        "bit_confidence": confidence,
    }


PINNED_CLEAN_DETECT = _pinned_detect(
    "ea317a76c01d7fde24c66341823494c35664030d59e334a4046558756c34e36b", 76, 57, 254, 504
)
ATTACKS = {
    "alteration": SubsetAlterationAttack(0.4, seed=5),
    "addition": SubsetAdditionAttack(0.4, seed=5),
    "deletion-random": SubsetDeletionAttack(0.4, seed=5, mode=DeletionMode.RANDOM),
    "deletion-ranges": SubsetDeletionAttack(0.4, seed=5, mode=DeletionMode.IDENT_RANGES),
    "generalization": GeneralizationAttack(levels=1),
}
PINNED_ATTACKS = {
    "alteration": {
        "table": "2bf1f742f92141c65a7c8183b6583d7162a25bcf3ed8c37c6855fe45fef822d1",
        "rows_touched": 600,
        "description": "subset alteration of 40% of the tuples",
        "details": "f5365d2d3b63237eba680a06e6d0786a64892673c15166efad5ca3eee659bb4f",
        "detect": _pinned_detect(
            "97e7863709a610a4b44ec8cf0f63851700f964e0134f2841bb7430d1b40fe4ac", 77, 57, 259, 516,
            mark="01010100010101111000",
            confidence="cd214313a176694a1035b472ef0161a369e30767e0a7a281a40046d018373196",
        ),
    },
    "addition": {
        "table": "96e725d8fe660a7331fb2d870fc274cfd5656e66ee219cba4f0acefbf4f30e34",
        "rows_touched": 600,
        "description": "subset addition of 40% bogus tuples",
        "details": "850a12116775184dbe0729f3be1d861c5f585ae697c2b3e8292fbdfd15b61b19",
        "detect": _pinned_detect(
            "6c942bcb60c62af5a45120da2eec2362cf7d61cc34cd260a3cf43a203bb972ff", 79, 85, 384, 776,
            confidence="6d25bfaaed8d8e00fbd47f0db5f5a702039aa9b24193e730cd25e8302af42949",
        ),
    },
    "deletion-random": {
        "table": "6e73ecc566ea2c618df4b8ecf475485896269fd24eee191224333b11cb9b19a1",
        "rows_touched": 600,
        "description": "random deletion of 40% of the tuples",
        "details": "59d7ef96c8576753c557e044393dc6eafee9c532d87e14a82d30d4518c5798f6",
        "detect": _pinned_detect(
            "2fd8edd9596e23b31a1446b6e8f8618fd7c7d3f2b869c7d659f2b6cfff0696c2", 68, 38, 170, 330
        ),
    },
    "deletion-ranges": {
        "table": "8d27fbbe343073e5d2c1ba2255cd907192aba5fcdf85f07c7458309415ceae21",
        "rows_touched": 600,
        "description": "range deletion of 600 tuples (~40%) over 8 identifier ranges",
        "details": "6d16ba55049a9215d3ba62a49d2b072660d001fa8b4fb0e399fa61790a4187be",
        "detect": _pinned_detect(
            "a5cc96a6e3d8a8d58615d5b7700475eea470c35e7e3974d80c0db85940ad0fb4", 65, 33, 145, 284
        ),
    },
    "generalization": {
        "table": "c8f376347934cfa67ee80782f887ff26f5b8df14b11cc8f2b3c7100a9e697b1c",
        "rows_touched": 1500,
        "description": "generalization attack lifting values 1 level(s)",
        "details": "e5b2c18002d706db20367bf5eaf3c7feec14555691fc5d2c2532267b5eff6951",
        "detect": _pinned_detect(
            "641f490ca2bd5f301452726ee15a55f89f8355e70df5dcb073a05d84269d7526", 69, 57, 152, 250
        ),
    },
}
PINNED_PROTECT_RAW_CHUNK = {
    "text": "bd970977f92221a55e2e5a6d4acef40705a3cb1f252b6c0723868467c8e49c9d",
    "rows": 1500,
    "tuples_selected": 166,
    "cells_changed": 686,
}
PINNED_COLLECT_RAW_CHUNK = {
    "rows": 1500,
    "wmd_length": 60,
    "votes": "8c820670046f54c0dd771949c08441201896f51ac9cabc1871fb12d384ec8945",
    "tuples_selected": 166,
    "cells_read": 801,
    "votes_cast": 1676,
}


# --------------------------------------------------------------------- helpers
def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _table_sha(table: Table) -> str:
    return _sha(render_csv_rows(table.schema, table))


def _detect_fields(report) -> dict:
    return {
        "mark": str(report.mark),
        "wmd_bits": _sha("".join(map(str, report.wmd_bits))),
        "positions_with_votes": report.positions_with_votes,
        "tuples_selected": report.tuples_selected,
        "cells_read": report.cells_read,
        "votes_cast": report.votes_cast,
        "corrected_bits": report.corrected_bits,
        "bit_confidence": _sha(repr(report.bit_confidence)),
    }


def _votes_fields(votes) -> dict:
    return {
        "wmd_length": votes.wmd_length,
        "votes": _sha(repr(sorted(votes.votes.items()))),
        "tuples_selected": votes.tuples_selected,
        "cells_read": votes.cells_read,
        "votes_cast": votes.votes_cast,
    }


def _binned_metadata(binned: BinnedTable) -> dict:
    return {
        "trees": binned.trees,
        "quasi_columns": binned.quasi_columns,
        "ultimate_nodes": dict(binned.ultimate_nodes),
        "maximal_nodes": dict(binned.maximal_nodes),
        "minimal_nodes": dict(binned.minimal_nodes),
        "k": binned.k,
    }


def _typed(rows, names=SCHEMA.column_names) -> list[tuple]:
    """Rows as ``(value, type)`` tuples, so ``1`` and ``1.0`` never compare equal."""
    return [tuple((row[name], type(row[name])) for name in names) for row in rows]


def _reference_parse(header: str, lines) -> list[dict]:
    """``csv.DictReader`` + ``parse_row``: the dict parse the column plan mirrors."""
    return [parse_row(raw, SCHEMA) for raw in csv.DictReader(itertools.chain([header], lines))]


def _reference_render(table: Table) -> str:
    """``csv.DictWriter`` over per-row dicts: the emit bytes the column sweep mirrors."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=table.schema.column_names)
    for row in table:
        writer.writerow(row.copy())
    return buffer.getvalue()


@pytest.fixture()
def table():
    return Table(SCHEMA, ROWS)


# ----------------------------------------------------------------- typed store
class TestOneClass:
    def test_every_table_name_is_the_one_class(self):
        import repro
        import repro.relational

        assert repro.Table is repro.relational.Table is Table is ColumnarTable


class TestTypedColumn:
    def test_int_column_uses_int64_array(self):
        column = TypedColumn.from_values([1, 2, 3])
        assert column.kind == "q"
        assert column.tolist() == [1, 2, 3]
        assert all(type(value) is int for value in column.tolist())

    def test_float_column_uses_float64_array(self):
        column = TypedColumn.from_values([1.5, 2.0])
        assert column.kind == "d"
        assert all(type(value) is float for value in column.tolist())

    def test_mixed_types_spill_to_object_list(self):
        column = TypedColumn()
        column.append(1)
        column.append(2.5)
        assert column.kind == "o"
        assert type(column[0]) is int and type(column[1]) is float

    def test_huge_int_spills_instead_of_overflowing(self):
        column = TypedColumn.from_values([1, 1 << 70])
        assert column.kind == "o"
        assert column[1] == 1 << 70
        column = TypedColumn()
        column.append(1)
        column.append(1 << 70)
        assert column.kind == "o" and column[1] == 1 << 70

    def test_bool_is_not_stored_as_int(self):
        # array('q') would coerce True to 1; the column must keep the bool.
        column = TypedColumn.from_values([True, False])
        assert column.kind == "o"
        assert column[0] is True

    def test_setitem_spills_on_type_change(self):
        column = TypedColumn.from_values([1, 2, 3])
        column[1] = "two"
        assert column.kind == "o"
        assert column.tolist() == [1, "two", 3]

    def test_strings_stay_in_object_list(self):
        column = TypedColumn.from_values(["a", "b"])
        assert column.kind == "o"


# ------------------------------------------------------------ list-dict model
CELLS = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.floats(allow_nan=False),
    st.text(max_size=3),
)
NEW_ROWS = st.fixed_dictionaries({name: CELLS for name in SCHEMA.column_names})
MAX_TABLES = 6


def _predicate(column: str, pivot: str):
    return lambda row: str(row[column]) < pivot


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_operation_sequences_match_a_list_of_dicts(data):
    """Every table derived along the way keeps matching its own list model.

    Derived tables (lazy copies, slice views, selections, deep copies) start
    as copies of their parent's model; a mutation through any table must
    show up in that table's model only — copy-on-write isolation in both
    directions, whatever sharing the store does underneath.
    """
    tables: list[tuple[Table, list[dict]]] = [(Table(SCHEMA, ROWS), copy.deepcopy(ROWS))]
    for _ in range(data.draw(st.integers(1, 20), label="steps")):
        table, model = tables[data.draw(st.integers(0, len(tables) - 1), label="table")]
        operation = data.draw(
            st.sampled_from(
                [
                    "insert",
                    "mutable_row",
                    "set_cells",
                    "delete_indices",
                    "delete_where",
                    "update_where",
                    "select",
                    "lazy_copy",
                    "slice_view",
                    "copy",
                ]
            ),
            label="operation",
        )
        count = len(model)
        column = data.draw(st.sampled_from(SCHEMA.column_names), label="column")
        if operation == "insert":
            row = data.draw(NEW_ROWS, label="row")
            table.insert(row)
            model.append(dict(row))
        elif operation == "mutable_row" and count:
            index = data.draw(st.integers(-count, count - 1), label="index")
            value = data.draw(CELLS, label="value")
            table.mutable_row(index)[column] = value
            model[index][column] = value
        elif operation == "set_cells" and count:
            indices = data.draw(st.lists(st.integers(0, count - 1), max_size=count))
            values = data.draw(st.lists(CELLS, min_size=len(indices), max_size=len(indices)))
            table.set_cells(column, indices, values)
            for index, value in zip(indices, values):
                model[index][column] = value
        elif operation == "delete_indices" and count:
            doomed = set(data.draw(st.lists(st.integers(0, count - 1)), label="doomed"))
            assert table.delete_indices(doomed) == len(doomed)
            model[:] = [row for index, row in enumerate(model) if index not in doomed]
        elif operation in ("delete_where", "update_where", "select"):
            predicate = _predicate(column, data.draw(st.text(max_size=2), label="pivot"))
            matching = [row for row in model if predicate(row)]
            if operation == "delete_where":
                assert table.delete_where(predicate) == len(matching)
                model[:] = [row for row in model if not predicate(row)]
            elif operation == "update_where":
                target = data.draw(st.sampled_from(SCHEMA.column_names), label="target")
                value = data.draw(CELLS, label="value")
                touched = table.update_where(predicate, lambda row: row.update({target: value}))
                assert touched == len(matching)
                for row in matching:
                    row[target] = value
            elif len(tables) < MAX_TABLES:
                tables.append((table.select(predicate), copy.deepcopy(matching)))
        elif operation == "slice_view" and len(tables) < MAX_TABLES:
            start = data.draw(st.integers(0, count), label="start")
            stop = data.draw(st.integers(start, count), label="stop")
            tables.append((table.slice_view(start, stop), copy.deepcopy(model[start:stop])))
        elif operation in ("lazy_copy", "copy") and len(tables) < MAX_TABLES:
            twin = table.lazy_copy() if operation == "lazy_copy" else table.copy()
            tables.append((twin, copy.deepcopy(model)))
        for table, model in tables:
            assert len(table) == len(model)
            assert _typed(table) == _typed(model)


class TestTableApi:
    def test_row_views_compare_like_dicts(self, table):
        assert table[0] == ROWS[0] and ROWS[0] == table[0]
        assert table[0].copy() == ROWS[0] and type(table[0].copy()) is dict
        assert table[-1] == ROWS[-1]
        assert table[0] != table[1]

    def test_insert_validation(self, table):
        with pytest.raises(ValueError):
            table.insert({"id": "x", "ward": "Trauma"})  # missing column
        with pytest.raises(ValueError):
            table.insert({"id": "x", "ward": "Trauma", "age": 1, "extra": 2})

    def test_queries(self, table):
        assert table.column_values("age") == [row["age"] for row in ROWS]
        assert table.distinct_values("ward") == {"Cardiology", "Trauma"}
        assert table.group_by_count(["ward"]) == {("Cardiology",): 5, ("Trauma",): 5}
        assert table.group_by_count(["ward", "age"])[("Trauma", 20)] == 1
        assert table.value_counts("ward") == {"Cardiology": 5, "Trauma": 5}
        with pytest.raises(KeyError):
            table.column_values("nope")
        with pytest.raises(KeyError):
            table.group_by_count(["ward", "nope"])
        with pytest.raises(IndexError):
            table.delete_indices([999])

    def test_equality_is_by_value(self, table):
        assert table == Table(SCHEMA, ROWS) == table.copy() == table.with_schema(SCHEMA)
        assert table != Table(SCHEMA, ROWS[:-1])

    def test_pickle_roundtrip(self, table):
        assert pickle.loads(pickle.dumps(table)) == table


class TestTableBuilders:
    """Constructors, copies and bulk edits: every result owns its buffers."""

    def test_concat_keeps_row_order_and_copies_the_buffers(self, table):
        first, second = table.slice_view(0, 4), table.slice_view(4, 10)
        merged = Table.concat(SCHEMA, [first, second])
        assert _typed(merged) == _typed(ROWS)
        merged.mutable_row(0)["age"] = -1
        merged.set_cells("ward", [9], ["Oncology"])
        assert first[0]["age"] == 20 and second[5]["ward"] == "Cardiology"
        assert _typed(table) == _typed(ROWS)

    def test_concat_of_no_tables_is_empty(self):
        empty = Table.concat(SCHEMA, [])
        assert len(empty) == 0 and empty == Table(SCHEMA)
        empty.insert(ROWS[0])
        assert _typed(empty) == _typed(ROWS[:1])

    def test_from_columns_adopts_typed_columns_and_rejects_ragged_input(self, table):
        ages = TypedColumn.from_values([row["age"] for row in ROWS])
        built = Table.from_columns(
            SCHEMA,
            {"id": [row["id"] for row in ROWS], "ward": [row["ward"] for row in ROWS], "age": ages},
        )
        assert _typed(built) == _typed(ROWS) and built == table
        assert built.column_sequences(["age"])["age"] is ages.data
        with pytest.raises(ValueError, match="same length"):
            Table.from_columns(SCHEMA, {"id": ["a"], "ward": ["Trauma", "Trauma"], "age": [1]})

    def test_column_sequences_are_the_live_buffers(self, table):
        buffers = table.column_sequences(["id", "age"])
        assert list(buffers) == ["id", "age"]
        assert list(buffers["age"]) == table.column_values("age")
        table.set_cells("age", [0], [99])
        assert table.column_sequences(["age"])["age"][0] == 99
        assert Table(SCHEMA).column_sequences(["id"]) == {"id": []}

    def test_copy_is_deep_and_with_schema_revalidates(self, table):
        deep = table.copy()
        deep.set_cells("age", [0], [-5])
        assert table[0]["age"] == 20
        other = SCHEMA.replace_kind("ward", ColumnKind.OTHER)
        rekinded = table.with_schema(other)
        assert rekinded.schema is other and _typed(rekinded) == _typed(ROWS)
        rekinded.mutable_row(1)["ward"] = "Oncology"
        assert table[1]["ward"] == "Cardiology"
        narrower = TableSchema(SCHEMA.columns[:2])
        with pytest.raises(ValueError, match="unexpected columns"):
            table.with_schema(narrower)

    def test_select_is_isolated_from_the_source(self, table):
        trauma = table.select(lambda row: row["ward"] == "Trauma")
        assert _typed(trauma) == _typed(row for row in ROWS if row["ward"] == "Trauma")
        trauma.mutable_row(0)["age"] = -1
        trauma.delete_indices([1])
        assert _typed(table) == _typed(ROWS)
        assert len(table.select(lambda row: False)) == 0

    def test_set_cells_on_a_lazy_copy_is_private_and_keeps_types(self, table):
        twin = table.lazy_copy()
        twin.set_cells("age", [1, 3], [70, 71.5])
        assert _typed([twin[1], twin[3]], ["age"]) == [((70, int),), ((71.5, float),)]
        assert _typed(table) == _typed(ROWS)
        with pytest.raises(KeyError):
            twin.set_cells("nope", [0], [1])

    def test_delete_indices_out_of_range_leaves_the_table_intact(self, table):
        twin = table.lazy_copy()
        for bad in ([0, 10], [-1]):
            with pytest.raises(IndexError):
                twin.delete_indices(bad)
        assert _typed(twin) == _typed(ROWS)
        assert twin.delete_indices([]) == 0
        assert twin.delete_indices([9, 0, 0]) == 2
        assert _typed(twin) == _typed(ROWS[1:9]) and len(table) == 10

    def test_row_view_behaves_like_a_mapping(self, table):
        row = table.mutable_row(4)
        assert row.keys() == ("id", "ward", "age") and list(row) == ["id", "ward", "age"]
        assert len(row) == 3 and "age" in row and "nope" not in row
        assert row.get("age") == 24 and row.get("nope", "default") == "default"
        assert row.items() == list(ROWS[4].items()) and row.values() == list(ROWS[4].values())
        row.update({"age": 40}, ward="Oncology")
        assert table[4] == {**ROWS[4], "age": 40, "ward": "Oncology"}
        with pytest.raises(KeyError):
            row["nope"] = 1
        detached = table[4].copy()
        detached["age"] = 0
        assert table[4]["age"] == 40


# ------------------------------------------------------------------------- CSV
class TestCsvEquivalence:
    def _roundtrip(self, text: str, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(text)
        return Table.from_csv(str(path), SCHEMA), list(iter_csv_rows(str(path), SCHEMA))

    def test_to_csv_bytes_match_dictwriter_and_read_back(self, table, tmp_path):
        path, reference = tmp_path / "roundtrip.csv", tmp_path / "reference.csv"
        table.to_csv(str(path))
        write_csv_rows(str(reference), SCHEMA, table)
        assert path.read_bytes() == reference.read_bytes()
        back = Table.from_csv(str(path), SCHEMA)
        assert _typed(back) == _typed(ROWS)

    def test_numeric_coercion_matches(self, tmp_path):
        text = 'id,ward,age\na,T,1e5\nb,T,-2.0\nc,T,37\nd,T,"[25,30)"\n'
        table, reference = self._roundtrip(text, tmp_path)
        assert _typed(table) == _typed(reference)
        assert type(table[2]["age"]) is int

    def test_duplicate_header_last_wins(self, tmp_path):
        table, reference = self._roundtrip("id,ward,age,ward\na,IGNORED,30,Trauma\n", tmp_path)
        assert _typed(table) == _typed(reference)
        assert table[0]["ward"] == "Trauma"

    def test_short_rows_pad_with_restval(self, tmp_path):
        with pytest.raises(ValueError):
            # The padded cell "None" fails numeric coercion.
            self._roundtrip("id,ward,age\na,Trauma,30\nb\n", tmp_path)
        table, reference = self._roundtrip("id,age,ward\na,30,Trauma\nb,31\n", tmp_path)
        assert _typed(table) == _typed(reference)
        assert table[1]["ward"] == "None"

    def test_extra_cells_and_columns_ignored(self, tmp_path):
        text = "id,ward,age,junk\na,Trauma,30,zzz\nb,Trauma,31,zzz,overflow\n"
        table, reference = self._roundtrip(text, tmp_path)
        assert _typed(table) == _typed(reference) and len(table) == 2

    def test_blank_lines_skipped(self, tmp_path):
        table, reference = self._roundtrip("id,ward,age\na,Trauma,30\n\nb,Trauma,31\n", tmp_path)
        assert _typed(table) == _typed(reference) and len(table) == 2

    def test_missing_schema_column_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,ward\na,Trauma\n")
        with pytest.raises(ValueError, match="missing column 'age'"):
            list(iter_csv_rows(str(path), SCHEMA))
        with pytest.raises(ValueError, match="missing column 'age'"):
            Table.from_csv(str(path), SCHEMA)

    def test_bad_cell_is_located_at_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('id,ward,age\na,"Trauma\nUnit",30\n\nb,Trauma,abc\n')
        with pytest.raises(CsvRecordError) as error:
            Table.from_csv(str(path), SCHEMA)
        assert (error.value.line, error.value.path) == (5, str(path))
        assert str(error.value).startswith(f"{path}, line 5: column 'age'")

    def test_chunk_record_line_counts_quoted_newlines_and_blanks(self):
        header = "id,ward,age\n"
        lines = ['a,"Trauma\n', 'Unit",30\n', "\n", "b,Trauma,31\n"]
        assert [chunk_record_line(header, lines, record) for record in (0, 1)] == [2, 5]
        with pytest.raises(IndexError):
            chunk_record_line(header, lines, 2)

    def test_quoted_newlines_in_cells(self, tmp_path):
        table, reference = self._roundtrip('id,ward,age\na,"Trauma\nUnit",30\n', tmp_path)
        assert _typed(table) == _typed(reference)
        assert table[0]["ward"] == "Trauma\nUnit"

    def test_chunk_parse_matches_dictreader(self, table):
        header, lines = table_to_csv_lines(table)
        chunk = Table.from_csv_chunk(SCHEMA, header, lines)
        assert _typed(chunk) == _typed(_reference_parse(header, lines)) == _typed(ROWS)

    def test_iter_tables_yields_chunks(self, table, tmp_path):
        path = tmp_path / "stream.csv"
        table.to_csv(str(path))
        chunks = list(iter_tables(str(path), SCHEMA, chunk_size=4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert _typed(row for chunk in chunks for row in chunk) == _typed(ROWS)

    def test_render_csv_rows_matches_dictwriter(self, table):
        assert render_csv_rows(SCHEMA, table) == _reference_render(table)

    def test_table_to_csv_lines_matches_dictwriter(self, table):
        header, lines = table_to_csv_lines(table)
        assert header == "id,ward,age\r\n"
        assert "".join(lines) == _reference_render(table)


# ------------------------------------------------------------- pinned outputs
class TestPinnedOutputs:
    def test_generated_table(self, medium_table):
        assert _table_sha(medium_table) == RAW_TABLE_SHA

    def test_framework_protect(self, protected_small, tmp_path):
        path = tmp_path / "protected.csv"
        protected_small.outsourced_table.to_csv(str(path))
        observed = {
            "csv": hashlib.sha256(path.read_bytes()).hexdigest(),
            "binned": _table_sha(protected_small.binned.table),
            "mark": str(protected_small.mark),
            "statistic": repr(protected_small.registered_statistic),
            "information_loss": repr(protected_small.binning_result.normalized_information_loss),
            "tuples_selected": protected_small.embedding_report.tuples_selected,
            "cells_changed": protected_small.embedding_report.cells_changed,
        }
        assert observed == PINNED_PROTECT

    def test_clean_detect(self, protection_framework, protected_small):
        report = protection_framework.detect(protected_small.watermarked)
        assert _detect_fields(report) == PINNED_CLEAN_DETECT

    @pytest.mark.parametrize("name", list(ATTACKS))
    def test_attack_then_detect(self, protection_framework, protected_small, name):
        result = ATTACKS[name].run(protected_small.watermarked)
        observed = {
            "table": _table_sha(result.attacked.table),
            "rows_touched": result.rows_touched,
            "description": result.description,
            "details": _sha(repr(result.details)),
            "detect": _detect_fields(protection_framework.detect(result.attacked)),
        }
        assert observed == PINNED_ATTACKS[name]
        # The attack worked on a copy.
        assert _detect_fields(protection_framework.detect(protected_small.watermarked)) == (
            PINNED_CLEAN_DETECT
        )

    @pytest.mark.parametrize("runner", ["thread", "process"])
    def test_runner_detects_match_the_pinned_detect(
        self, protection_framework, protected_small, runner
    ):
        report = ShardExecutor(2, runner=runner).detect(
            protection_framework.watermarker(),
            protected_small.watermarked,
            protection_framework.mark_length,
            shards=3,
        )
        assert _detect_fields(report) == PINNED_CLEAN_DETECT

    def test_embedding_leaves_the_source_untouched(self, binned_small):
        before = binned_small.binned.table.copy()
        embedding = HierarchicalWatermarker(KEY, copies=3).embed(binned_small.binned, MARK)
        assert binned_small.binned.table == before
        embedding.watermarked.table.mutable_row(0)["symptom"] = "poisoned"
        assert binned_small.binned.table == before

    def test_protect_raw_chunk(self, binned_small, medium_table):
        binned = binned_small.binned
        header, lines = table_to_csv_lines(medium_table)
        plan = ProtectPlan(
            spec=WatermarkerSpec.of(HierarchicalWatermarker(KEY, copies=3)),
            schema=medium_table.schema,
            metadata=_binned_metadata(binned),
            identifying_columns=binned.identifying_columns,
            encryption_key=ENCRYPTION_KEY,
            mark_bits=str(MARK),
        )
        chunk = protect_raw_chunk(plan, header, lines)
        observed = {
            "text": _sha(chunk.text),
            "rows": chunk.rows,
            "tuples_selected": chunk.tuples_selected,
            "cells_changed": chunk.cells_changed,
        }
        assert observed == PINNED_PROTECT_RAW_CHUNK

    def test_collect_raw_chunk(self, binned_small):
        watermarker = HierarchicalWatermarker(KEY, copies=3)
        marked = watermarker.embed(binned_small.binned, MARK).watermarked
        header, lines = table_to_csv_lines(marked.table)
        # The in-memory embed and the protect chunk task write the same bytes.
        assert _sha("".join(lines)) == PINNED_PROTECT_RAW_CHUNK["text"]
        metadata = {"identifying_columns": marked.identifying_columns, **_binned_metadata(marked)}
        count, votes = collect_raw_chunk(
            WatermarkerSpec.of(watermarker), marked.table.schema, metadata, header, lines, len(MARK)
        )
        assert {"rows": count, **_votes_fields(votes)} == PINNED_COLLECT_RAW_CHUNK
        assert _votes_fields(watermarker.collect_votes(marked, len(MARK))) == _votes_fields(votes)


# ------------------------------------------------------------------ encryption
def _rewrite_rows_reference(table, schema, encryptor, ultimate):
    """``Binning(tbl, ultigen)`` one row and one cell at a time.

    The per-row loop :func:`rewrite_table`'s column sweep replaced, kept as
    its oracle: scalar ``encrypt`` per identifier, uncached ``generalize``
    per quasi-identifying cell.
    """
    identifying = [column.name for column in schema.identifying_columns]
    for row in table:
        new_row = row.copy()
        for column in identifying:
            new_row[column] = encryptor.encrypt(row[column])
        for column, generalization in ultimate.items():
            new_row[column] = generalization.generalize(row[column])
        yield new_row


class TestEncryptManyEquivalence:
    def test_bit_identical_to_scalar(self):
        encryptor = FieldEncryptor("columnar-cipher-key")
        values = ["alpha", 1234567890, "alpha", "", "a-much-longer-identifier-" * 4, 3.5]
        assert encryptor.encrypt_many(values) == [encryptor.encrypt(v) for v in values]

    def test_tokens_decrypt_back(self):
        encryptor = FieldEncryptor("columnar-cipher-key")
        values = ["alpha", "beta", "alpha"]
        tokens = encryptor.encrypt_many(values)
        assert [encryptor.decrypt(token) for token in tokens] == values

    def test_decrypt_many_equals_scalar(self):
        encryptor = FieldEncryptor("columnar-cipher-key")
        values = ["alpha", "1234567890", "alpha", "", "a-much-longer-identifier-" * 4, "é✓"]
        tokens = encryptor.encrypt_many(values)
        assert encryptor.decrypt_many(tokens) == [encryptor.decrypt(t) for t in tokens] == values
        assert encryptor.decrypt_many([]) == []

    @pytest.mark.parametrize(
        "bad",
        [
            "",  # empty
            "abc",  # not a multiple of 16
            "zz" * 8,  # not hexadecimal
            "-" + "0" * 14 + "1",  # parses, but as a negative block
        ],
    )
    def test_decrypt_many_rejects_like_scalar(self, bad):
        encryptor = FieldEncryptor("columnar-cipher-key")
        good = encryptor.encrypt("123456789")
        with pytest.raises(ValueError) as scalar:
            [encryptor.decrypt(t) for t in (good, bad)]
        with pytest.raises(ValueError) as batched:
            encryptor.decrypt_many([good, bad])
        assert type(batched.value) is type(scalar.value)
        assert str(batched.value) == str(scalar.value)

    def test_decrypt_many_wrong_key_fails_like_scalar(self):
        tokens = FieldEncryptor("columnar-cipher-key").encrypt_many(
            [str(100_000_000 + i) for i in range(200)]
        )
        wrong = FieldEncryptor("some-other-key")
        scalar: list[object] = []
        for token in tokens:
            try:
                scalar.append(wrong.decrypt(token))
            except UnicodeDecodeError as error:
                scalar.append(type(error))
        # Token by token the batched path fails (or not) exactly as the scalar
        # one, and a failure surfaces as the same UnicodeDecodeError.
        assert UnicodeDecodeError in scalar
        for token, expected in zip(tokens, scalar):
            if expected is UnicodeDecodeError:
                with pytest.raises(UnicodeDecodeError):
                    wrong.decrypt_many([token])
            else:
                assert wrong.decrypt_many([token]) == [expected]

    def test_rewrite_table_matches_the_per_row_reference(self, binned_small, medium_table):
        binned = binned_small.binned
        encryptor = FieldEncryptor(ENCRYPTION_KEY)
        ultimate = binned.ultimate_generalizations()
        rewritten = rewrite_table(medium_table, medium_table.schema, encryptor, ultimate)
        reference = _rewrite_rows_reference(medium_table, medium_table.schema, encryptor, ultimate)
        names = medium_table.schema.column_names
        assert _typed(rewritten, names) == _typed(reference, names)
        assert rewritten == binned.table
        # The rewrite builds new columns; its input stays as generated.
        assert _table_sha(medium_table) == RAW_TABLE_SHA
