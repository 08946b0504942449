"""Protect's pass 1 on the chunk map: aggregates equal one row-dict sweep; failures are located.

Pass 1 parses every raw chunk columnar on the runner and returns mergeable
partials (per-leaf counts, the exact identifier total, rows).  These tests
hold the merged partials to the row-at-a-time reference on every local runner
— inline, thread and process — at chunk sizes 1, 7 and the default, on inputs
with quoted multi-line records and on a header-only file, plus a property
over random tables.  A cell that does not parse, or lies outside its
column's domain, must fail with the input file and its 1-based physical line
whichever runner ran the chunk.
"""

import csv
import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.medical import generate_medical_table
from repro.relational.io import CsvRecordError
from repro.relational.schema import medical_schema
from repro.service import KeyVault, ProtectionService
from repro.service.executor import ShardExecutor
from repro.service.runners import AggregatePlan, DefaultRunner, ProcessRunner, ThreadRunner
from repro.service.streaming import DEFAULT_CHUNK_SIZE, iter_rows
from repro.watermarking.ownership import identifier_total

SCHEMA = medical_schema()
QUASI = tuple(column.name for column in SCHEMA.quasi_identifying_columns)
IDENTIFYING = tuple(column.name for column in SCHEMA.identifying_columns)

#: runner label -> (runner, workers).  "inline" is the default runner on one
#: worker, which runs every chunk in the calling thread.
RUNNERS = {
    "inline": (DefaultRunner(), 1),
    "thread": (ThreadRunner(), 2),
    "process": (ProcessRunner(), 2),
}


@pytest.fixture(scope="module")
def plan(trees):
    return AggregatePlan(
        schema=SCHEMA,
        trees={column: trees[column] for column in QUASI},
        identifying_columns=IDENTIFYING,
    )


def _reference(path, plan):
    """Pass 1 as the row-dict sweep computed it: one parsed dict per row."""
    counts = {column: Counter() for column in plan.trees}
    identifiers = []
    rows = 0
    for row in iter_rows(path, SCHEMA):
        rows += 1
        for column, tree in plan.trees.items():
            counts[column][tree.leaf_for_raw(row[column]).name] += 1
        identifiers.extend(row[column] for column in plan.identifying_columns)
    total, count = identifier_total(identifiers)
    return rows, counts, total, count


def _aggregate(path, plan, runner_label, chunk_size):
    runner, workers = RUNNERS[runner_label]
    merged = ShardExecutor(workers, runner=runner).aggregate_csv(plan, path, chunk_size=chunk_size)
    return merged.rows, merged.leaf_counts, merged.identifier_total, merged.identifier_count


def _write(path, header, rows, **writer_options):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, **writer_options)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture(scope="module")
def quoted_newline_csv(tmp_path_factory):
    """60 rows, every cell quoted, and every fifth ssn spanning two lines."""
    table = generate_medical_table(size=60, seed=31)
    names = SCHEMA.column_names
    rows = []
    for index, row in enumerate(table.rows):
        cells = [row[name] for name in names]
        if index % 5 == 0:
            cells[0] = f"{cells[0]}\n{index}"  # not digits: contributes nothing to v
        rows.append(cells)
    path = str(tmp_path_factory.mktemp("pass1") / "quoted.csv")
    _write(path, names, rows, quoting=csv.QUOTE_ALL)
    return path


class TestAggregatesEqualRowSweep:
    @pytest.mark.parametrize("runner_label", sorted(RUNNERS))
    @pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK_SIZE])
    def test_quoted_newline_input(self, plan, quoted_newline_csv, runner_label, chunk_size):
        expected = _reference(quoted_newline_csv, plan)
        assert expected[0] == 60 and expected[3] == 48  # 12 multi-line ssns skipped
        assert _aggregate(quoted_newline_csv, plan, runner_label, chunk_size) == expected

    @pytest.mark.parametrize("runner_label", sorted(RUNNERS))
    def test_header_only_input(self, plan, tmp_path, runner_label):
        path = str(tmp_path / "empty.csv")
        _write(path, SCHEMA.column_names, [])
        rows, counts, total, count = _aggregate(path, plan, runner_label, 7)
        assert (rows, total, count) == (0, 0, 0)
        assert counts == {column: Counter() for column in QUASI}

    @pytest.mark.parametrize("runner_label", sorted(RUNNERS))
    def test_generated_table_at_default_chunking(self, plan, tmp_path, runner_label):
        path = str(tmp_path / "raw.csv")
        generate_medical_table(size=1_500, seed=5).to_csv(path)
        assert _aggregate(path, plan, runner_label, 400) == _reference(path, plan)


@st.composite
def _random_table(draw, trees):
    """Rows of valid leaf values plus ssns that may be digits, text, quotes or newlines."""
    leaves = {column: trees[column].leaves() for column in QUASI}
    age_root = trees["age"].root.value
    ssn = st.one_of(
        st.integers(0, 10**12).map(str),
        st.text(alphabet='0123456789ab ,"\n', max_size=8),
    )
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        cells = [draw(ssn)]
        for column in QUASI:
            if column == "age":
                cells.append(draw(st.integers(int(age_root.lower), int(age_root.upper) - 1)))
            else:
                cells.append(draw(st.sampled_from(leaves[column])).value)
        rows.append(cells)
    return rows


class TestAggregateProperty:
    @given(data=st.data(), chunk_size=st.integers(1, 12), runner_label=st.sampled_from(["inline", "thread"]))
    @settings(max_examples=40, deadline=None)
    def test_random_tables_match_reference(self, plan, trees, tmp_path_factory, data, chunk_size, runner_label):
        rows = data.draw(_random_table(trees))
        path = str(tmp_path_factory.mktemp("prop") / "random.csv")
        _write(path, SCHEMA.column_names, rows)
        expected = _reference(path, plan)
        assert expected[0] == len(rows)
        assert _aggregate(path, plan, runner_label, chunk_size) == expected


# --------------------------------------------------------------- located errors
BAD_ROW = 25_000
#: Data row 100's ssn spans two physical lines, so data row 25 000 starts on
#: line 25 000 + 1 (header) + 1 (the extra line).
BAD_LINE = BAD_ROW + 2


@pytest.fixture(scope="module")
def error_env(tmp_path_factory):
    """A vault and a 26k-row raw table with one two-line record at row 100."""
    base = tmp_path_factory.mktemp("pass1-errors")
    service = ProtectionService(KeyVault.init(str(base / "vault")))
    service.register_tenant("owner", k=10, eta=25)
    sample = generate_medical_table(size=1_000, seed=17)
    names = SCHEMA.column_names
    rows = [[row[name] for name in names] for row in sample.rows]
    rows = [list(rows[index % len(rows)]) for index in range(26_000)]
    rows[99][0] = "1234\n5678"
    return {"base": base, "service": service, "rows": rows}


def _bad_input(env, name, column, value):
    rows = [list(row) for row in env["rows"]]
    rows[BAD_ROW - 1][SCHEMA.column_names.index(column)] = value
    path = str(env["base"] / name)
    _write(path, SCHEMA.column_names, rows)
    return path


@pytest.fixture(scope="module")
def unparsable_csv(error_env):
    return _bad_input(error_env, "bad-age.csv", "age", "abc")


@pytest.fixture(scope="module")
def out_of_domain_csv(error_env):
    return _bad_input(error_env, "old-age.csv", "age", "200")


class TestLocatedFailures:
    @pytest.mark.parametrize("runner_label", sorted(RUNNERS))
    def test_unparsable_cell_names_file_and_line(self, error_env, unparsable_csv, runner_label, tmp_path):
        runner, workers = RUNNERS[runner_label]
        out = str(tmp_path / "out.csv")
        with pytest.raises(CsvRecordError) as caught:
            error_env["service"].protect(
                "owner", unparsable_csv, out, dataset_id="bad", runner=runner, workers=workers
            )
        error = caught.value
        assert (error.path, error.line) == (unparsable_csv, BAD_LINE)
        assert str(error) == (
            f"{unparsable_csv}, line {BAD_LINE}: column 'age': "
            "could not convert string to float: 'abc'"
        )
        assert not os.path.exists(out)  # pass 1 fails before pass 2 writes anything

    @pytest.mark.parametrize("runner_label", sorted(RUNNERS))
    def test_out_of_domain_value_names_file_and_line(self, error_env, out_of_domain_csv, runner_label, tmp_path):
        runner, workers = RUNNERS[runner_label]
        with pytest.raises(CsvRecordError) as caught:
            error_env["service"].protect(
                "owner", out_of_domain_csv, str(tmp_path / "out.csv"), dataset_id="bad",
                runner=runner, workers=workers,
            )
        error = caught.value
        assert (error.path, error.line) == (out_of_domain_csv, BAD_LINE)
        assert "column 'age'" in str(error) and "outside the domain" in str(error)

    def test_nan_is_located_like_any_out_of_domain_value(self, error_env, tmp_path):
        rows = [list(row) for row in error_env["rows"][:50]]
        rows[20][1] = "nan"
        path = str(tmp_path / "nan.csv")
        _write(path, SCHEMA.column_names, rows)
        with pytest.raises(CsvRecordError, match=r"line 22: column 'age': value nan is outside"):
            error_env["service"].protect("owner", path, str(tmp_path / "o.csv"), dataset_id="nan")

    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ((2, "00000"), (1, "abc"), r"line 12: column 'zip_code'"),
            ((1, "abc"), (2, "00000"), r"line 12: column 'age'"),
        ],
        ids=["out-of-domain-first", "unparsable-first"],
    )
    def test_earliest_failing_record_of_a_chunk_wins(self, error_env, tmp_path, first, second, expected):
        """Two bad records in one chunk: the earlier one is reported, whatever its kind."""
        rows = [list(row) for row in error_env["rows"][:50]]
        rows[10][first[0]] = first[1]
        rows[30][second[0]] = second[1]
        path = str(tmp_path / "two-bad.csv")
        _write(path, SCHEMA.column_names, rows)
        with pytest.raises(CsvRecordError, match=expected):
            error_env["service"].protect("owner", path, str(tmp_path / "o.csv"), dataset_id="two")

    def test_cli_reports_the_location(self, error_env, unparsable_csv, tmp_path, capsys):
        from repro.cli import main

        vault = str(error_env["base"] / "vault")
        code = main(["protect", unparsable_csv, str(tmp_path / "out.csv"), "--vault", vault, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["error"].startswith(f"{unparsable_csv}, line {BAD_LINE}: column 'age'")

    def test_error_pickles_with_its_location(self):
        import pickle

        error = CsvRecordError("column 'age': bad", record=3, line=7, path="x.csv")
        copy = pickle.loads(pickle.dumps(error))
        assert (copy.reason, copy.record, copy.line, copy.path) == ("column 'age': bad", 3, 7, "x.csv")
        assert str(copy) == "x.csv, line 7: column 'age': bad"
