"""The distributed-detection wire format: every round trip is lossless."""

import json

import pytest

from repro.ontology.registry import standard_ontology
from repro.relational.schema import medical_schema
from repro.service.api import _suspect_metadata
from repro.service.runners import WatermarkerSpec
from repro.service.wire import (
    metadata_from_json,
    metadata_to_json,
    spec_from_json,
    spec_to_json,
    votes_from_json,
    votes_to_json,
)
from repro.watermarking.hierarchical import DetectionVotes, HierarchicalWatermarker


def _through_json(document: dict) -> dict:
    """The document after a real serialize -> bytes -> parse round trip."""
    return json.loads(json.dumps(document))


class TestVotesRoundTrip:
    def test_lossless(self):
        votes = DetectionVotes(
            wmd_length=80,
            votes={3: [1, -1, 1], 79: [-1], 0: [1, 1, 1, -1]},
            tuples_selected=7,
            cells_read=9,
            votes_cast=8,
        )
        assert votes_from_json(_through_json(votes_to_json(votes))) == votes

    def test_empty_votes(self):
        votes = DetectionVotes(wmd_length=40)
        back = votes_from_json(_through_json(votes_to_json(votes)))
        assert back == votes and back.votes == {}

    def test_real_collection_finalises_bit_identically(self, protection_framework, protected_small):
        """Votes collected by a real engine survive the wire and finalise the same."""
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        collected = watermarker.collect_votes(protected_small.watermarked, 20)
        back = votes_from_json(_through_json(votes_to_json(collected)))
        assert back == collected
        original = watermarker.finalize_votes(collected, 20)
        rebuilt = watermarker.finalize_votes(back, 20)
        assert original.mark.bits == rebuilt.mark.bits
        assert original.wmd_bits == rebuilt.wmd_bits
        assert original.positions_with_votes == rebuilt.positions_with_votes
        assert original.tuples_selected == rebuilt.tuples_selected
        assert original.cells_read == rebuilt.cells_read
        assert original.votes_cast == rebuilt.votes_cast

    def test_merge_after_round_trip_matches_merge_before(self, protection_framework, protected_small):
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        left = watermarker.collect_votes(protected_small.watermarked.slice(0, 700), 20)
        right = watermarker.collect_votes(protected_small.watermarked.slice(700, 1500), 20)
        direct = watermarker.collect_votes(protected_small.watermarked, 20)
        merged = votes_from_json(_through_json(votes_to_json(left))).merge(
            votes_from_json(_through_json(votes_to_json(right)))
        )
        assert merged.votes == direct.votes
        assert merged.tuples_selected == direct.tuples_selected

    def test_malformed_document_is_value_error(self):
        with pytest.raises(ValueError, match="malformed votes"):
            votes_from_json({"wmd_length": 10})


class TestSpecRoundTrip:
    def test_lossless(self, protection_framework):
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        spec = WatermarkerSpec.of(watermarker)
        assert spec_from_json(_through_json(spec_to_json(spec))) == spec

    def test_explicit_columns_survive(self, protection_framework):
        watermarker = HierarchicalWatermarker(
            protection_framework.watermark_key, columns=("age", "zip_code"), copies=2
        )
        spec = WatermarkerSpec.of(watermarker)
        back = spec_from_json(_through_json(spec_to_json(spec)))
        assert back == spec and back.columns == ("age", "zip_code")

    def test_rebuilt_engine_is_equivalent(self, protection_framework, protected_small):
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        back = spec_from_json(_through_json(spec_to_json(WatermarkerSpec.of(watermarker))))
        original = watermarker.detect(protected_small.watermarked, 20)
        rebuilt = back.build().detect(protected_small.watermarked, 20)
        assert original.mark.bits == rebuilt.mark.bits
        assert original.wmd_bits == rebuilt.wmd_bits

    def test_malformed_document_is_value_error(self):
        with pytest.raises(ValueError, match="malformed watermarker spec"):
            spec_from_json({"k1": "00"})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("level_weighting", "false"),
            ("level_weighting", 0),
            ("level_weighting", None),
            ("columns", "age"),
            ("columns", ["age", 3]),
            ("columns", {"age": True}),
            ("copies", 2.9),
            ("copies", True),
            ("copies", "4"),
            ("eta", 25.0),
            ("eta", False),
            ("eta", "25"),
        ],
    )
    def test_wrongly_typed_value_is_rejected_not_coerced(self, protection_framework, field, value):
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        document = _through_json(spec_to_json(WatermarkerSpec.of(watermarker)))
        document[field] = value
        with pytest.raises(ValueError, match=f"malformed watermarker spec: .*{field}"):
            spec_from_json(document)

    def test_batch_key_is_no_longer_written(self, protection_framework):
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        assert "batch" not in spec_to_json(WatermarkerSpec.of(watermarker))

    @pytest.mark.parametrize("batch", [False, True])
    def test_older_coordinators_batch_key_is_ignored(self, protection_framework, batch):
        watermarker = HierarchicalWatermarker(protection_framework.watermark_key, copies=4)
        current = _through_json(spec_to_json(WatermarkerSpec.of(watermarker)))
        older = {**current, "batch": batch}
        assert spec_from_json(older) == spec_from_json(current)


class TestMetadataRoundTrip:
    def test_suspect_metadata_survives_with_trees_reattached(self, trees):
        schema = medical_schema()
        metadata = _suspect_metadata(trees, schema, k=10, metrics_depth=1)
        payload = _through_json(metadata_to_json(metadata))
        assert "trees" not in payload
        back = metadata_from_json(payload, trees)
        assert back["quasi_columns"] == metadata["quasi_columns"]
        assert back["identifying_columns"] == metadata["identifying_columns"]
        assert back["ultimate_nodes"] == metadata["ultimate_nodes"]
        assert back["maximal_nodes"] == metadata["maximal_nodes"]
        assert back["k"] == metadata["k"]
        assert back["trees"] == {column: trees[column] for column in metadata["quasi_columns"]}

    def test_binned_metadata_survives_with_trees_reattached(self, protected_small, trees):
        binned = protected_small.watermarked
        fields = (
            "identifying_columns",
            "quasi_columns",
            "ultimate_nodes",
            "maximal_nodes",
            "minimal_nodes",
            "k",
        )
        metadata = {name: getattr(binned, name) for name in fields}
        back = metadata_from_json(_through_json(metadata_to_json(metadata)), trees)
        assert back["quasi_columns"] == binned.quasi_columns
        assert back["identifying_columns"] == binned.identifying_columns
        for name in ("ultimate_nodes", "maximal_nodes", "minimal_nodes"):
            assert back[name] == dict(getattr(binned, name))
        assert back["k"] == binned.k

    def test_missing_tree_is_fleet_configuration_error(self):
        ontology = dict(standard_ontology().items())
        metadata = _suspect_metadata(ontology, medical_schema(), k=5, metrics_depth=1)
        payload = metadata_to_json(metadata)
        with pytest.raises(ValueError, match="fleet members must share"):
            metadata_from_json(payload, {"age": ontology["age"]})
