"""Golden pins: what JOINT binning and the Datafly baseline choose today.

Each case bins a seeded ``generate_medical_table`` and pins the ultimate
generalization (as a digest of its node names), whether the greedy fallback
ran, and the normalised information loss.  The exact-enumeration cases fit
the default enumeration budget; the greedy cases do not.  A refactor of the
planner must leave every pin unchanged.
"""

import hashlib
import json

import pytest

from repro.binning.baseline_datafly import DataflyBinner
from repro.binning.binner import BinningAgent
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.datagen.medical import generate_medical_table
from repro.metrics.usage_metrics import UsageMetrics


def _digest(node_names: dict[str, tuple[str, ...]]) -> str:
    payload = json.dumps({column: list(names) for column, names in node_names.items()}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# (rows, seed, columns, metrics depth, k) -> (used_fallback, loss, node-name digest)
JOINT_PINS = {
    # Exact enumeration (EnumGen + Selection).
    (400, 11, ("symptom", "prescription"), 0, 5): (False, 0.5128641304347826, "d2598ed75b5130e9"),
    (400, 11, ("symptom", "prescription"), 0, 10): (False, 0.5204510869565218, "151d93b03e04426f"),
    (400, 11, ("symptom", "prescription"), 0, 20): (False, 0.9925271739130435, "7d5887cf285d77f6"),
    # Greedy coarsening (the combination count exceeds the budget).
    (400, 11, None, 0, 2): (True, 0.7961949491672075, "ba87f781beb28e3a"),
    (400, 11, None, 0, 5): (True, 0.8015257949383517, "be3c20f10aa79fe4"),
    (400, 11, None, 0, 10): (True, 0.805484128271685, "ef2e1f3541768035"),
    (1500, 23, ("age", "zip_code"), 1, 5): (True, 0.3677277777777778, "40e63f37d5fdffa1"),
    (1500, 23, ("age", "zip_code"), 1, 10): (True, 0.1620861111111111, "01bf4d5c6f3ef88d"),
}

# (mode, k) -> (steps, loss, node-name digest), on the 400-row seed-11 table.
DATAFLY_PINS = {
    (EnforcementMode.MONO, 10): (12, 0.33647475124378107, "67444f25cbd6db07"),
    (EnforcementMode.MONO, 25): (13, 0.5039356208089985, "72bca76a1d540822"),
    (EnforcementMode.JOINT, 2): (14, 0.6672341282716852, "65c6da652b872efd"),
    (EnforcementMode.JOINT, 5): (16, 0.8456924616050184, "6fed3fed00501e4c"),
}


@pytest.mark.parametrize("case", list(JOINT_PINS), ids=repr)
def test_joint_bin_matches_pin(trees, case):
    rows, seed, columns, depth, k = case
    table = generate_medical_table(size=rows, seed=seed)
    spec = KAnonymitySpec(k=k, columns=columns, mode=EnforcementMode.JOINT)
    agent = BinningAgent(trees, UsageMetrics.uniform_depth(trees, depth), spec, "golden-key")
    result = agent.bin(table)
    used_fallback, loss, digest = JOINT_PINS[case]
    assert result.used_fallback is used_fallback
    assert result.normalized_information_loss == loss
    assert _digest(result.binned.ultimate_nodes) == digest
    assert all(size >= k for size in result.binned.joint_bin_sizes().values())


@pytest.mark.parametrize("case", list(DATAFLY_PINS), ids=repr)
def test_datafly_matches_pin(trees, small_table, case):
    mode, k = case
    outcome = DataflyBinner(trees, KAnonymitySpec(k=k, mode=mode)).bin(small_table)
    steps, loss, digest = DATAFLY_PINS[case]
    assert outcome.steps == steps
    assert outcome.normalized_information_loss == loss
    assert _digest(outcome.generalization.node_names()) == digest
