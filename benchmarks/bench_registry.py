"""Registry benchmark: mutation throughput at fleet scale.

Seeds a vault with ``2 x REPRO_BENCH_SIZE`` tenants through the bulk
``import_state`` path (10 000 tenants at the CI perf-gate size of 5 000),
then times a batch of *real* ``register_tenant`` mutations: one
``BEGIN IMMEDIATE`` insert each, fsynced at ``synchronous=FULL``, so the
cost per write should not grow with the registry.

Run standalone for a plain-text sweep over several registry sizes::

    PYTHONPATH=src python benchmarks/bench_registry.py           # 1k/5k/10k
    REPRO_BENCH_SIZES=500,2000 PYTHONPATH=src python benchmarks/bench_registry.py

or through pytest-benchmark at a single size (baseline-gated in CI)::

    REPRO_BENCH_SIZE=5000 PYTHONPATH=src python -m pytest benchmarks/bench_registry.py
"""

from __future__ import annotations

import itertools
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import pytest

from repro.service import KeyVault

TIMING_ROUNDS = 2
MUTATIONS_PER_ROUND = 50
SEED_MULTIPLIER = 2  # tenants = 2 x REPRO_BENCH_SIZE -> 10k at the gate size


def _tenant_template(base: str) -> dict:
    """One real tenant record (JSON form) to clone for bulk seeding."""
    scratch = KeyVault.init(os.path.join(base, "template"))
    scratch.register_tenant("template")
    return scratch.export_state()["tenants"]["template"]["record"]


def _seed_state(template: dict, count: int) -> dict:
    tenants = {}
    for index in range(count):
        tenant_id = f"seed-{index:07d}"
        tenants[tenant_id] = {
            "record": {**template, "tenant_id": tenant_id},
            "datasets": {},
        }
    return {"tenants": tenants, "claims": {}}


def _timed_batch(vault: KeyVault, counter, label: str) -> float:
    """Register ``MUTATIONS_PER_ROUND`` fresh tenants; return the wall time."""
    start = time.perf_counter()
    for _ in range(MUTATIONS_PER_ROUND):
        vault.register_tenant(f"{label}-{next(counter)}")
    return time.perf_counter() - start


@dataclass
class RegistryEnv:
    base: str
    tenants: int
    root: str


def _build_env(base: str, tenants: int) -> RegistryEnv:
    template = _tenant_template(base)
    root = os.path.join(base, "vault")
    KeyVault.init(root).import_state(_seed_state(template, tenants))
    return RegistryEnv(base=base, tenants=tenants, root=root)


# --------------------------------------------------------------------- pytest
@pytest.fixture(scope="module")
def registry_env(tmp_path_factory):
    from conftest import bench_table_size

    base = str(tmp_path_factory.mktemp("registry-bench"))
    return _build_env(base, SEED_MULTIPLIER * bench_table_size())


def test_registry_mutations_sqlite(benchmark, registry_env):
    vault = KeyVault(registry_env.root)
    counter = itertools.count()
    durations: list[float] = []

    def round_() -> None:
        durations.append(_timed_batch(vault, counter, "mut"))

    benchmark.pedantic(round_, rounds=TIMING_ROUNDS, iterations=1, warmup_rounds=0)
    benchmark.extra_info["tenants_seeded"] = registry_env.tenants
    benchmark.extra_info["mutations_per_round"] = MUTATIONS_PER_ROUND
    benchmark.extra_info["mutations_per_second"] = round(MUTATIONS_PER_ROUND / min(durations))


# ----------------------------------------------------------------- standalone
def _sweep(sizes: list[int]) -> None:
    print(f"{'tenants':>9}  {'batch ms':>9}  {'per write ms':>12}")
    for size in sizes:
        with tempfile.TemporaryDirectory(prefix="bench-registry-") as base:
            env = _build_env(base, size)
            vault = KeyVault(env.root)
            counter = itertools.count()
            best = min(_timed_batch(vault, counter, "mut") for _ in range(TIMING_ROUNDS))
            print(f"{size:>9}  {best * 1e3:>9.1f}  {best * 1e3 / MUTATIONS_PER_ROUND:>12.2f}")


if __name__ == "__main__":
    raw = os.environ.get("REPRO_BENCH_SIZES", "1000,5000,10000")
    _sweep([int(token) for token in raw.split(",") if token])
    sys.exit(0)
