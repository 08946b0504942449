"""Each cold CLI process imports only the code its verb runs.

Every verb runs in a fresh interpreter through ``repro.cli.main``; the child
then reports its ``sys.modules``.  The vault verbs (init, status, token,
migrate, audit verify) must never load the data path, and the vault-mode
data verbs must not load the experiment drivers, attack simulators, data
generators or the HTTP stack.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.datagen.medical import generate_medical_table

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
LEGACY_VAULT = os.path.join(os.path.dirname(__file__), "fixtures", "legacy_vault")

#: Runs ``repro.cli.main`` on argv[2:], then dumps ``sys.modules`` to argv[1].
CHILD = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "status = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as handle:\n"
    "    json.dump(sorted(sys.modules), handle)\n"
    "sys.exit(status)\n"
)

DATA_PATH = (
    "repro.service.runners",
    "repro.service.executor",
    "repro.relational.table",
    "repro.binning.binner",
    "repro.watermarking.hierarchical",
    "repro.framework.pipeline",
    "repro.service.http.app",
    "repro.experiments",
    "concurrent.futures.process",
)

NOT_FOR_DATA_VERBS = ("repro.experiments", "repro.attacks", "repro.datagen", "repro.service.http")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return env


def loaded_modules(tmp_path, *argv: str) -> set[str]:
    """The modules a fresh ``repro`` process holds after running *argv*."""
    out = tmp_path / "modules.json"
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(out), *argv],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(out.read_text()))


def _under(modules: set[str], prefixes: tuple[str, ...]) -> list[str]:
    return sorted(
        name for name in modules if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


@pytest.fixture(scope="module")
def protected_vault(tmp_path_factory):
    """A vault with one protected 300-row dataset, built in-process."""
    root = tmp_path_factory.mktemp("cold")
    raw = root / "raw.csv"
    generate_medical_table(size=300, seed=7).to_csv(str(raw))
    vault = root / "vault"
    from repro.cli import main

    assert main(["vault", "init", str(vault), "--k", "5", "--eta", "5", "--json"]) == 0
    assert main(["protect", str(raw), str(root / "p.csv"), "--vault", str(vault), "--json"]) == 0
    return root


class TestVaultVerbsSkipTheDataPath:
    @pytest.mark.parametrize(
        "verb",
        ["init", "status", "token", "audit-verify", "migrate"],
    )
    def test_vault_verb_loads_no_data_path_module(self, verb, protected_vault, tmp_path):
        vault = str(protected_vault / "vault")
        argv = {
            "init": ["vault", "init", str(tmp_path / "fresh"), "--json"],
            "status": ["vault", "status", vault, "--json"],
            "token": ["vault", "token", vault, "--json"],
            "audit-verify": ["audit", "verify", "--vault", vault, "--json"],
            "migrate": ["vault", "migrate", LEGACY_VAULT, str(tmp_path / "migrated"), "--json"],
        }[verb]
        assert _under(loaded_modules(tmp_path, *argv), DATA_PATH) == []


class TestDataVerbsSkipTheRest:
    @pytest.mark.parametrize("verb", ["protect", "detect", "dispute"])
    def test_vault_mode_verb_loads_no_unrelated_package(self, verb, protected_vault, tmp_path):
        root = protected_vault
        vault = ["--vault", str(root / "vault"), "--dataset", "raw", "--json"]
        argv = {
            "protect": ["protect", str(root / "raw.csv"), str(tmp_path / "again.csv"), *vault],
            "detect": ["detect", str(root / "p.csv"), *vault],
            "dispute": ["dispute", str(root / "p.csv"), *vault],
        }[verb]
        modules = loaded_modules(tmp_path, *argv)
        assert "repro.service.runners" in modules  # the verb really ran its data path
        assert _under(modules, NOT_FOR_DATA_VERBS) == []


def test_bare_import_loads_no_subpackage():
    result = subprocess.run(
        [sys.executable, "-c", "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=60,
        check=True,
    )
    loaded = [name for name in json.loads(result.stdout) if name.startswith("repro.")]
    assert loaded == ["repro._exports"]
