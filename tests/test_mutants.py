"""Every planted fault of tools/mutants.py still applies to the checkout.

The mutation check is run by hand; this reads its patches and the files they
patch, and runs no suite, so an edit to the library that moves a patched text
fails here rather than only when someone next runs the check."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("name", mutants.MUTANTS)
def test_each_mutant_patch_occurs_once_in_its_file(tmp_path, name):
    _, patches = mutants.MUTANTS[name]
    for path in {path for path, _, _ in patches}:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / path, tmp_path / path)
    assert mutants.apply(tmp_path, patches) is None
