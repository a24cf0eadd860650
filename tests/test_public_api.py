"""The public names and the demos stay importable."""

import importlib.util
from pathlib import Path

import pytest

import goalmix

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("name", goalmix.__all__)
def test_public_name_resolves(name):
    assert getattr(goalmix, name) is not None


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_cleanly(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports only; main() is guarded
    assert callable(module.main)
