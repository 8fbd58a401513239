"""Every demo script runs against the current API and prints something."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_main_prints(capsys, path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
