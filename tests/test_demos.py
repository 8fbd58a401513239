"""Every demo script runs against the current API and prints exactly what
``tests/golden/demos.txt`` records under its ``==> name <==`` header."""

import importlib.util
import re
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos.txt"


def _golden_sections() -> dict[str, str]:
    parts = re.split(r"^==> (.+) <==\n", GOLDEN.read_text(), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_main_prints(capsys, path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out == _golden_sections()[path.name]
