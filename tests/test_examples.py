"""Keep the example scripts importable (and run the fastest end to end).

Executing every example is minutes of work that belongs to manual runs;
importing them catches bitrot (renamed APIs, syntax errors) in
milliseconds because all imports are at module top level.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    module = load_module(path)
    assert hasattr(module, "main"), f"{path.name} must expose main()"


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "disaster_response",
        "fleet_planning",
        "algorithm_comparison",
        "mission_operations",
        "qos_planning",
        "paper_figures",
    } <= names


def test_quickstart_runs_end_to_end(capsys):
    module = load_module(Path(__file__).parent.parent / "examples"
                         / "quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "approAlg served" in out
    assert "UAV" in out
