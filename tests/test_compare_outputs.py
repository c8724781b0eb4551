import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rounding_next_to_zero_reads_as_an_absolute_difference():
    tool = _tool()
    parent = b"x,v\n1,1.4e-17\n0.5,0.25\n"
    change = b"x,v\n1,0\n0.5,0.2500000000000025\n"
    assert tool.number_differences(parent, change, csv=True) == (
        "worst relative difference v 1e-14; "
        "largest absolute difference below 1e-12: v 1.4e-17")
    assert tool.number_differences(b"a 2e-13\n", b"a 3e-13\n", csv=False) == (
        "worst relative difference none; "
        "largest absolute difference below 1e-12: numbers 1e-13")
    assert tool.number_differences(b"a 1\n", b"b 1\n", csv=False) == (
        "differs in more than its numbers")
