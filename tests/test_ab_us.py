import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"\S+ n=16: change/base median (\S+), quartiles \[(\S+), (\S+)\], "
                  r"change lower in (\d+) of 2 pairs")


@pytest.fixture
def ab_us(monkeypatch):
    """``tools/ab_us.py`` at n=16 with 2 pairs of 2 slices; the trees it
    loads are unloaded after the test."""
    spec = importlib.util.spec_from_file_location("ab_us", ROOT / "tools" / "ab_us.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module.hot_path_us, "N", 16)
    monkeypatch.setattr(module, "PAIRS", 2)
    monkeypatch.setattr(module, "SLICES", 2)
    yield module
    for name in [name for name in sys.modules if name.startswith("fluidchain_")]:
        del sys.modules[name]


def assert_timed(line):
    match = LINE.fullmatch(line)
    assert match, line
    median, q1, q3 = map(float, match.group(1, 2, 3))
    assert 0.0 < q1 <= median <= q3
    assert int(match.group(4)) <= 2


def test_pairs_every_hot_path_call_of_one_tree_with_itself(ab_us, capsys):
    ab_us.main([str(ROOT / "src")] * 2)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["rhs_arrays", "_attempt", "simulate",
                                                   "diagnostics", "sample",
                                                   "energy_envelope_inverse", "write_artifacts"]
    for line in lines:
        assert_timed(line)


def test_a_call_that_raises_on_one_tree_is_reported_and_skipped(ab_us, capsys, monkeypatch):
    # as a call written against an API the base tree does not have would
    call_table = ab_us.hot_path_us.call_table

    def one_tree_broken(fc, out):
        table = {name: entry for name, entry in call_table(fc, out).items()
                 if name in ("rhs_arrays", "sample")}
        if fc.__name__ == "fluidchain_base":
            def broken():
                raise TypeError("rhs_arrays() takes 4 positional arguments")

            table["rhs_arrays"] = (broken, *table["rhs_arrays"][1:])
        return table

    monkeypatch.setattr(ab_us.hot_path_us, "call_table", one_tree_broken)
    ab_us.main([str(ROOT / "src")] * 2)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("rhs_arrays n=16: not comparable (base: TypeError: "
                        "rhs_arrays() takes 4 positional arguments)")
    assert lines[1].startswith("sample ")
    assert_timed(lines[1])
    assert len(lines) == 2
