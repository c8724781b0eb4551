import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pairs_every_hot_path_call_of_one_tree_with_itself(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_us", ROOT / "tools" / "ab_us.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module.hot_path_us, "N", 16)
    monkeypatch.setattr(module, "PAIRS", 2)
    monkeypatch.setattr(module, "SLICES", 2)
    try:
        module.main([str(ROOT / "src")] * 2)
    finally:
        for name in [name for name in sys.modules if name.startswith("fluidchain_")]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["rhs_arrays", "rhs_arrays_stage_row",
                                                   "_attempt", "diagnostics", "sample",
                                                   "energy_envelope_inverse", "write_artifacts"]
    for line in lines:
        match = re.fullmatch(r"\S+ n=16: change/base median (\S+), quartiles \[(\S+), (\S+)\], "
                             r"change lower in (\d+) of 2 pairs", line)
        assert match, line
        median, q1, q3 = map(float, match.group(1, 2, 3))
        assert 0.0 < q1 <= median <= q3
        assert int(match.group(4)) <= 2
