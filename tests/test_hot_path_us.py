import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hot_path_us.py"


def test_reports_both_hot_path_calls(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("hot_path_us", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "N", 16)
    monkeypatch.setattr(module, "REPEAT", 1)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["rhs_arrays", "n=16:"],
                                                    ["rhs_arrays_stage_row", "n=16:"],
                                                    ["_attempt", "n=16:"],
                                                    ["diagnostics", "n=16:"],
                                                    ["sample", "n=16:"],
                                                    ["energy_envelope_inverse", "n=16:"],
                                                    ["write_artifacts", "n=16:"]]
    assert all(float(line.split()[2]) > 0.0 for line in lines)
    assert all(line.endswith(" us per call") for line in lines[:3])
    assert lines[3].endswith(" us per snapshot")
    assert lines[4].endswith(" us per call on 512 points")
    assert lines[5].endswith(" us per call")
    assert lines[6].endswith(" us per snapshot")
