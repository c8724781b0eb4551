"""Fuzz the CLI boundary: mutations of the shipped configs must end in one of
the three documented outcomes, never a traceback or a stray warning.

``check`` runs in process, under pytest's ``error::RuntimeWarning``, so a
numpy warning fails the example.  A few fixed mutations also run
``simulate`` in a subprocess, where a stray warning would reach stderr.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidchain import cli

from conftest import run_cli

CONFIGS = {path.stem: json.loads(path.read_text())
           for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))}
# a JSON value of every kind, the extremes of a float, an integer too large
# for one, and NaN and infinities (json.dumps writes NaN and Infinity)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.just(10 ** 400), st.sampled_from([1e308, -1e308]),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(-3, 70),
    st.floats(-10.0, 10.0), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-2.0, 2.0)), max_size=4),
    st.dictionaries(st.sampled_from(["kind", "value", "x"]), st.integers(0, 2), max_size=2))


def paths(node, prefix=()):
    """Every path into the JSON document ``node``, the root's ``()`` first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, (*prefix, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from paths(value, (*prefix, index))


def mutate(doc, kind, path, value):
    """``doc`` with ``kind`` applied at ``path``: ``"drop"`` removes the
    entry, ``"add"`` puts an unknown key into the object there and ``"set"``
    replaces the entry (the whole document at the root) by ``value``."""
    if not path:
        return value if kind == "set" else doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "set":
        parent[path[-1]] = value
    elif isinstance(parent[path[-1]], dict):
        parent[path[-1]]["unexpected"] = value
    return doc


def run_check(text):
    """``(exit status, stdout, stderr)`` of ``check`` on the config ``text``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    """Exit 0 with no stderr, 2 with a report that is not admissible, or 1
    with exactly one stderr line, a JSON record of ``error`` and ``message``."""
    if code == 0:
        assert err == ""
    elif code == 2:
        assert json.loads(out)["admissible"] is False
    else:
        assert code == 1
        [line] = err.splitlines()
        record = json.loads(line)
        assert isinstance(record, dict)
        assert isinstance(record["error"], str) and isinstance(record["message"], str)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), name=st.sampled_from(sorted(CONFIGS)))
def test_check_keeps_the_exit_contract_under_mutation(data, name):
    doc = copy.deepcopy(CONFIGS[name])
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        kind = data.draw(st.sampled_from(["drop", "add", "set"]), label="kind")
        path = data.draw(st.sampled_from(list(paths(doc))), label="path")
        doc = mutate(doc, kind, path, data.draw(JSON_VALUES, label="value"))
    code, out, err = run_check(json.dumps(doc))
    assert_contract(code, out, err)
    if code == 0:
        assert json.loads(out)["admissible"] is True


# fixed mutations for simulate in a subprocess: two that run, two whose
# overflow once printed a numpy warning before the error record, one that
# stops in the integrator
SIMULATE_MUTATIONS = {
    "amplitude_beyond_the_band": ("saint_venant_perturbed", ("initial", "v0", "amplitude"), 1.0),
    "two_particles": ("ideal_gas", ("n",), 2),
    "mass_at_float_max": ("saint_venant_perturbed", ("m",), 1e308),
    "density_at_float_max": ("ideal_gas", ("initial", "rho0", "value"), 1e308),
    "one_step": ("power_law", ("integrator", "max_steps"), 1),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_MUTATIONS))
def test_simulate_keeps_the_exit_contract_in_a_subprocess(tmp_path, case):
    name, path, value = SIMULATE_MUTATIONS[case]
    doc = mutate(copy.deepcopy(CONFIGS[name]), "set", path, value)
    doc["integrator"]["T"] = doc["integrator"]["snapshot_dt"]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    done = run_cli("simulate", "--config", config, "--out", tmp_path / "out")
    if done.returncode == 0:
        assert all(line.startswith("warning: ") for line in done.stderr.splitlines())
    else:
        assert_contract(done.returncode, done.stdout, done.stderr)
