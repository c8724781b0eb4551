"""Paired A/B timing of the hot path: every call of ``tools/hot_path_us.py``
on two source trees, loaded side by side in one process and timed
alternately.

    python3 tools/ab_us.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are the ``src`` directories of two checkouts; each
``fluidchain`` package is loaded under a name of its own, so both run in
this process on the same state and at the same host speed.  Each tree's
calls come from ``hot_path_us.call_table`` on that tree, which builds the
rhs and trial calls from the tree's own DP5 workspace, against this tree's
API.  Each call runs once on each tree before it is timed; a call that
raises on either tree, as one written against an API the other tree does
not have, prints ``<name> n=N: not comparable (<tree>: <error>)`` and the
next call follows.  A pair splits
the calls of one ``hot_path_us`` timing round into SLICES slices (one
slice per call if the round has fewer calls) and times each slice on both
trees in turn, the tree that goes first alternating from slice to slice; a
tree's time in the pair is its fastest slice, so a slowdown of the host
that lasts a few slices reaches neither side.  Over PAIRS pairs, one line
per call gives the median and the quartiles of the paired ratio
change/base, and in how many pairs the change was lower.  The numbers
report only; nothing compares them to a bound.
"""

import importlib.util
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hot_path_us  # noqa: E402

PAIRS = 16
SLICES = 20


def load(src, name):
    """The ``fluidchain`` package of the tree ``src``, imported as ``name``."""
    package = Path(src).resolve() / "fluidchain"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def first_error(base_call, change_call):
    """``"<tree>: <error>"`` for the first of the two calls that raises,
    run once each, else None."""
    for tree, call in (("base", base_call), ("change", change_call)):
        try:
            call()
        except Exception as exc:
            return f"{tree}: {type(exc).__name__}: {exc}"
    return None


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit("usage: python3 tools/ab_us.py BASE_SRC CHANGE_SRC")
    base_src, change_src = args
    with tempfile.TemporaryDirectory() as out:
        base, change = (hot_path_us.call_table(load(src, name), out) for src, name in (
            (base_src, "fluidchain_base"), (change_src, "fluidchain_change")))
        for name, (base_call, number, _, _) in base.items():
            change_call = change[name][0]
            error = first_error(base_call, change_call)
            if error:
                print(f"{name} n={hot_path_us.N}: not comparable ({error})")
                continue
            slices = min(SLICES, number)
            calls = number // slices
            ratios = []
            for pair in range(PAIRS):
                times = {base_call: [], change_call: []}
                for piece in range(slices):
                    order = (base_call, change_call)[::-1 if (pair + piece) % 2 else 1]
                    for call in order:
                        times[call].append(timeit.timeit(call, number=calls))
                ratios.append(min(times[change_call]) / min(times[base_call]))
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            lower = sum(ratio < 1.0 for ratio in ratios)
            print(f"{name} n={hot_path_us.N}: change/base median {median:.3f}, "
                  f"quartiles [{q1:.3f}, {q3:.3f}], change lower in {lower} of {PAIRS} pairs")


if __name__ == "__main__":
    main()
