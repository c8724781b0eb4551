"""One benchmark child: runs a plan of fluidchain CLI operations in order.

Usage: python3 child.py PLAN.json RESULT.json

The plan names the package directory the child must import from, the config
parsed during set-up, the operations (argument lists for
``fluidchain.cli.main``) and whether to trace.  Each operation's stdout and
stderr go to files in its own directory.  The result records the monotonic
time at which set-up finished and, per operation, the exit status and its
start and end times; a traced child adds the tracer's summary and per-
operation counter snapshots, and writes its spans.
"""

import contextlib
import json
import sys
import time
import traceback
from pathlib import Path


def _run_op(cli, argv, op_dir):
    with open(op_dir / "stdout.txt", "w") as out, open(op_dir / "stderr.txt", "w") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # what the console script would do: traceback, exit status 1
                traceback.print_exc()
                return 1


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text())
    from fluidchain import cli
    package = Path(cli.__file__).resolve().parent
    if package != Path(plan["package"]).resolve():
        print(f"child: imported fluidchain from {package}, expected {plan['package']}",
              file=sys.stderr)
        return 3
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cli.parse_config(plan["setup_config"])
    ready = time.monotonic()

    ops = []
    for op in plan["ops"]:
        op_dir = Path(op["dir"])
        op_dir.mkdir(parents=True, exist_ok=True)
        before = tracer.snapshot() if tracer else None
        start = time.monotonic()
        status = _run_op(cli, op["argv"], op_dir)
        record = {"status": status, "start": start, "end": time.monotonic()}
        if tracer:
            record["before"], record["after"] = before, tracer.snapshot()
        ops.append(record)

    result = {"ready": ready, "ops": ops}
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write_spans(plan["spans"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
