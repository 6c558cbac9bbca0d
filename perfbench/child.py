"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed S --pass-index K [--trace] [--setup-only]

Imports the package from ``src/`` beside this directory, builds the
workload's inputs from the seed, reports the moment it is ready (the end of
set-up), then runs every item once in the seed's order for this pass and
checks every output.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent


def run_items(items, order, tracer=None) -> list[list]:
    """Runs the items in the given order; returns ``[id, seconds, problem]``
    per item, where ``problem`` is None for a correct output.  Only the call
    into the package is timed; an exception, a nonzero exit or a wrong
    verdict is recorded as the item's problem and never stops the pass."""
    records = []
    for i in order:
        item = items[i]
        if tracer is not None:
            tracer.item = item.id
        t0 = time.perf_counter()
        try:
            output = item.call()
        except Exception as exc:  # the item failed; the pass goes on
            seconds = time.perf_counter() - t0
            problem = "raised " + "".join(traceback.format_exception_only(exc)).strip()
        else:
            seconds = time.perf_counter() - t0
            try:
                problem = item.check(output)
            except Exception as exc:  # malformed output
                problem = "check raised " + "".join(traceback.format_exception_only(exc)).strip()
        records.append([item.id, seconds, problem])
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    import quiverdt.cli  # noqa: F401  (the public front door every item goes through)

    items = workloads.items(args.workload, args.seed)
    order = workloads.pass_order(len(items), args.seed, args.pass_index)
    ready = time.monotonic()
    out = {"ready": ready, "n_items": len(items)}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        records = run_items(items, order, tracer)
        if tracer is not None:
            tracer.uninstall()
            counts, problems = tracer.counts()
            for item_id, problem in problems:
                for rec in records:
                    if rec[0] == item_id and rec[2] is None:
                        rec[2] = problem
            out["counts"] = counts
            out["spans"] = tracer.spans
        out["items"] = records
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
