"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured repetition, so no
repetition inherits another's caches, heap or peak RSS.  Usage::

    python3 perfbench/rep.py --workload sim-txload --seed 3 \\
        --mode plain --work-dir DIR --out DIR/rep.json

``--mode`` is ``plain`` (untraced, the end-to-end figures), ``spans``
(every layer entry point wrapped, see ``tracing.py``) or ``memory``
(tracemalloc on in every process that runs the protocol; live
allocations by source file at the end of the run).

Spawned sweep workers import this file as ``__mp_main__``; that import
installs the worker-side probes before the worker unpickles its entry
point.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402

if __name__ == "__mp_main__":
    tracing.install_worker()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "memory"), default="plain")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import workloads

    probe_dir = os.path.join(args.work_dir, "probes")
    os.makedirs(probe_dir)
    tracing.install_probes(probe_dir)
    if args.mode == "spans":
        tracing.install_spans()
    memory: dict[str, float] = {}
    on_run_end = None
    if args.mode == "memory":
        os.environ[tracing.MEMORY_ENV] = "1"
        tracing.start_memory_trace()

        def on_run_end() -> None:
            memory.update(tracing.memory_by_layer())

    result = workloads.REPS[args.workload](args.seed, probe_dir, args.work_dir, on_run_end)
    # This process's share; node processes and sweep workers report theirs
    # in their probe files.
    result["memory"] = memory
    if args.mode == "spans":
        tracing.dump("main", probe_dir)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
