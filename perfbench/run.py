"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-txload --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it starts fresh-interpreter repetitions of the
workload (``rep.py``) until ``--seconds`` have passed and at least
``MIN_REPS`` have run, checks every repetition's outputs, and reports
the end-to-end metrics.  With ``--trace 1`` it runs one untraced, one
span-traced and one tracemalloc repetition and reports the per-layer
metrics, including the tracing overhead; the traced run's raw spans are
left in ``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Standard output ends with two JSON lines: the exact protocol counts and
observed cache counts (not gated), then the result object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402

#: Fewest untraced repetitions per run: enough that the pooled view
#: samples leave at least ten beyond the 95th percentile.
MIN_REPS = {"sim-txload": 3, "node-tcp": 4, "sweep-ablation": 3}
#: No untraced repetition starts after START_DEADLINE_S, and every
#: repetition is killed at REPS_DEADLINE_S, so a run with its checks
#: ends inside three minutes even when a repetition hangs.
START_DEADLINE_S = 60.0
REPS_DEADLINE_S = 150.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _stop_group(pgid: int) -> None:
    """Kill what is left of a repetition's process group and wait for it to go."""

    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(100):
            time.sleep(0.05)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        return


def run_rep(workload: str, seed: int, mode: str, work_root: str, index: int,
            timeout: float) -> dict | None:
    """One repetition in a fresh interpreter; ``None`` if it crashed or timed out.

    The repetition leads its own process group, so its node processes
    and sweep workers are stopped with it whatever happens.
    """

    work_dir = os.path.join(work_root, f"rep-{index}-{mode}")
    os.makedirs(work_dir)
    out = os.path.join(work_dir, "rep.json")
    command = [
        sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--work-dir", work_dir, "--out", out,
    ]
    env = dict(os.environ, TMPDIR=work_root)
    process = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"perfbench: {mode} repetition {index} timed out", file=sys.stderr)
        return None
    finally:
        _stop_group(process.pid)
    if process.returncode != 0 or not os.path.exists(out):
        print(
            f"perfbench: {mode} repetition {index} exited {process.returncode}\n"
            f"{stderr[-4000:]}",
            file=sys.stderr,
        )
        return None
    with open(out, encoding="utf-8") as handle:
        rep = json.load(handle)
    rep["work_dir"] = work_dir
    return rep


def check(workload: str, seed: int, reps: list[dict | None]) -> tuple[int, int]:
    """``(attempted, failed)`` ops over every repetition; a crash fails all its ops."""

    import workloads

    attempted = failed = 0
    if workload == "sim-txload":
        reference = workloads.load_reference()
        for rep in reps:
            if rep is None:
                rep = {
                    "attempted": workloads.SIM_TX_VIEWS * workloads.SIM_TXS_PER_VIEW,
                    "check": {"protocol_seed": None, "safe": False},
                }
            attempted += rep["attempted"]
            failed += workloads.check_sim_txload(rep, reference)
    elif workload == "node-tcp":
        for rep in reps:
            if rep is None:
                rep = {"check": {"seed": seed, "nodes": {}}}
            rep_attempted, rep_failed = workloads.check_node_tcp(rep)
            attempted += rep_attempted
            failed += rep_failed
    else:
        reference = workloads.sweep_reference(seed)
        for rep in reps:
            if rep is None:
                rep = {"attempted": len(reference), "check": {"lines": {}}}
            attempted += rep["attempted"]
            failed += workloads.check_sweep_ablation(rep, reference)
    return attempted, failed


def run_dumps(rep: dict) -> list[dict]:
    """Process dumps of a repetition's measured run (not its set-up-only spawns)."""

    probes = os.path.join(rep["work_dir"], "probes")
    dumps = tracing.load_dumps(probes)
    if os.path.isdir(os.path.join(probes, "run")):  # node-tcp's deployment
        dumps += tracing.load_dumps(os.path.join(probes, "run"))
    return dumps


def write_spans(workload: str, seed: int, dumps: list[dict]) -> str:
    """The traced repetition's raw spans, one JSON object per line."""

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    fields = ("thread", "id", "parent", "root", "name", "start", "duration_s")
    with open(path, "w", encoding="utf-8") as handle:
        for dump in dumps:
            trace = dump.get("trace")
            if trace is None:
                continue
            for span in trace["raw"]:
                record = dict(zip(fields, span), role=dump["role"], pid=dump["pid"])
                handle.write(json.dumps(record) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return fail(f"no program source at {os.path.join(ROOT, 'src', 'repro')}")
    import metrics
    import workloads

    if args.workload not in workloads.REPS:
        return fail(f"unknown workload {args.workload!r} (known: {sorted(workloads.REPS)})")

    work_root = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tempfile.tempdir = work_root
    try:
        started = time.monotonic()

        def rep(mode: str, index: int) -> dict | None:
            remaining = REPS_DEADLINE_S - (time.monotonic() - started)
            return run_rep(args.workload, args.seed, mode, work_root, index, remaining)

        reps: list[dict | None] = []
        if args.trace:
            for index, mode in enumerate(("plain", "spans", "memory")):
                reps.append(rep(mode, index))
        else:
            while len(reps) < MIN_REPS[args.workload] or (
                time.monotonic() - started < min(args.seconds, START_DEADLINE_S)
            ):
                reps.append(rep("plain", len(reps)))
        attempted, failed = check(args.workload, args.seed, reps)
        done = [rep for rep in reps if rep is not None]
        if args.trace:
            if len(done) != len(reps):
                return fail("a traced-run repetition crashed; no per-layer metrics")
            plain, traced, memory = reps
            dumps = run_dumps(traced)
            memory_dumps = run_dumps(memory)
            values = metrics.per_layer(plain, traced, memory, dumps, memory_dumps)
            units = metrics.LAYER_UNITS
            print(f"perfbench: raw spans in {write_spans(args.workload, args.seed, dumps)}",
                  file=sys.stderr)
        else:
            if not done:
                return fail("every repetition crashed; no metrics")
            values = metrics.end_to_end(done, attempted, failed)
            units = metrics.E2E_UNITS
        counts = done[0]["counts"]
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "repetitions": len(reps),
            "view_samples": sum(len(rep["view_ms"]) for rep in done),
            "protocol_counts": counts,
            "exact_counts_repeat": all(rep["counts"] == counts for rep in done),
            "observed": {"cache": done[0]["layers"].get("cache")},
        }
        print(json.dumps(info, sort_keys=True))
        result = {
            "correct": failed == 0 and len(done) == len(reps),
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
