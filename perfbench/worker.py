"""One measured repetition of a workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 \
        --scratch DIR --deadline T [--setup-only]

Set-up is importing ``superjac.cli`` (which imports the whole package) and
generating the workload's questions; its end is reported as a
``time.monotonic()`` reading so the parent can time it from process start.
Then every question is asked once, in order, and judged.  The result is
one JSON line on stdout.

For ``cli_cache`` each question is one ``python -m superjac ... --json
--cache-dir D`` child, started only after the previous one has exited: a
cold pass over an empty cache directory, then a warm pass over the same
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import superjac.cli  # noqa: F401  (set-up cost: the whole package)

import questions as qmod
from tracing import Tracer, install, merge

HERE = Path(__file__).resolve().parent


def _peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids)


def run_in_process(workload: str, qs, expected: dict,
                   tracer: Tracer | None) -> dict:
    rows = []
    t_start = time.perf_counter()
    for qn in qs:
        if tracer is not None:
            tracer.question_elems = 0
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                got = tracer.call("question", qn.ask, (), {})
            else:
                got = qn.ask()
        except Exception as exc:  # any crash is a failed question
            dt = time.perf_counter() - t0
            v = qmod.verdict_for_exception(exc)
        else:
            dt = time.perf_counter() - t0
            v = qmod.JUDGES[workload](qn.key, got, expected.get(qn.key))
        row = {"key": qn.key, "outcome": v.outcome, "wrong": v.wrong,
               "note": v.note, "s": dt}
        if tracer is not None:
            row["elems"] = tracer.question_elems
        rows.append(row)
    return {"wall_s": time.perf_counter() - t_start, "questions": rows}


def _cli_call(argv: list[str], cache_dir: Path, trace_file: Path | None,
              env: dict, deadline: float) -> qmod.CliCall:
    if trace_file is None:
        cmd = [sys.executable, "-m", "superjac"]
    else:
        cmd = [sys.executable, str(HERE / "tracing.py")]
        env = dict(env, PERFBENCH_TRACE_OUT=str(trace_file))
    proc = subprocess.run(cmd + argv + ["--json", "--cache-dir",
                                        str(cache_dir)],
                          capture_output=True, env=env,
                          timeout=max(deadline - time.monotonic(), 1.0))
    return qmod.CliCall(proc.returncode, proc.stdout, proc.stderr)


def run_cli(qs, expected: dict, scratch: Path, tracer: Tracer | None,
            deadline: float) -> dict:
    cache_dir = scratch / "cache"
    trace_dir = scratch / "spans"
    shutil.rmtree(cache_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    traces = {"spans": {}, "counts": {}}
    passes = []
    t_start = time.perf_counter()
    for pass_name in ("cold", "warm"):
        calls = []
        t_pass = time.perf_counter()
        for i, qn in enumerate(qs):
            tf = None if tracer is None else trace_dir / f"{pass_name}{i}.json"
            t0 = time.perf_counter()
            call = _cli_call(qn.ask(), cache_dir, tf, env, deadline)
            dt = time.perf_counter() - t0
            elems = 0
            if tf is not None and tf.exists():
                part = json.loads(tf.read_text())
                merge(traces, part)
                elems = part["counts"].get("zeta.elems_enumerated", 0)
            calls.append((call, dt, elems))
        passes.append((calls, time.perf_counter() - t_pass))
    wall = time.perf_counter() - t_start
    shutil.rmtree(cache_dir, ignore_errors=True)
    shutil.rmtree(trace_dir, ignore_errors=True)

    rows = []
    for i, qn in enumerate(qs):
        (cold, s_cold, e_cold), (warm, s_warm, e_warm) = \
            passes[0][0][i], passes[1][0][i]
        verdicts = qmod.judge_cli(cold, warm, expected.get(qn.key))
        for pass_name, call, s, elems, v in (
                ("cold", cold, s_cold, e_cold, verdicts[0]),
                ("warm", warm, s_warm, e_warm, verdicts[1])):
            row = {"key": f"{qn.key} [{pass_name}]", "outcome": v.outcome,
                   "wrong": v.wrong, "note": v.note, "s": s,
                   "exit": call.code, "cls": qmod.classify_cli(call)[1]}
            if tracer is not None:
                row["elems"] = elems
            rows.append(row)
    out = {"wall_s": wall, "hit_wall_s": passes[1][1], "questions": rows}
    if tracer is not None:
        out["trace"] = traces
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=qmod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--deadline", type=float, required=True,
                    help="time.monotonic() by which every CLI child ends")
    args = ap.parse_args()

    qs = qmod.questions(args.workload, args.seed)
    expected = qmod.load_expected()
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = Tracer() if args.trace else None
    if args.workload == "cli_cache":
        res = run_cli(qs, expected, Path(args.scratch), tracer,
                      args.deadline)
    else:
        if tracer is not None:
            install(tracer)
        res = run_in_process(args.workload, qs, expected, tracer)
        if tracer is not None:
            res["trace"] = tracer.to_dict()
    res["setup_done"] = setup_done
    res["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
