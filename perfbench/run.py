"""superjac benchmark: one workload, measured, checked and reported.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Load is a closed loop with one client.  Every repetition is a fresh
``perfbench/worker.py`` interpreter that imports superjac, builds the
questions from the seed, asks them one at a time and judges each answer;
repetitions follow each other until the next one would end after
``--seconds``, with at least one.  Set-up is also sampled on its own in
``SETUP_SAMPLES`` extra interpreters.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
repetitions alternate between untraced and traced, and the per-layer
metrics come from the traced ones.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any answer is wrong
and 2 when the benchmark cannot run at all (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from questions import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5
RUN_CAP_S = 175.0      # every child is killed before the run passes this

# spans that are not a layer of the program
NOT_LAYERS = ("question", "cache.compute")


class BenchError(Exception):
    """The benchmark itself could not run."""


class Runner:
    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.t_begin = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def _timeout(self) -> float:
        left = self.t_begin + RUN_CAP_S - time.monotonic()
        if left <= 1:
            raise BenchError(f"run cap of {RUN_CAP_S:.0f} s reached")
        return left

    def _child(self, argv: list[str]) -> str:
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[:2]} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{argv[:2]} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return proc.stdout

    def rep(self, traced: bool = False, setup_only: bool = False) -> dict:
        argv = [str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--trace", str(int(traced)),
                "--scratch", str(self.scratch),
                # CLI children end 3 s before the worker is killed
                "--deadline", str(self.t_begin + RUN_CAP_S - 3)]
        if setup_only:
            argv.append("--setup-only")
        t_spawn = time.monotonic()
        out = self._child(argv)
        res = json.loads(out.strip().splitlines()[-1])
        res["setup_s"] = res["setup_done"] - t_spawn
        return res

    def import_s(self) -> float:
        code = ("import time; t = time.perf_counter(); import superjac.cli; "
                "print(time.perf_counter() - t)")
        return float(self._child(["-c", code]).strip())


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Set-up samples, then repetitions for about ``seconds``."""
    runner.rep(setup_only=True)            # writes bytecode; not counted
    setups = [runner.rep(setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        plain.append(runner.rep())
        if trace:
            traced.append(runner.rep(traced=True))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(plain) > seconds:
            break
    imports = ([runner.import_s() for _ in range(IMPORT_SAMPLES)]
               if trace else [])
    setups += [r["setup_s"] for r in plain]
    return {"setups": setups, "plain": plain, "traced": traced,
            "imports": imports}


# ---------------------------------------------------------------------------
# metrics


def _tally(reps: list[dict]) -> dict:
    rows = [row for r in reps for row in r["questions"]]
    n = len(rows)
    by = {k: [row for row in rows if row["outcome"] == k]
          for k in ("answered", "refused", "failed")}
    return {"attempted": n,
            "answered": len(by["answered"]), "refused": len(by["refused"]),
            "failed": len(by["failed"]),
            "wrong": sum(row["wrong"] for row in rows),
            "refused_rows": by["refused"], "failed_rows": by["failed"]}


def end_to_end(m: dict) -> dict:
    plain = m["plain"]
    t = _tally(plain)
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "setup_s": (statistics.median(m["setups"]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in plain)
                        / 1024, "MB"),
        "answered_frac": (t["answered"] / t["attempted"], "frac"),
    }


def outcome_metrics(reps: list[dict]) -> dict:
    """Outcome metrics that are 0 or undefined on some workloads.

    They are reported per layer (from the untraced repetitions of a traced
    run) and in the human-readable lines, not as bounded end-to-end metrics.
    """
    t = _tally(reps)
    per_rep = len(reps)
    refused_s = sum(row["s"] for row in t["refused_rows"]) / per_rep
    hits = [r["hit_wall_s"] for r in reps if "hit_wall_s" in r]
    return {
        "refused_frac": (t["refused"] / t["attempted"], "frac"),
        "failed_frac": (t["failed"] / t["attempted"], "frac"),
        "refused_wall_s": (refused_s, "s"),
        "hit_wall_s": (statistics.median(hits) if hits else 0.0, "s"),
    }


def _layer_metrics(rep: dict) -> dict:
    tr = rep["trace"]
    sp, cnt = tr["spans"], tr["counts"]

    def s(name, key="total_s"):
        return sp.get(name, {}).get(key, 0.0)

    def calls(name):
        return sp.get(name, {}).get("calls", 0)

    def frac(num, den):
        return num / den if den else 0.0

    elems = cnt.get("zeta.elems_enumerated", 0)
    useful = sum(row.get("elems", 0) for row in rep["questions"]
                 if row["outcome"] == "answered")
    table_elems = cnt.get("gf.table_elems", 0)
    tests = calls("picard.is_principal")
    true = cnt.get("picard.principal_true", 0)
    lookups, hits = cnt.get("cache.lookups", 0), cnt.get("cache.hits", 0)
    covered = sum(st["self_s"] for name, st in sp.items()
                  if name not in NOT_LAYERS)
    count_self = s("zeta.count_points", "self_s")
    return {
        "gf.table_build_s": (s("gf.table_build"), "s"),
        "gf.tables_built": (cnt.get("gf.tables_built", 0), "count"),
        "gf.table_elems": (table_elems, "count"),
        "gf.table_ns_per_elem": (frac(s("gf.table_build") * 1e9,
                                      table_elems), "ns"),
        "zeta.count_points_calls": (calls("zeta.count_points"), "count"),
        "zeta.count_points_s": (count_self, "s"),
        "zeta.elems_enumerated": (elems, "count"),
        "zeta.count_ns_per_elem": (frac(count_self * 1e9, elems), "ns"),
        "zeta.useful_elems": (useful, "count"),
        "zeta.useful_elem_frac": (frac(useful, elems), "frac"),
        "zeta.charsum_numerator_s": (s("zeta.charsum_numerator"), "s"),
        "characters.gauss_sum_calls": (calls("characters.gauss_sum"),
                                       "count"),
        "characters.gauss_sum_self_s": (s("characters.gauss_sum", "self_s"),
                                        "s"),
        "cyclo.mul_calls": (calls("cyclo.mul"), "count"),
        "cyclo.mul_s": (s("cyclo.mul"), "s"),
        "picard.picard_group_s": (s("picard.picard_group"), "s"),
        "picard.function_space_calls": (calls("picard.function_space"),
                                        "count"),
        "picard.function_space_self_s": (s("picard.function_space",
                                           "self_s"), "s"),
        "picard.principality_tests": (tests, "count"),
        "picard.principal_true": (true, "count"),
        "picard.principal_true_frac": (frac(true, tests), "frac"),
        "picard.enumerate_places_s": (s("picard.enumerate_places"), "s"),
        "picard.effective_divisors": (cnt.get("picard.effective_divisors",
                                              0), "count"),
        "curves.local_expansion_calls": (calls("curves.local_expansion"),
                                         "count"),
        "curves.local_expansion_s": (s("curves.local_expansion"), "s"),
        "curves.valuation_s": (s("curves.valuation"), "s"),
        "curves.places_above_s": (s("curves.places_above"), "s"),
        "delta.replay_proof_s": (s("delta.replay_proof"), "s"),
        "rank.certify_rank_s": (s("rank.certify_rank"), "s"),
        "cache.lookups": (lookups, "count"),
        "cache.hits": (hits, "count"),
        "cache.hit_frac": (frac(hits, lookups), "frac"),
        "cache.self_s": (s("cache.get_or_compute", "self_s"), "s"),
        "trace.covered_frac": (frac(covered, rep["wall_s"]), "frac"),
    }


def _cli_exits(reps: list[dict]) -> dict:
    rows = [row for r in reps for row in r["questions"] if "exit" in row]
    n = max(len(reps), 1)

    def per_rep(pred):
        return sum(1 for row in rows if pred(row)) / n
    out = {f"cli.exit_{c}": (per_rep(lambda row, c=c: row["exit"] == c),
                             "count") for c in range(4)}
    out["cli.uncaught"] = (per_rep(lambda row: row["cls"] == "uncaught"),
                           "count")
    out["cli.capacity_exit2"] = (
        per_rep(lambda row: row["cls"] == "capacity_exit2"), "count")
    return out


def per_layer(m: dict) -> dict:
    layers = [_layer_metrics(r) for r in m["traced"]]
    out = {name: (statistics.median(d[name][0] for d in layers),
                  layers[0][name][1]) for name in layers[0]}
    out.update(_cli_exits(m["plain"]))
    out["cli.import_s"] = (statistics.median(m["imports"]), "s")
    out.update(outcome_metrics(m["plain"]))
    plain_wall = statistics.median(r["wall_s"] for r in m["plain"])
    traced_wall = statistics.median(r["wall_s"] for r in m["traced"])
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "frac")
    return out


# ---------------------------------------------------------------------------
# report


def run_record(workload: str, seed: int, m: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "superjac").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    reps = m["plain"] + m["traced"]
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "workload": workload, "seed": seed,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "questions": len(reps[0]["questions"]),
            "reps_untraced": len(m["plain"]),
            "reps_traced": len(m["traced"])}


def print_report(record: dict, metrics: dict, m: dict) -> None:
    print("record " + json.dumps(record, sort_keys=True))
    t = _tally(m["plain"])
    print(f"outcomes over {len(m['plain'])} untraced repetition(s): "
          f"{t['answered']} answered, {t['refused']} refused, "
          f"{t['failed']} failed of {t['attempted']} attempted "
          f"({t['wrong']} wrong answers)")
    for row in t["refused_rows"] + t["failed_rows"]:
        print(f"  {row['outcome']:8s} {row['key']}: {row['note']}")
    for name, (val, unit) in outcome_metrics(m["plain"]).items():
        if name not in metrics:
            print(f"outcome {name} = {val:.6g} {unit}")
    for label, vals in (("wall_s untraced", [r["wall_s"] for r in m["plain"]]),
                        ("wall_s traced", [r["wall_s"] for r in m["traced"]]),
                        ("setup_s", m["setups"])):
        if vals:
            print(f"samples {label} (n={len(vals)}): "
                  + " ".join(f"{v:.4f}" for v in vals))
    for name, (val, unit) in metrics.items():
        print(f"metric {name} = {val:.6g} {unit}")
    for a, b, name in (("zeta.useful_elems", "zeta.elems_enumerated",
                        "zeta.useful_elem_frac"),
                       ("picard.principal_true", "picard.principality_tests",
                        "picard.principal_true_frac"),
                       ("cache.hits", "cache.lookups", "cache.hit_frac")):
        if name in metrics:
            print(f"ratio {name} = {metrics[a][0]:.0f} / "
                  f"{metrics[b][0]:.0f}")
    if m["traced"]:
        print("spans of the first traced repetition "
              "(name, calls, total_s, self_s, parents):")
        spans = m["traced"][0]["trace"]["spans"]
        for name, st in sorted(spans.items(),
                               key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:28s} {st['calls']:9d} {st['total_s']:10.4f} "
                  f"{st['self_s']:10.4f}  {st['parents']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "superjac" / "__init__.py").is_file():
        print(f"perfbench: no superjac sources under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, scratch)
        m = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    metrics = per_layer(m) if args.trace else end_to_end(m)
    print_report(run_record(args.workload, args.seed, m), metrics, m)
    reps = m["plain"] + m["traced"]
    t = _tally(reps)
    print(json.dumps({
        "correct": t["wrong"] == 0,
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": {name: {"value": val, "unit": unit}
                    for name, (val, unit) in metrics.items()},
    }))
    return 0 if t["wrong"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
