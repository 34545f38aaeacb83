"""Regenerate perfbench/expected.json: every question's answer at this commit.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/record.py [workload ...]

Every variant of every question is asked (all shifts a, not only the ones
a seed picks), and its value is stored under the question's key: torsion
payloads with |J|, invariant factors, L-coefficients, identity tallies, and
for CLI commands the exit code, a SHA-256 of stdout and the outcome class.
A question refused or failed in-process is stored as null.  The file
is a frozen oracle: rerun this only on a commit whose answers are trusted.
"""

from __future__ import annotations

import json
import subprocess
import sys

import questions as qmod


def record_in_process(workload: str) -> dict:
    out = {}
    for qn in qmod.all_questions(workload):
        try:
            got = qn.ask()
        except Exception as exc:  # no answer to record
            out[qn.key] = None
            print(qn.key, qmod.verdict_for_exception(exc).outcome,
                  file=sys.stderr)
            continue
        v = qmod.JUDGES[workload](qn.key, got, None)
        if v.wrong:
            raise SystemExit(f"{qn.key}: {v.note}")
        out[qn.key] = got if v.outcome == "answered" else None
        print(qn.key, v.outcome, file=sys.stderr)
    return out


def record_cli() -> dict:
    out = {}
    for qn in qmod.all_questions("cli_cache"):
        proc = subprocess.run([sys.executable, "-m", "superjac", *qn.ask(),
                               "--json"], capture_output=True, timeout=600)
        call = qmod.CliCall(proc.returncode, proc.stdout, proc.stderr)
        out[qn.key] = call.summary()
        print(qn.key, out[qn.key]["outcome"], file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    workloads = argv or list(qmod.WORKLOADS)
    expected = (qmod.load_expected() if qmod.EXPECTED_PATH.exists()
                else {})
    for w in workloads:
        expected.update(record_cli() if w == "cli_cache"
                        else record_in_process(w))
    qmod.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
