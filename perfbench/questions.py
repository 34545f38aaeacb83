"""The questions each workload asks superjac, and how each answer is judged.

A question has a seed-independent ``key`` (the expectation recorded for it
in ``expected.json`` is stored under that key), a ``group`` and an
``ask()`` that returns a JSON value.  ``all_questions(w)`` lists every
variant of a workload; ``questions(w, seed)`` keeps one member of each
group, picked by the seed.  Groups with several members are the
Artin-Schreier families y^q = x^p - x + a, whose shift ``a`` the seed
picks; a group with one member is always asked.

Every question ends in one of three outcomes, decided by cause:

- ``answered``: a value came back and passed its check;
- ``refused``: a budget or table cap turned the question down
  (``BudgetExceeded``, exit 3, ``evidence_route: null`` or a table-cap
  message);
- ``failed``: a crash, an unexpected exit code, or a wrong answer.

Only a wrong answer makes the run incorrect: a crash gives no answer to
check.  An answer to a question that had none recorded at the seed (a
refusal or crash that a later version fixes) is accepted after its own
consistency checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("torsion_grid", "picard_oracle", "charsum_identities",
             "cli_cache")

PRIMES_13 = (2, 3, 5, 7, 11, 13)
GRID_BUDGET = 200_000

# messages that name a capacity limit rather than a usage error
CAPACITY_RE = re.compile(r"table cap|budget|work cap|exceeds", re.I)

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Question:
    group: str
    key: str
    ask: Callable[[], object]


@dataclass
class Verdict:
    outcome: str            # "answered", "refused" or "failed"
    wrong: bool = False     # the answer contradicts its check
    note: str = ""


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def multiplicative_order(p: int, q: int) -> int:
    """ord_q(p), computed here so torsion verdicts are checked independently."""
    k, t = 1, p % q
    while t != 1:
        t = t * p % q
        k += 1
    return k


def verdict_for_exception(exc: BaseException) -> Verdict:
    from superjac.errors import BudgetExceeded
    name = type(exc).__name__
    if isinstance(exc, BudgetExceeded) or CAPACITY_RE.search(str(exc)):
        return Verdict("refused", note=f"{name}: {exc}")
    return Verdict("failed", note=f"{name}: {exc}")


# ---------------------------------------------------------------------------
# torsion_grid


def _torsion_questions() -> list[Question]:
    from superjac import zeta

    out = []
    for p, q in itertools.permutations(PRIMES_13, 2):
        for a in range(1, p):
            def ask(p=p, q=q, a=a):
                res = zeta.torsion_criterion(p, q, a=a, budget=GRID_BUDGET)
                return res.to_dict()
            out.append(Question(f"torsion/{p}/{q}",
                                f"torsion/{p}/{q}/{a}", ask))
    return out


def _judge_torsion(key: str, got: dict, expected: dict | None) -> Verdict:
    _, p, q, _a = key.split("/")
    p, q = int(p), int(q)
    k = multiplicative_order(p, q)
    if got["ord"] != k or got["has_torsion"] != (k % p == 0):
        return Verdict("failed", True, f"verdict {got} but ord_{q}({p}) = {k}")
    if got["evidence_route"] is None:
        return Verdict("refused", note="evidence_route: null")
    if got["evidence_ok"] is not True:
        return Verdict("failed", True, "evidence contradicts the verdict")
    if expected is not None and expected.get("evidence_route") is not None \
            and got["jacobian_order"] != expected["jacobian_order"]:
        return Verdict("failed", True,
                       f"|J| = {got['jacobian_order']}, recorded "
                       f"{expected['jacobian_order']}")
    return Verdict("answered")


# ---------------------------------------------------------------------------
# picard_oracle


def _group_summary(G) -> dict:
    return {"order": G.order, "invariant_factors": list(G.invariant_factors),
            "lpoly": list(G.lpoly_coeffs)}


def _picard_questions() -> list[Question]:
    from superjac import gf, picard, zeta
    from superjac.curves import make_curve

    def group_of(make):
        return lambda: _group_summary(picard.picard_group(make()))

    def conj_of(p, q, a):
        return lambda: picard.conjecture_check(
            zeta.artin_schreier_curve(p, q, a)).to_dict()

    out = [
        Question("picard/y3=x2+x+1/GF(2)", "picard/y3=x2+x+1/GF(2)",
                 group_of(lambda: make_curve(3, [1, 1, 1], gf.field(2)))),
    ]
    for a in (1, 2):
        out.append(Question(
            "picard/as/3/2", f"picard/as/3/2/{a}",
            group_of(lambda a=a: zeta.artin_schreier_curve(3, 2, a))))
    out.append(Question(
        "picard/y3=x2+x+1/GF(4)", "picard/y3=x2+x+1/GF(4)",
        group_of(lambda: make_curve(3, [1, 1, 1], gf.field(2, 2)))))
    out.append(Question("conjecture/2/3", "conjecture/2/3/1",
                        conj_of(2, 3, 1)))
    for a in (1, 2):
        out.append(Question("conjecture/3/2", f"conjecture/3/2/{a}",
                            conj_of(3, 2, a)))
    out.append(Question("conjecture/2/5", "conjecture/2/5/1",
                        conj_of(2, 5, 1)))
    out.append(Question(
        "picard/y3=x4+x+1/GF(4)", "picard/y3=x4+x+1/GF(4)",
        group_of(lambda: make_curve(3, [1, 1, 0, 0, 1], gf.field(2, 2)))))
    out.append(Question(
        "picard/y2=x5+2x+1/GF(9)", "picard/y2=x5+2x+1/GF(9)",
        group_of(lambda: make_curve(2, [1, 2, 0, 0, 0, 1], gf.field(3, 2)))))
    return out


def _judge_picard(key: str, got: dict, expected: dict | None) -> Verdict:
    if key.startswith("conjecture/"):
        if got["verdict"] != "consistent":
            return Verdict("failed", True, f"verdict {got['verdict']}")
        if got["ext_factors"] != got["expected_factors"]:
            return Verdict("failed", True, "factors differ from J(GF(p))^k")
    elif got["order"] != sum(got["lpoly"]):
        return Verdict("failed", True, "class count differs from P(1)")
    if expected is not None and got != expected:
        return Verdict("failed", True, f"got {got}, recorded {expected}")
    return Verdict("answered")


# ---------------------------------------------------------------------------
# charsum_identities


def _charsum_pairs() -> list[tuple[int, int]]:
    return [(p, q) for p in (3, 5, 7, 11, 13, 17, 19) for q in PRIMES_13
            if (p - 1) % q == 0]


def _identity_block(p: int, q: int, a: int) -> dict:
    """Criterion 03's norm, Hasse-Davenport and shift identities at one a."""
    from superjac import characters
    from superjac.cyclo import cyclo

    n_max = 6 if p ** 6 <= 100_000 else 3
    ring = cyclo(p * q)
    checked = failures = 0
    for c, u in characters.nontrivial_pairs(p, q):
        g0 = characters.modified_gauss_sum(p, q, c, u, 0)
        for n in range(1, n_max + 1):
            failures += not characters.gauss_norm_ok(p, q, c, u, a, n)
            failures += not characters.hasse_davenport_ok(p, q, c, u, a, n)
            checked += 2
        ga = characters.modified_gauss_sum(p, q, c, u, a)
        psi = ring.from_zeta_exponents({(q * ((-c * a) % p)) % (p * q): 1})
        failures += not (ga == psi * g0)
        checked += 1
    return {"checked": checked, "false": failures}


def _charsum_questions() -> list[Question]:
    from superjac import zeta

    out = []
    for p, q in _charsum_pairs():
        for a in range(1, p):
            out.append(Question(
                f"identities/{p}/{q}/{a}", f"identities/{p}/{q}/{a}",
                lambda p=p, q=q, a=a: _identity_block(p, q, a)))
        for a in range(1, p):
            out.append(Question(
                f"zeta-charsum/{p}/{q}", f"zeta-charsum/{p}/{q}/{a}",
                lambda p=p, q=q, a=a: list(
                    zeta.zeta_numerator_charsum(p, q, a).coeffs)))
    return out


def _judge_charsum(key: str, got, expected) -> Verdict:
    if key.startswith("identities/"):
        if got["false"] or not got["checked"]:
            return Verdict("failed", True,
                           f"{got['false']} of {got['checked']} identities "
                           f"false")
        return Verdict("answered")
    if got[0] != 1 or (expected is not None and got != expected):
        return Verdict("failed", True, f"P = {got}, recorded {expected}")
    return Verdict("answered")


# ---------------------------------------------------------------------------
# cli_cache

# criterion 10's determinism sample, frozen; no member takes a seed-picked a
DETERMINISM_SAMPLE = [
    ["genus", "--m", "3", "--r", "5"],
    ["delta-structure", "--m", "4", "--r", "6"],
    ["proof-replay", "--m", "2", "--f", "0,24,-50,35,-10,1",
     "--field", "11", "--seed", "7"],
    ["principal", "--m", "2", "--f", "0,24,-50,35,-10,1",
     "--coeffs", "2,0,0,0", "--field", "11"],
    ["gauss", "--p", "7", "--q", "3", "--a", "2", "--n", "2"],
    ["count", "--p", "3", "--q", "2", "--a", "1", "--n", "3"],
    ["zeta", "--p", "2", "--q", "7", "--a", "1"],
    ["jacobian-order", "--p", "2", "--q", "7", "--a", "1", "--ext", "3"],
    ["torsion-test", "--p", "2", "--q", "5"],
    ["power-law", "--p", "2", "--q", "5"],
    ["picard", "--m", "3", "--f", "1,1,1", "--p", "2", "--ext", "2"],
    ["conjecture-test", "--p", "2", "--q", "3"],
    ["rank-certify", "--p", "3", "--q", "2", "--k", "10"],
    ["find-prime", "--m", "2", "--roots", "0,1,2", "--k", "10"],
]

# (subcommand, p, q) of the Artin-Schreier commands added to the sample
EXTRA_FAMILIES = [("zeta", 13, 3), ("torsion-test", 3, 11),
                  ("conjecture-test", 2, 5), ("conjecture-test", 5, 3)]

# dies today with a bare AssertionError; asked so the crash is counted
CRASH_COMMAND = ["picard", "--m", "2", "--f", "1,2,0,0,0,1", "--p", "5"]


def _cli_questions() -> list[Question]:
    out = []
    for argv in DETERMINISM_SAMPLE + [CRASH_COMMAND]:
        key = "cli/" + " ".join(argv)
        out.append(Question(key, key, lambda argv=argv: argv))
    for cmd, p, q in EXTRA_FAMILIES:
        for a in range(1, p):
            argv = [cmd, "--p", str(p), "--q", str(q), "--a", str(a)]
            out.append(Question(f"cli/{cmd} --p {p} --q {q}",
                                "cli/" + " ".join(argv),
                                lambda argv=argv: argv))
    return out


@dataclass
class CliCall:
    code: int
    stdout: bytes
    stderr: bytes

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()

    def summary(self) -> dict:
        """What expected.json records for a command."""
        return {"exit": self.code, "stdout_sha256": self.digest,
                "outcome": classify_cli(self)[0].outcome}


def classify_cli(call: CliCall) -> tuple[Verdict, str]:
    """Outcome of one CLI call by cause, and its exit class for cli.* counts."""
    err = call.stderr.decode(errors="replace")
    if "Traceback (most recent call last)" in err:
        last = err.strip().splitlines()[-1]
        return Verdict("failed", note=f"uncaught: {last}"), "uncaught"
    if call.code == 3:
        return Verdict("refused", note="exit 3"), "exit_3"
    if call.code == 2:
        if CAPACITY_RE.search(err):
            return (Verdict("refused", note=f"exit 2, capacity: "
                                            f"{err.strip()}"),
                    "capacity_exit2")
        return Verdict("failed", note=f"usage error: {err.strip()}"), "exit_2"
    if call.code in (0, 1):
        try:
            doc = json.loads(call.stdout)
        except ValueError:
            return (Verdict("failed", True, "stdout is not JSON"),
                    f"exit_{call.code}")
        if isinstance(doc, dict) and "evidence_route" in doc \
                and doc["evidence_route"] is None:
            return (Verdict("refused", note="evidence_route: null"),
                    f"exit_{call.code}")
        return Verdict("answered"), f"exit_{call.code}"
    return Verdict("failed", note=f"exit {call.code}"), "other"


def judge_cli(cold: CliCall, warm: CliCall,
              expected: dict | None) -> tuple[Verdict, Verdict]:
    """Verdicts for the cold and the warm call of one command."""
    verdicts = []
    for call in (cold, warm):
        v, _ = classify_cli(call)
        if (call.code, call.stdout) != (cold.code, cold.stdout):
            v = Verdict("failed", True, "warm output differs from cold")
        elif v.outcome == "answered" and expected is not None \
                and expected["outcome"] == "answered" \
                and (call.code, call.digest) != (expected["exit"],
                                                 expected["stdout_sha256"]):
            v = Verdict("failed", True, "stdout differs from the recorded "
                                        "bytes")
        verdicts.append(v)
    return verdicts[0], verdicts[1]


# ---------------------------------------------------------------------------
# selection


# judge(key, value, recorded value or None) for the in-process workloads
JUDGES = {
    "torsion_grid": _judge_torsion,
    "picard_oracle": _judge_picard,
    "charsum_identities": _judge_charsum,
}

_BUILDERS = {
    "torsion_grid": _torsion_questions,
    "picard_oracle": _picard_questions,
    "charsum_identities": _charsum_questions,
    "cli_cache": _cli_questions,
}


def all_questions(workload: str) -> list[Question]:
    return _BUILDERS[workload]()


def questions(workload: str, seed: int) -> list[Question]:
    """One member of every group, in a fixed order; the seed picks members."""
    rng = random.Random(f"{workload}:{seed}")
    groups: dict[str, list[Question]] = {}
    for qn in all_questions(workload):
        groups.setdefault(qn.group, []).append(qn)
    return [rng.choice(members) for members in groups.values()]
