"""Rank lower-bound certificates for y^q = x(x-1)...(x-(p-1)) + k^q.

Reduced Jacobian orders frozen from the character-sum route and checked
odd/coprime to q by hand: (3,2,10) -> 7, (5,2,14) -> 71.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import superjac
from superjac import rank
from superjac.errors import HypothesisFailed, SuperjacError


def test_hypothesis_report_h2_failure():
    rep = rank.check_freeness_hypotheses(2, [0, 1, 2], 10, 3)
    assert [(h.id, h.ok) for h in rep.items] == [
        ("H1", True), ("H2", False), ("H3", True), ("H4", True)]
    assert rep.items[1].witness == {"k_mod_p": 1}
    assert not rep.all_pass()


def test_hypothesis_report_all_pass():
    assert rank.check_freeness_hypotheses(2, [0, 1, 2], 15, 3).all_pass()


def test_hypothesis_report_h3_collision():
    rep = rank.check_freeness_hypotheses(2, [0, 1, 3], 15, 3)
    h3 = rep.items[2]
    assert not h3.ok
    assert h3.witness == {"colliding_pair": [0, 3]}


def test_find_witness_prime():
    assert rank.find_witness_prime(2, [0, 1, 2], 10) == 5
    assert rank.find_witness_prime(2, [0, 1, 2], 4) is None
    assert rank.find_witness_prime(2, [0, 1, 2, 3, 4], 15) == 5
    assert rank.find_witness_prime(2, [0, 1, 2], 0) is None


@pytest.mark.parametrize("p,q,k,order", [
    (3, 2, 10, 7),
    (5, 2, 14, 71),
    (7, 3, 22, 639367),
])
def test_certificates(p, q, k, order):
    cert = rank.certify_rank(p, q, k)
    assert cert.rank_lower_bound == p - 1
    assert cert.evidence["jacobian_order"] == order
    assert order % q != 0
    assert not cert.evidence["q_divides"]
    assert cert.evidence["a"] == pow(k, q, p)
    assert len(cert.generators) == p
    assert cert.roots == tuple(range(p))
    assert all(h.ok for h in cert.hypotheses)
    d = cert.to_dict()
    assert d["conclusion"]["rank_lower_bound"] == p - 1
    assert d["curve"] == {"m": q, "roots": list(range(p)), "k": k}
    assert {h["id"] for h in d["hypotheses"]} == {
        "T1", "T2", "T3", "T4", "H1", "H3", "H4"}


@pytest.mark.parametrize("p,q,k,bad", [
    (5, 2, 10, {"T3", "T4"}),
    (3, 2, 9, {"T3", "T4"}),
    (4, 2, 10, {"T1", "T2"}),
    (3, 5, 35, {"T2"}),
])
def test_no_certificate_on_failed_hypothesis(p, q, k, bad):
    with pytest.raises(HypothesisFailed) as exc:
        rank.certify_rank(p, q, k)
    assert {h.id for h in exc.value.report.failed()} == bad
    assert exc.value.hyp_id in bad


def test_evidence_orders_coprime_to_q_on_grid():
    # q | p-1 grid through 13: the reduced order is never divisible by q
    for p in (3, 5, 7, 11, 13):
        for q in (2, 3, 5, 7, 11):
            if q >= p or (p - 1) % q:
                continue
            big = next(x for x in range(p + 1, 200) if rank.is_prime(x))
            cert = rank.certify_rank(p, q, big)
            assert cert.evidence["jacobian_order"] % q != 0


def test_relation_check_is_typed_under_python_O():
    # a valuation engine that returns the wrong div(y - k) must stop the
    # certificate, also with asserts stripped
    code = ("from superjac import rank\n"
            "from superjac.curves import Divisor\n"
            "from superjac.errors import OracleMismatch\n"
            "rank.principal_divisor = lambda curve, f: Divisor()\n"
            "try:\n"
            "    rank.certify_rank(3, 2, 10)\n"
            "except OracleMismatch as exc:\n"
            "    print(str(exc))\n")
    src = str(Path(superjac.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "div(y - k)" in proc.stdout


def test_composite_modulus_is_a_usage_error():
    with pytest.raises(SuperjacError):
        rank.check_freeness_hypotheses(2, [0, 1, 2], 15, 4)
