import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superjac
from superjac import cli, curves, delta, errors, gf, picard, rank, zeta
from superjac.cli import main

SRC = str(Path(superjac.__file__).resolve().parents[1])


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_genus(capsys) -> None:
    code, doc = run_json(capsys, ["genus", "--m", "3", "--r", "5"])
    assert code == 0
    assert doc == {"m": 3, "r": 5, "d": 1, "genus": 4}

    code, doc = run_json(capsys,
                         ["genus", "--m", "2", "--f", "0,24,-50,35,-10,1"])
    assert (code, doc["r"], doc["genus"]) == (0, 5, 2)

    # trailing zero coefficients do not raise the degree of F
    code, doc = run_json(capsys, ["genus", "--m", "3", "--f", "1,0,1,0,0"])
    assert (code, doc["r"], doc["genus"]) == (0, 2, 1)


def test_delta_structure(capsys) -> None:
    code, doc = run_json(capsys, ["delta-structure", "--m", "3", "--r", "4"])
    assert code == 0
    assert doc["factors"] == [3, 3, 3]


def test_torsion_test_contract(capsys) -> None:
    code, doc = run_json(capsys, ["torsion-test", "--p", "2", "--q", "7"])
    assert code == 0
    assert doc["has_torsion"] is False
    assert doc["ord"] == 3

    code, doc = run_json(capsys, ["torsion-test", "--p", "2", "--q", "5"])
    assert code == 0
    assert doc["has_torsion"] is True
    assert doc["ord"] == 4


def test_torsion_test_exits_1_on_contradicting_evidence(capsys,
                                                       monkeypatch) -> None:
    # P(1) = 3 is prime to q = 5 although ord_5(2) = 4 is even
    P = zeta.LPolynomial(2, 1, (1, 0, 2))
    monkeypatch.setattr(zeta, "artin_schreier_lpoly",
                        lambda *args, **kw: ("character-sum", P))
    code, doc = run_json(capsys, ["torsion-test", "--p", "2", "--q", "5"])
    assert (code, doc["error"]) == (1, "EvidenceFailed")


def test_proof_replay(capsys) -> None:
    code, doc = run_json(capsys, ["proof-replay", "--m", "2", "--f",
                                  "0,24,-50,35,-10,1", "--field", "11"])
    assert code == 0
    assert doc["verdict"] == "pass"
    assert all(c["pass"] for c in doc["checks"])
    assert doc["genus"] == 2


def test_proof_replay_extends_base(capsys) -> None:
    # x^4 + 1 splits over GF(25), not GF(5)
    code, doc = run_json(capsys, ["proof-replay", "--m", "3", "--f",
                                  "1,0,0,0,1", "--field", "5"])
    assert code == 0
    assert doc["verdict"] == "pass"


def test_principal(capsys) -> None:
    base = ["principal", "--m", "2", "--f", "0,24,-50,35,-10,1"]
    code, doc = run_json(capsys, base + ["--coeffs", "2,0,0,0"])
    assert (code, doc["principal"], doc["cross_checked"]) == (0, True, False)

    code, doc = run_json(capsys,
                         base + ["--coeffs", "1,0,0,0", "--field", "11"])
    assert (code, doc["principal"], doc["cross_checked"]) == (0, False, True)


def test_principal_past_the_precision_cap_exits_3(capsys,
                                                  monkeypatch) -> None:
    monkeypatch.setattr(curves, "PRECISION_CAP", 16)
    code, doc = run_json(capsys, ["principal", "--m", "2", "--f",
                                  "0,24,-50,35,-10,1", "--coeffs", "20,0,0,0",
                                  "--field", "11"])
    assert code == 3
    assert doc["error"] == "budget-exceeded"
    assert "R1" in doc["detail"] and "PRECISION_CAP = 16" in doc["detail"]


def test_principal_refuses_before_solving_past_the_cap(capsys) -> None:
    # the condition at R1 has order 1 030, past PRECISION_CAP = 1024
    code, doc = run_json(capsys, ["principal", "--m", "2", "--f",
                                  "0,24,-50,35,-10,1", "--coeffs",
                                  "1030,0,0,0", "--field", "11"])
    assert (code, doc["error"]) == (3, "budget-exceeded")
    assert "order 1030 at R1" in doc["detail"]
    assert "PRECISION_CAP = 1024" in doc["detail"]


def test_gauss(capsys) -> None:
    code, doc = run_json(capsys, ["gauss", "--p", "5", "--q", "2",
                                  "--a", "1"])
    assert code == 0
    assert doc["norm_is_p_to_n"] is True
    assert doc["ring"] == "Z[zeta_10]"

    code, doc = run_json(capsys, ["gauss", "--p", "7", "--q", "3",
                                  "--a", "2", "--n", "2"])
    assert (code, doc["norm_is_p_to_n"]) == (0, True)

    code, doc = run_json(capsys, ["gauss", "--p", "7", "--q", "3",
                                  "--a", "2", "--n", "6"])
    assert (code, doc["norm_is_p_to_n"]) == (0, True)

    # GF(3^14) has 4782969 elements, past the table cap
    code, doc = run_json(capsys, ["gauss", "--p", "3", "--q", "2",
                                  "--a", "1", "--n", "14"])
    assert (code, doc["error"]) == (3, "budget-exceeded")
    assert "GF(3^14)" in doc["detail"] and "4194304" in doc["detail"]


def test_count_routes(capsys) -> None:
    code, doc = run_json(capsys, ["count", "--p", "3", "--q", "2",
                                  "--a", "1", "--n", "3"])
    assert code == 0
    assert doc["routes"]["naive"] == doc["routes"]["charsum"] == [7, 7, 28]
    assert doc["agree"] is True

    # q need not divide p - 1: the k = 3 factor is tested over GF(8)
    code, doc = run_json(capsys, ["count", "--p", "2", "--q", "7",
                                  "--a", "1", "--n", "3"])
    assert code == 0
    assert doc["routes"]["naive"] == doc["routes"]["charsum"] == [3, 5, 15]
    assert doc["agree"] is True

    # the Gauss sums of order 31 live over GF(7^15), past the table cap;
    # route=both degrades to naive only
    code, doc = run_json(capsys, ["count", "--p", "7", "--q", "31",
                                  "--a", "1", "--n", "1"])
    assert code == 0
    assert doc["routes"] == {"naive": [8], "charsum": None}
    assert doc["agree"] is None

    # and where --budget refuses the Gauss sums: ord_7(2) = 3, and GF(2^3)
    # is past a budget of 4 while GF(2) is not
    code, doc = run_json(capsys, ["count", "--p", "2", "--q", "7", "--a",
                                  "1", "--n", "1", "--budget", "4"])
    assert code == 0
    assert doc["routes"] == {"naive": [3], "charsum": None}

    code, doc = run_json(capsys, ["count", "--p", "7", "--q", "31",
                                  "--a", "1", "--n", "1", "--route",
                                  "charsum"])
    assert (code, doc["error"]) == (3, "budget-exceeded")
    assert "GF(7^15)" in doc["detail"]

    # GF(7^8) is past the table cap, the Gauss sums of order 3 are not:
    # route=both degrades to charsum only
    argv = ["count", "--p", "7", "--q", "3", "--a", "1", "--n", "8"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["routes"] == {"naive": None, "charsum": [
        22, 22, 337, 2206, 17347, 117013, 823544, 5771662]}
    assert doc["agree"] is None
    code, doc = run_json(capsys, argv + ["--route", "naive"])
    assert (code, doc["error"]) == (3, "budget-exceeded")
    assert doc["detail"] == "GF(7^8) exceeds the table cap 4194304"

    # refused by both routes: exit 3, naming each route's field
    code, doc = run_json(capsys, ["count", "--p", "7", "--q", "31",
                                  "--a", "1", "--n", "8"])
    assert (code, doc["error"]) == (3, "budget-exceeded")
    assert doc["detail"].startswith(
        "naive: GF(7^8) exceeds the table cap 4194304; charsum: ")
    assert "GF(7^15)" in doc["detail"]


def test_zeta_both_routes(capsys) -> None:
    # charsum route: 3 - 1 is divisible by q = 2
    code, doc = run_json(capsys, ["zeta", "--p", "3", "--q", "2",
                                  "--a", "1"])
    # P(1) = 7 matches the known class number of this curve
    assert (code, doc["coeffs"]) == (0, [1, 3, 3])

    # counts route: 7 does not divide 2 - 1
    code, doc = run_json(capsys, ["zeta", "--p", "2", "--q", "7",
                                  "--a", "1"])
    assert (code, doc["coeffs"]) == (0, [1, 0, 0, 2, 0, 0, 8])


def test_jacobian_order(capsys) -> None:
    code, doc = run_json(capsys, ["jacobian-order", "--p", "2", "--q", "7",
                                  "--a", "1", "--ext", "3"])
    assert (code, doc["order"]) == (0, 1331)


def test_power_law(capsys) -> None:
    code, doc = run_json(capsys, ["power-law", "--p", "2", "--q", "5"])
    assert code == 0
    assert doc["ok"] is True
    assert doc["power_law_at"] == [1, 2, 4]


def test_picard(capsys) -> None:
    code, doc = run_json(capsys, ["picard", "--m", "3", "--f", "1,1,1",
                                  "--p", "2"])
    assert code == 0
    assert doc["order"] == 3
    assert doc["invariant_factors"] == [3]

    code, doc = run_json(capsys, ["picard", "--m", "3", "--f", "1,1,1",
                                  "--p", "2", "--ext", "2"])
    assert (code, doc["invariant_factors"]) == (0, [3, 3])

    # F = x^5 + 2x + 1 has one rational root and does not split
    code, doc = run_json(capsys, ["picard", "--m", "2", "--f",
                                  "1,2,0,0,0,1", "--p", "5"])
    assert code == 0
    assert (doc["order"], doc["invariant_factors"], doc["lpoly"]) == \
        (26, [26], [1, 0, 0, 0, 25])


def test_picard_with_more_places_than_the_recursion_limit(capsys) -> None:
    # 1 008 rational places: the class enumeration once recursed one
    # frame per place, past the default recursion limit of 1 000
    code, doc = run_json(capsys, ["picard", "--m", "2", "--f", "2,1,0,1",
                                  "--p", "1009"])
    assert code == 0
    assert (doc["order"], doc["invariant_factors"], doc["lpoly"]) == \
        (1008, [4, 252], [1, -2, 1009])


def test_conjecture_test(capsys) -> None:
    code, doc = run_json(capsys, ["conjecture-test", "--p", "2", "--q", "3",
                                  "--a", "1"])
    assert code == 0
    assert doc["verdict"] == "consistent"


def test_rank_certify(capsys) -> None:
    code, doc = run_json(capsys, ["rank-certify", "--p", "3", "--q", "2",
                                  "--k", "10"])
    assert code == 0
    assert doc["conclusion"]["rank_lower_bound"] == 2
    assert doc["evidence"]["q_divides"] is False

    code, doc = run_json(capsys, ["rank-certify", "--p", "5", "--q", "2",
                                  "--k", "10"])
    assert code == 1
    assert doc["error"] == "hypothesis-failed"
    assert "conclusion" not in doc


def test_find_prime(capsys) -> None:
    code, doc = run_json(capsys, ["find-prime", "--m", "2", "--roots",
                                  "0,1,2", "--k", "10"])
    assert (code, doc["prime"]) == (0, 5)

    code, doc = run_json(capsys, ["find-prime", "--m", "2", "--roots",
                                  "0,1,2", "--k", "4"])
    assert (code, doc["prime"]) == (0, None)


def test_budget_exit_code(capsys) -> None:
    code, doc = run_json(capsys, ["count", "--p", "5", "--q", "2", "--a",
                                  "1", "--n", "4", "--route", "naive",
                                  "--budget", "10"])
    assert code == 3
    assert doc["error"] == "budget-exceeded"


def test_capacity_exit_code(capsys) -> None:
    # |J| = 521 is prime for every a: the first kernel scan alone would be
    # 521 principality tests with 2 081 unknowns each
    assert picard.SCAN_CAP == 50_000
    for a in "1234":
        code, doc = run_json(capsys, ["conjecture-test", "--p", "5", "--q",
                                      "3", "--a", a])
        assert code == 3
        assert doc["error"] == "budget-exceeded"
        assert "|J| = 521 needs 1084201" in doc["detail"]
        assert "SCAN_CAP = 50000" in doc["detail"]

    # ord_29(7) = 7 is odd: no closed form, and GF(7^7) is past the budget
    code, doc = run_json(capsys, ["zeta", "--p", "7", "--q", "29", "--a",
                                  "1", "--budget", "200000"])
    assert code == 3
    assert "GF(7^7)" in doc["detail"]


@pytest.mark.parametrize("argv,detail", [
    (["zeta", "--p", "7", "--q", "3", "--a", "1", "--budget", "5"],
     "GF(7"),
    (["count", "--p", "7", "--q", "3", "--a", "1", "--n", "1", "--route",
      "charsum", "--budget", "5"], "GF(7^1)"),
    # 4194319 is the least prime past the table cap, and 3 divides p - 1
    (["rank-certify", "--p", "4194319", "--q", "3", "--k", "4194329"],
     "table cap 4194304"),
], ids=["zeta", "count", "rank-certify"])
def test_character_sums_obey_the_budget_and_the_cap(capsys, argv,
                                                    detail) -> None:
    code, doc = run_json(capsys, argv)
    assert (code, doc["error"]) == (3, "budget-exceeded")
    assert detail in doc["detail"]


def test_class_group_past_the_old_splitting_field(capsys) -> None:
    # places of degrees 3 and 4 once needed the common field GF(5^12)
    code, doc = run_json(capsys, ["picard", "--m", "3", "--f", "1,2,0,0,0,1",
                                  "--p", "5"])
    assert code == 0
    assert doc["order"] == sum(doc["lpoly"]) == 576
    assert doc["invariant_factors"] == [24, 24]


def test_splitting_field_past_the_cap_is_a_capacity_exit(capsys,
                                                        monkeypatch) -> None:
    # x^3 + x + 1 is irreducible over GF(2^8): it splits over GF(2^24),
    # which is past the table cap
    built = []
    field = gf.field

    def recording(p, n=1):
        built.append((p, n))
        return field(p, n)
    monkeypatch.setattr(gf, "field", recording)

    code, doc = run_json(capsys, ["proof-replay", "--m", "3", "--f",
                                  "1,1,0,1", "--field", "2^8"])
    assert code == 3
    assert doc["error"] == "budget-exceeded"
    assert "GF(2^24)" in doc["detail"]
    assert "table cap 4194304" in doc["detail"]
    # the splitting degree 3 comes from the factorisation: no
    # intermediate extension such as GF(2^16) is built or scanned
    assert (2, 16) not in built
    assert (2, 24) in built


def test_zeta_past_the_enumeration_wall(capsys) -> None:
    argv = ["jacobian-order", "--p", "3", "--q", "13", "--a", "1"]
    code, doc = run_json(capsys, argv + ["--budget", "200000"])
    assert (code, doc["order"]) == (0, 1_054_729)
    # 7^5 = -1 mod 11: the Gauss sum over GF(7^10) has a closed form
    code, doc = run_json(capsys, ["zeta", "--p", "7", "--q", "11", "--a",
                                  "1", "--budget", "200000"])
    assert code == 0
    assert len(doc["coeffs"]) == 2 * doc["genus"] + 1 == 61


def test_usage_exit_codes(capsys) -> None:
    code, _ = run(capsys, ["zeta", "--p", "4", "--q", "3", "--a", "1"])
    assert code == 2  # 4 is not prime

    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--p", "2"])  # missing required flags
    assert exc.value.code == 2
    capsys.readouterr()


# parameters outside a routine's domain; each is refused as a usage error
BAD_PARAMETERS = [
    ["count", "--p", "3", "--q", "2", "--a", "3", "--n", "2"],
    ["zeta", "--p", "3", "--q", "2", "--a", "3"],
    ["torsion-test", "--p", "3", "--q", "2", "--a", "3"],
    ["power-law", "--p", "3", "--q", "2", "--a", "3"],
    ["torsion-test", "--p", "4", "--q", "3"],
    ["torsion-test", "--p", "3", "--q", "3"],
    ["torsion-test", "--p", "2", "--q", "5", "--l", "0"],
    ["delta-structure", "--m", "1", "--r", "3"],
    ["delta-structure", "--m", "3", "--r", "1"],
    ["picard", "--m", "1", "--f", "1,1,1", "--p", "2"],
    ["picard", "--m", "3", "--f", "1,1", "--p", "5"],
    ["principal", "--m", "2", "--f", "0,24,-50,35,-10,1", "--coeffs", "2,0",
     "--field", "11"],
    ["jacobian-order", "--p", "3", "--q", "2", "--a", "1", "--ext", "0"],
    ["genus", "--m", "0", "--r", "3"],
    ["genus", "--m", "1", "--r", "3"],
    ["genus", "--m", "3", "--r", "1"],
    ["genus", "--m", "2", "--f", "1,1,0"],
    ["find-prime", "--m", "1", "--roots", "0,1", "--k", "10"],
    ["find-prime", "--m", "2", "--roots", "0", "--k", "10"],
    ["find-prime", "--m", "2", "--roots", "3,3", "--k", "10"],
    ["picard", "--m", "3", "--f", "1,1,1", "--p", "2", "--ext", "0"],
    ["picard", "--m", "3", "--f", "1,1,1", "--p", "2", "--ext", "-2"],
    ["count", "--p", "3", "--q", "2", "--a", "1", "--n", "0"],
    ["count", "--p", "3", "--q", "2", "--a", "1", "--n", "-1"],
    ["zeta", "--p", "2", "--q", "7", "--a", "1", "--budget", "0"],
    ["zeta", "--p", "2", "--q", "7", "--a", "1", "--budget", "-1"],
    # --budget below 1 is refused on the charsum route too
    ["count", "--p", "3", "--q", "2", "--a", "1", "--n", "3", "--route",
     "charsum", "--budget", "0"],
    # malformed integers name the bad token
    ["genus", "--m", "3", "--f", "1,x"],
    ["find-prime", "--m", "2", "--roots", "0,1,x", "--k", "10"],
    ["principal", "--m", "2", "--f", "0,24,-50,35,-10,1", "--coeffs", "2,0",
     "--field", "5^x"],
    ["principal", "--m", "2", "--f", "0,24,-50,35,-10,1", "--coeffs", "2,0",
     "--field", "x"],
    # character orders below 1
    ["gauss", "--p", "7", "--q", "0", "--a", "1"],
    ["gauss", "--p", "7", "--q", "-3", "--a", "1"],
    # y^m = x^p - x + a needs m >= 2 on every route
    ["zeta", "--p", "7", "--q", "1", "--a", "1"],
    ["jacobian-order", "--p", "7", "--q", "1", "--a", "1"],
    ["zeta", "--p", "7", "--q", "-2", "--a", "1"],
    ["count", "--p", "7", "--q", "0", "--a", "1", "--n", "1", "--route",
     "charsum"],
    # a characteristic that is not prime, refused by the math layer
    ["gauss", "--p", "0", "--q", "1", "--a", "1"],
    ["gauss", "--p", "4", "--q", "3", "--a", "1"],
    ["count", "--p", "4", "--q", "3", "--a", "1", "--n", "1"],
    ["jacobian-order", "--p", "9", "--q", "2", "--a", "1"],
    ["picard", "--m", "3", "--f", "1,1,1", "--p", "4"],
]


@pytest.mark.parametrize("argv", BAD_PARAMETERS, ids=" ".join)
def test_bad_parameters_are_usage_errors(capsys, argv) -> None:
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# the smallest valid arguments of each subcommand
VALID_ARGS = {
    "genus": ["--m", "3", "--r", "5"],
    "delta-structure": ["--m", "4", "--r", "6"],
    "proof-replay": ["--m", "2", "--f", "0,24,-50,35,-10,1", "--field",
                     "11"],
    "principal": ["--m", "2", "--f", "0,24,-50,35,-10,1", "--coeffs",
                  "2,0,0,0"],
    "gauss": ["--p", "7", "--q", "3", "--a", "1"],
    "count": ["--p", "3", "--q", "2", "--a", "1", "--n", "3"],
    "zeta": ["--p", "2", "--q", "7", "--a", "1"],
    "jacobian-order": ["--p", "2", "--q", "7", "--a", "1"],
    "torsion-test": ["--p", "2", "--q", "5"],
    "power-law": ["--p", "2", "--q", "5"],
    "picard": ["--m", "3", "--f", "1,1,1", "--p", "2"],
    "conjecture-test": ["--p", "2", "--q", "3"],
    "rank-certify": ["--p", "3", "--q", "2", "--k", "10"],
    "find-prime": ["--m", "2", "--roots", "0,1,2", "--k", "10"],
}
# the subcommands whose handlers pass a work cap on
BUDGET_READERS = {"count", "zeta", "jacobian-order", "torsion-test",
                  "power-law", "picard", "conjecture-test"}


@pytest.mark.parametrize("name", [c[0] for c in cli._COMMANDS])
def test_budget_and_seed_only_where_read(capsys, name) -> None:
    argv = [name] + VALID_ARGS[name]
    if name in BUDGET_READERS:
        assert main(argv + ["--budget", "0"]) == 2
        assert "--budget must be at least 1" in capsys.readouterr().err
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 5" in \
            capsys.readouterr().err
    if name == "proof-replay":
        assert cli._parser().parse_args(argv + ["--seed", "3"]).seed == 3
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_undeclared_flag_shows_the_subcommand_usage(capsys) -> None:
    # gauss takes no --budget: the refusal shows gauss's own usage, not
    # the top-level one with every subcommand's name
    with pytest.raises(SystemExit) as exc:
        main(["gauss", "--p", "7", "--q", "3", "--a", "2", "--n", "6",
              "--budget", "10"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: superjac gauss")
    assert "superjac gauss: error: unrecognized arguments: --budget 10" in err
    assert "delta-structure" not in err


def test_charsum_refusal_names_the_table_cap(capsys) -> None:
    # no budget below the cap was given: the cap is the one limit named
    code, doc = run_json(capsys, ["count", "--p", "7", "--q", "31", "--a",
                                  "1", "--n", "8", "--route", "charsum"])
    assert (code, doc["error"]) == (3, "budget-exceeded")
    assert doc["detail"].endswith(
        "character sums GF(7^15); the limit is the table cap 4194304")
    assert doc["detail"].count("4194304") == 1
    assert "budget" not in doc["detail"]


def test_charsum_refusal_names_the_budget(capsys) -> None:
    code, doc = run_json(capsys, ["count", "--p", "7", "--q", "31", "--a",
                                  "1", "--n", "1", "--route", "charsum",
                                  "--budget", "1000"])
    assert (code, doc["error"]) == (3, "budget-exceeded")
    assert doc["detail"].endswith(
        "character sums GF(7^15); the limit is the budget 1000")
    assert "table cap" not in doc["detail"]


class _Certificate:
    def to_dict(self):
        return {"verdict": "fail"}


class _Report:
    def to_list(self):
        return [{"id": "H1", "ok": False}]


# every class of errors, raised by a handler: its exit code and stdout
ERROR_EXITS = {
    "SuperjacError": (2, None),
    "CheckError": (1, {"error": "CheckError", "detail": "boom"}),
    "BudgetExceeded": (3, {"error": "budget-exceeded", "detail": "boom"}),
    "PrecisionExhausted": (3, {"error": "budget-exceeded",
                               "detail": "boom"}),
    "UnsupportedCollision": (2, None),
    "RequiresD1": (2, None),
    "RequiresSplitRoots": (2, None),
    "NotSeparable": (2, None),
    "UnsupportedBase": (2, None),
    "CharacterUnavailable": (2, None),
    "OracleMismatch": (1, {"error": "OracleMismatch", "detail": "boom"}),
    "IncompleteEnumeration": (1, {"error": "IncompleteEnumeration",
                                  "detail": "boom"}),
    "InvariantViolation": (1, {"error": "InvariantViolation",
                               "detail": "boom"}),
    "EvidenceFailed": (1, {"error": "EvidenceFailed", "detail": "boom"}),
    "CacheMismatch": (1, {"error": "CacheMismatch", "detail": "boom"}),
    "CheckFailed": (1, {"error": "check-failed", "tag": "boom",
                        "certificate": {"verdict": "fail"}}),
    "HypothesisFailed": (1, {"error": "hypothesis-failed", "failed": "boom",
                             "hypotheses": [{"id": "H1", "ok": False}]}),
}


def test_error_table_covers_every_class() -> None:
    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, Exception)}
    assert classes == set(ERROR_EXITS)


@pytest.mark.parametrize("name", sorted(ERROR_EXITS))
@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
def test_exit_code_follows_the_error_class(capsys, monkeypatch, name,
                                           as_json) -> None:
    cls = getattr(errors, name)
    extra = {"CheckFailed": (_Certificate(),),
             "HypothesisFailed": (_Report(),)}.get(name, ())

    def raising(*_a, **_k):
        raise cls("boom", *extra)
    monkeypatch.setattr(delta, "delta_structure", raising)
    code = main(["delta-structure", "--m", "3", "--r", "4"]
                + ["--json"] * as_json)
    out, err = capsys.readouterr()
    want_code, payload = ERROR_EXITS[name]
    assert code == want_code
    if payload is None:
        assert (out, err) == ("", "error: boom\n")
    elif as_json:
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        cli._flatten("", payload, lines)
        assert out == "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv,token", [
    (["genus", "--m", "3", "--f", "1,x"], "'x'"),
    (["find-prime", "--m", "2", "--roots", "0,1,2.5", "--k", "10"], "'2.5'"),
    (["principal", "--m", "2", "--f", "0,1,1", "--coeffs", "1",
      "--field", "5^two"], "'two'"),
])
def test_malformed_integers_name_the_token(capsys, argv, token) -> None:
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: not an integer: {token}\n"


def test_bad_parameters_are_usage_errors_under_python_O() -> None:
    script = ("import json, sys\n"
              "from superjac.cli import main\n"
              "print(json.dumps([main(a) for a in json.loads(sys.argv[1])]))")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(BAD_PARAMETERS)],
        capture_output=True, text=True, env=_env())
    assert "Traceback" not in proc.stderr, proc.stderr
    assert json.loads(proc.stdout) == [2] * len(BAD_PARAMETERS)


def test_domain_checks_keep_their_conditions(capsys) -> None:
    # a = 0 is outside only the character-sum routines' domain
    code, doc = run_json(capsys, ["jacobian-order", "--p", "5", "--q", "3",
                                  "--a", "0"])
    assert code == 0 and doc["order"] > 0
    code, doc = run_json(capsys, ["count", "--p", "3", "--q", "2", "--a",
                                  "3", "--n", "2", "--route", "naive"])
    assert code == 0 and doc["routes"]["charsum"] is None
    # the smallest curves the genus and find-prime checks let through
    code, doc = run_json(capsys, ["genus", "--m", "2", "--r", "2"])
    assert (code, doc["genus"]) == (0, 0)
    code, doc = run_json(capsys, ["find-prime", "--m", "2", "--roots",
                                  "0,1", "--k", "10"])
    assert code == 0


def test_json_deterministic(capsys) -> None:
    argv = ["proof-replay", "--m", "2", "--f", "0,24,-50,35,-10,1",
            "--field", "11", "--seed", "3", "--json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_cache_roundtrip(tmp_path, capsys) -> None:
    argv = ["zeta", "--p", "2", "--q", "7", "--a", "1", "--json",
            "--cache-dir", str(tmp_path)]
    _, first = run(capsys, argv)
    assert len(list(tmp_path.rglob("*.json"))) == 1
    _, second = run(capsys, argv)
    assert first == second
    _, third = run(capsys, argv + ["--verify-cache"])
    assert first == third


def test_genus_writes_no_cache_entry(tmp_path, capsys) -> None:
    # genus is arithmetic on its arguments alone, the one subcommand that
    # is never cached
    argv = ["genus", "--m", "3", "--r", "5", "--cache-dir", str(tmp_path)]
    for flags in ([], ["--json"], ["--verify-cache"]):
        code, out = run(capsys, argv + flags)
        assert code == 0 and "4" in out
    assert not list(tmp_path.rglob("*"))


def test_cache_verify_detects_tampering(tmp_path, capsys) -> None:
    argv = ["zeta", "--p", "2", "--q", "7", "--a", "1", "--json",
            "--cache-dir", str(tmp_path)]
    run(capsys, argv)
    path = next(tmp_path.rglob("*.json"))
    doc = json.loads(path.read_text())
    doc["result"][1]["genus"] = 99
    path.write_text(json.dumps(doc))

    code, doc = run_json(capsys, argv + ["--verify-cache"])
    assert code == 1
    assert doc["error"] == "CacheMismatch"


def test_refusals_are_cached_and_failures_are_not(tmp_path, capsys) -> None:
    def entries():
        return sorted(tmp_path.rglob("*.json"))

    cache = ["--cache-dir", str(tmp_path)]
    argv = ["count", "--p", "5", "--q", "2", "--a", "1", "--n", "4",
            "--route", "naive", "--budget", "10", "--json"] + cache
    code, cold = run(capsys, argv)
    assert code == 3
    assert len(entries()) == 1
    assert run(capsys, argv) == (3, cold)
    assert run(capsys, argv + ["--verify-cache"]) == (3, cold)

    # exit 2: multiplicative characters of order 5 need 5 | 6
    code, _ = run(capsys, ["gauss", "--p", "7", "--q", "5", "--a", "1"]
                  + cache)
    assert code == 2
    # exit 1: a failed certificate hypothesis
    code, _ = run(capsys, ["rank-certify", "--p", "5", "--q", "2", "--k",
                           "10"] + cache)
    assert code == 1
    assert len(entries()) == 1

    # exit 1: a CacheMismatch leaves the stored entry as it is
    path, = entries()
    doc = json.loads(path.read_text())
    doc["result"][1]["detail"] = "tampered"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, argv + ["--verify-cache"])
    assert (code, json.loads(out)["error"]) == (1, "CacheMismatch")
    assert entries() == [path]
    assert json.loads(path.read_text()) == doc


def test_warm_refusal_skips_the_class_group_work(tmp_path, capsys,
                                                  monkeypatch) -> None:
    calls = []
    for name in ("count_points", "enumerate_places", "function_space"):
        def recording(*a, _fn=getattr(picard, name), _name=name, **k):
            calls.append(_name)
            return _fn(*a, **k)
        monkeypatch.setattr(picard, name, recording)

    argv = ["conjecture-test", "--p", "5", "--q", "3", "--a", "1", "--json",
            "--cache-dir", str(tmp_path)]
    code, cold = run(capsys, argv)
    # the cold run counts points for P(1) and refuses before any place
    # enumeration or Riemann-Roch solve
    assert code == 3 and set(calls) == {"count_points"}
    calls.clear()
    assert run(capsys, argv) == (3, cold)
    assert not calls


@pytest.mark.parametrize("argv,module,fn", [
    (["delta-structure", "--m", "3", "--r", "4"], delta, "delta_structure"),
    (["principal", "--m", "2", "--f", "0,24,-50,35,-10,1", "--coeffs",
      "2,0,0,0", "--field", "11"], delta, "decide_principal_delta"),
    (["find-prime", "--m", "2", "--roots", "0,1", "--k", "10"], rank,
     "find_witness_prime"),
], ids=["delta-structure", "principal", "find-prime"])
def test_math_subcommands_are_cached(tmp_path, capsys, monkeypatch, argv,
                                     module, fn) -> None:
    calls = []

    def recording(*a, _fn=getattr(module, fn), **k):
        calls.append(a)
        return _fn(*a, **k)

    monkeypatch.setattr(module, fn, recording)
    for flags in ([], ["--json"]):
        calls.clear()
        cache = tmp_path / "_".join(["plain"] + flags)
        cold = run(capsys, argv + flags + ["--cache-dir", str(cache)])
        assert cold[0] == 0 and len(calls) == 1
        assert len(list(cache.rglob("*.json"))) == 1
        # byte-identical stdout, lines in the same order, and the warm
        # call is a hit
        assert run(capsys, argv + flags + ["--cache-dir", str(cache)]) == cold
        assert len(calls) == 1


def test_cache_hits_load_no_math_module(tmp_path, capsys) -> None:
    argv = ["zeta", "--p", "2", "--q", "7", "--a", "1", "--json",
            "--cache-dir", str(tmp_path)]
    _, cold = run(capsys, argv)
    script = (
        "import json, sys\n"
        "from superjac.cli import main\n"
        "main(['genus', '--m', '3', '--r', '5'])\n"
        f"main({argv!r})\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    out, loaded = proc.stdout.rsplit("\n", 2)[:2]
    assert out.endswith(cold.rstrip("\n"))
    math_modules = {f"superjac.{m}" for m in (
        "gf", "curves", "zeta", "picard", "delta", "rank", "characters",
        "cyclo")}
    assert not math_modules & set(json.loads(loaded))


def test_package_exports_resolve() -> None:
    for name in superjac.__all__:
        assert getattr(superjac, name) is not None
    with pytest.raises(AttributeError):
        getattr(superjac, "no_such_name")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_prime_base_field_is_a_usage_error(flags) -> None:
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "superjac", "proof-replay", "--m",
         "3", "--f", "1,1,1", "--field", "4^2"],
        capture_output=True, text=True, env=_env())
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "4 is not prime" in proc.stderr


def test_plain_output_lines(capsys) -> None:
    code, out = run(capsys, ["delta-structure", "--m", "3", "--r", "4"])
    assert code == 0
    assert "factors: [3, 3, 3]" in out


def test_console_script() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "superjac", "genus", "--m", "2", "--r", "5",
         "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["genus"] == 2
