"""Command-line surface.

One subcommand per question.  Output is readable key: value lines, or
canonical JSON with --json (sorted keys, fixed layout, so identical
invocations with the same seed are byte-identical).  Exit codes:
0 success, 1 a check or hypothesis failed (a report is still printed),
2 usage error, 3 work budget or table cap exceeded.

Results of every subcommand but ``genus``, which is arithmetic on its
arguments alone, can be kept in an on-disk cache (--cache-dir);
--verify-cache recomputes on every hit and fails loudly on any
divergence.  Exit-3 refusals are cached like answers: every cap depends
only on the parameters and on constants in the sources, both of which
are in the cache key.  Exit-1 check failures and exit-2 usage errors
are never cached.

Each check lives in the module that owns it.  A math module refuses a
parameter outside its domain (a p that is not prime, a character order
below 1, a curve it cannot take) with a SuperjacError, which exits 2
with that module's message.  The CLI checks only what it composes
itself: --budget below 1 on every subcommand, ``count --n`` and
``picard --ext`` below 1, and ``genus``'s m and deg F, which it works
out without a math module.

This module imports only the standard library, ``cache`` and
``errors``; each handler imports the math modules it runs, so a cache
hit loads none of them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .cache import ResultCache
from .errors import (BudgetExceeded, CacheMismatch, CheckFailed,
                     EvidenceFailed, HypothesisFailed, IncompleteEnumeration,
                     InvariantViolation, OracleMismatch, SuperjacError)

def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SuperjacError(f"not an integer: {token!r}") from None


def _ints(text: str) -> list[int]:
    return [_int(t) for t in text.split(",") if t.strip()]


def _field(text: str):
    """Parse a finite-field size: 7, 25, or 5^2."""
    from . import gf, primes
    if "^" in text:
        p, n = (_int(t) for t in text.split("^", 1))
        return gf.field(p, n)
    v = _int(text)
    fac = primes.factorize(v)
    if len(fac) != 1:
        raise SuperjacError(f"{v} is not a prime power")
    (p, n), = fac.items()
    return gf.field(p, n)


# ---------------------------------------------------------------------------
# handlers: args -> (exit code, payload)


def _cmd_genus(args):
    if args.r is None and args.f is None:
        raise SuperjacError("genus needs --r or --f")
    if args.m < 2:
        raise SuperjacError(f"m must be at least 2, got {args.m}")
    if args.r is not None:
        r = args.r
    else:
        cs = _ints(args.f)
        while cs and cs[-1] == 0:
            cs.pop()
        r = len(cs) - 1
    if r < 2:
        raise SuperjacError(f"deg F must be at least 2, got {r}")
    d = math.gcd(args.m, r)
    g = ((args.m - 1) * (r - 1) - (d - 1)) // 2
    return 0, {"m": args.m, "r": r, "d": d, "genus": g}


def _cmd_delta_structure(args):
    from . import delta
    factors = delta.delta_structure(args.m, args.r)
    return 0, {"m": args.m, "r": args.r, "factors": list(factors)}


def _replay_curve(args):
    from .curves import make_curve, splitting_extension
    return splitting_extension(make_curve(args.m, _ints(args.f),
                                          _field(args.field)))


def _cmd_proof_replay(args):
    from . import delta
    curve = _replay_curve(args)
    cert = delta.replay_proof(curve, seed=args.seed)
    return 0, cert.to_dict()


def _cmd_principal(args):
    from . import delta
    from .curves import make_curve
    base = _field(args.field) if args.field else None
    curve = make_curve(args.m, _ints(args.f), base)
    coeffs = _ints(args.coeffs)
    verdict = delta.decide_principal_delta(curve, coeffs)
    return 0, {"m": args.m, "coeffs": coeffs, "principal": verdict,
               "cross_checked": base is not None}


def _cmd_gauss(args):
    from . import characters
    g = characters.modified_gauss_sum(args.p, args.q, 1, 1, args.a, args.n)
    ok = characters.gauss_norm_ok(args.p, args.q, 1, 1, args.a, args.n)
    return 0, {"p": args.p, "q": args.q, "a": args.a % args.p, "n": args.n,
               "pair": [1, 1], "ring": f"Z[zeta_{args.p * args.q}]",
               "coeffs": list(g.coeffs), "norm_is_p_to_n": ok}


def _budget(args) -> int:
    from . import zeta
    return zeta.COUNT_BUDGET if args.budget is None else args.budget


def _counts_naive(args, upto: int) -> list[int]:
    from . import zeta
    curve = zeta.artin_schreier_curve(args.p, args.q, args.a)
    return [zeta.count_points(curve, n, _budget(args))
            for n in range(1, upto + 1)]


def _cmd_count(args):
    from . import zeta
    if args.n < 1:
        raise SuperjacError(f"--n must be at least 1, got {args.n}")
    naive = charsum = None
    if args.route in ("naive", "both"):
        naive = _counts_naive(args, args.n)
    if args.route in ("charsum", "both"):
        try:
            charsum = zeta.counts_by_charsum(args.p, args.q, args.a, args.n,
                                             _budget(args))
        except BudgetExceeded:
            # both routes are compared only where the Gauss sums' field fits
            if args.route == "charsum":
                raise
    agree = None
    if naive is not None and charsum is not None:
        agree = naive == charsum
    payload = {"p": args.p, "q": args.q, "a": args.a % args.p, "n": args.n,
               "routes": {"naive": naive, "charsum": charsum},
               "agree": agree}
    return (1 if agree is False else 0), payload


def _lpoly(args):
    from . import zeta
    _, P = zeta.artin_schreier_lpoly(args.p, args.q, args.a, _budget(args))
    return P


def _cmd_zeta(args):
    P = _lpoly(args)
    return 0, {"p": args.p, "q": args.q, "a": args.a % args.p,
               "genus": P.genus, "coeffs": list(P.coeffs)}


def _cmd_jacobian_order(args):
    P = _lpoly(args)
    return 0, {"p": args.p, "q": args.q, "a": args.a % args.p,
               "ext": args.ext, "order": P.jacobian_order(args.ext)}


def _cmd_torsion_test(args):
    from . import zeta
    res = zeta.torsion_criterion(args.p, args.q, level=args.l, a=args.a,
                                 budget=_budget(args))
    return 0, res.to_dict()


def _cmd_power_law(args):
    from . import zeta
    rep = zeta.power_law_check(args.p, args.q, args.a, _budget(args))
    return 0, rep.to_dict()


def _picard_curve(args):
    from . import gf
    from .curves import base_change, make_curve
    # ext 0 would otherwise answer for ext 1
    if args.ext < 1:
        raise SuperjacError(f"--ext must be at least 1, got {args.ext}")
    curve = make_curve(args.m, _ints(args.f), gf.field(args.p))
    if args.ext > 1:
        curve = base_change(curve, gf.field(args.p, args.ext))
    return curve


def _cmd_picard(args):
    from . import picard
    G = picard.picard_group(_picard_curve(args), budget=_budget(args))
    payload = {"m": args.m, "f": _ints(args.f), "p": args.p,
               "ext": args.ext}
    payload.update(G.to_dict())
    return 0, payload


def _cmd_conjecture_test(args):
    from . import picard, zeta
    curve = zeta.artin_schreier_curve(args.p, args.q, args.a)
    rep = picard.conjecture_check(curve, budget=_budget(args))
    return (0 if rep.verdict == "consistent" else 1), rep.to_dict()


def _cmd_rank_certify(args):
    from . import rank
    cert = rank.certify_rank(args.p, args.q, args.k)
    return 0, cert.to_dict()


def _cmd_find_prime(args):
    from . import rank
    p = rank.find_witness_prime(args.m, _ints(args.roots), args.k)
    return 0, {"m": args.m, "roots": _ints(args.roots), "k": args.k,
               "prime": p}


# ---------------------------------------------------------------------------
# wiring

# each option is declared once as (flag, add_argument keywords), each
# group of options once as a tuple, and each subcommand once in _COMMANDS
_INT = {"type": int, "required": True}
_M, _P, _Q, _K = (("--" + name, _INT) for name in "mpqk")
_A = ("--a", _INT)
_A1 = ("--a", {"type": int, "default": 1})
_EXT = ("--ext", {"type": int, "default": 1})
_F_HELP = {"help": "coefficients of F, constant first"}
_CURVE = (_M, ("--f", {"required": True}))       # y^m = F(x)
_AS = (_P, _Q, _A)                               # y^q = x^p - x + a
_AS1 = (_P, _Q, _A1)                             # the same, a defaults to 1

_COMMANDS = (
    ("genus", _cmd_genus, "genus of y^m = F(x)",
     (_M, ("--r", {"type": int, "help": "degree of F"}), ("--f", _F_HELP))),
    ("delta-structure", _cmd_delta_structure,
     "invariant factors of the ramification-supported subgroup",
     (_M, ("--r", _INT))),
    ("proof-replay", _cmd_proof_replay,
     "machine certificate for the subgroup structure on a curve",
     (_M, ("--f", dict(required=True, **_F_HELP)),
      ("--field", {"required": True, "help": "base field, e.g. 7, 5^2"}))),
    ("principal", _cmd_principal, "is sum a_i (R_i - inf) principal?",
     _CURVE + (("--coeffs", {"required": True,
                             "help": "a_1..a_(r-1), comma separated"}),
               ("--field", {"help": "finite base field; omit for Q"}))),
    ("gauss", _cmd_gauss, "modified Gauss sum for the (1,1) pair",
     (_P, ("--q", dict(_INT, help="multiplicative character order, "
                                  "q | p-1")),
      _A, ("--n", {"type": int, "default": 1, "help": "extension level"}))),
    ("count", _cmd_count, "points of y^q = x^p - x + a",
     _AS + (("--n", dict(_INT, help="count over GF(p^1)..GF(p^n)")),
            ("--route", {"choices": ["naive", "charsum", "both"],
                         "default": "both"}))),
    ("zeta", _cmd_zeta, "zeta numerator of y^q = x^p - x + a", _AS),
    ("jacobian-order", _cmd_jacobian_order,
     "|J(GF(p^ext))| for y^q = x^p - x + a", _AS + (_EXT,)),
    ("torsion-test", _cmd_torsion_test,
     "q-torsion of y^(q^l) = x^p - x + a over GF(p)",
     (_P, _Q, ("--l", {"type": int, "default": 1}), _A1)),
    ("power-law", _cmd_power_law,
     "extension orders obey |J(GF(p^k'))| = |J(GF(p))|^k'", _AS1),
    ("picard", _cmd_picard,
     "brute-force class group of y^m = F(x) over GF(p^ext)",
     _CURVE + (_P, _EXT)),
    ("conjecture-test", _cmd_conjecture_test,
     "compare J(GF(p^k)) with J(GF(p))^k as abstract groups", _AS1),
    ("rank-certify", _cmd_rank_certify,
     "rank >= p-1 certificate for y^q = x(x-1)..(x-(p-1)) + k^q",
     (_P, _Q, _K)),
    ("find-prime", _cmd_find_prime,
     "smallest prime divisor of k passing the reduction checks",
     (_M, ("--roots", {"required": True, "help": "comma separated"}), _K)),
)


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print canonical JSON instead of lines")
    common.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result cache")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sub-procedures")
    common.add_argument("--budget", type=int, default=None,
                        help="work cap: the largest field order enumerated "
                             "or summed over")
    common.add_argument("--verify-cache", action="store_true",
                        help="recompute on cache hits and compare")

    top = argparse.ArgumentParser(
        prog="superjac",
        description="exact desk-scale computations on superelliptic "
                    "Jacobians: torsion structure, zeta functions, class "
                    "groups, rank certificates")
    sub = top.add_subparsers(dest="cmd", required=True)
    for name, fn, helptext, options in _COMMANDS:
        sp = sub.add_parser(name, parents=[common], help=helptext)
        sp.set_defaults(func=fn)
        for flag, kw in options:
            sp.add_argument(flag, **kw)
    return top


def _flatten(prefix: str, val, out: list[str]) -> None:
    if isinstance(val, dict):
        for k, v in val.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(val, list) and any(
            isinstance(v, (dict, list)) for v in val):
        for i, v in enumerate(val):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append(f"{prefix}: {val}")


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        lines: list[str] = []
        _flatten("", payload, lines)
        print("\n".join(lines))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    as_json = args.json

    def run():
        # a refusal is a result like an answer, so the cache keeps it
        try:
            code, payload = args.func(args)
        except BudgetExceeded as e:
            return [3, {"error": "budget-exceeded", "detail": str(e)}]
        return [code, payload]

    try:
        # refused for every subcommand, whether or not its handler reads it
        if args.budget is not None and args.budget < 1:
            raise SuperjacError(
                f"--budget must be at least 1, got {args.budget}")
        if args.cache_dir and args.cmd != "genus":
            cache = ResultCache(args.cache_dir, verify=args.verify_cache)
            params = {k: v for k, v in vars(args).items()
                      if k not in ("func", "cmd", "json", "cache_dir",
                                   "verify_cache")}
            code, payload = cache.get_or_compute(args.cmd, params, run)
        else:
            code, payload = run()
    except CheckFailed as e:
        cert = e.certificate.to_dict() if e.certificate else None
        _emit({"error": "check-failed", "tag": e.tag,
               "certificate": cert}, as_json)
        return 1
    except HypothesisFailed as e:
        _emit({"error": "hypothesis-failed", "failed": e.hyp_id,
               "hypotheses": e.report.to_list() if e.report else None},
              as_json)
        return 1
    except (EvidenceFailed, OracleMismatch, IncompleteEnumeration,
            InvariantViolation, CacheMismatch) as e:
        _emit({"error": type(e).__name__, "detail": str(e)}, as_json)
        return 1
    except SuperjacError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(payload, as_json)
    return code


if __name__ == "__main__":
    sys.exit(main())
