"""Exception taxonomy shared across the package.

Every anticipated failure mode gets its own class so callers can react
without string matching: the CLI exits 3 on a BudgetExceeded, 1 on a
CheckError, printing its payload(), and 2 on the rest.  Anything not
listed here is a genuine bug and surfaces as an ordinary exception.
"""


class SuperjacError(Exception):
    """Base class for all package-specific errors."""


class CheckError(SuperjacError):
    """A check, oracle or hypothesis failed: the report is the payload."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "detail": str(self)}


class BudgetExceeded(SuperjacError):
    """A computation would exceed the configured work budget."""


class PrecisionExhausted(BudgetExceeded):
    """A local expansion hit the precision cap without settling."""


class UnsupportedCollision(SuperjacError):
    """The infinite place has no local expansion, or a valuation there
    needs branch separation."""


class RequiresD1(SuperjacError):
    """Operation only defined when gcd(m, deg F) = 1."""


class RequiresSplitRoots(SuperjacError):
    """Operation needs all roots of F rational over the base field."""


class NotSeparable(SuperjacError):
    """F has a repeated root over the base field."""


class UnsupportedBase(SuperjacError):
    """Operation not available over this base field."""


class OracleMismatch(CheckError):
    """Two independent routes to the same value disagree."""


class IncompleteEnumeration(CheckError):
    """Class enumeration did not reach the predicted group order."""


class InvariantViolation(CheckError):
    """A structural invariant (integrality, functional equation, ...) failed."""


class CheckFailed(CheckError):
    """A proof-replay sub-check failed; the tag names the check."""

    def __init__(self, tag: str, certificate=None):
        super().__init__(f"proof check failed: {tag}")
        self.tag = tag
        self.certificate = certificate

    def payload(self) -> dict:
        cert = self.certificate and self.certificate.to_dict()
        return {"error": "check-failed", "tag": self.tag, "certificate": cert}


class HypothesisFailed(CheckError):
    """A certificate hypothesis failed; the report carries the witness."""

    def __init__(self, hyp_id: str, report=None):
        super().__init__(f"hypothesis {hyp_id} failed")
        self.hyp_id = hyp_id
        self.report = report

    def payload(self) -> dict:
        return {"error": "hypothesis-failed", "failed": self.hyp_id,
                "hypotheses": self.report and self.report.to_list()}


class CharacterUnavailable(SuperjacError):
    """Requested multiplicative character order does not divide p - 1."""


class EvidenceFailed(CheckError):
    """Numerical evidence contradicts a certified conclusion."""


class CacheMismatch(CheckError):
    """Cache verification found a stored result differing from recomputation."""
