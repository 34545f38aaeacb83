"""Exception taxonomy shared across the package.

Every anticipated failure mode gets its own class so callers (and the CLI
exit-code mapping) can react without string matching.  Anything not listed
here is a genuine bug and surfaces as an ordinary exception.
"""


class SuperjacError(Exception):
    """Base class for all package-specific errors."""


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


class OracleMismatch(SuperjacError):
    """Two independent routes to the same value disagree."""


class IncompleteEnumeration(SuperjacError):
    """Class enumeration did not reach the predicted group order."""


class InvariantViolation(SuperjacError):
    """A structural invariant (integrality, functional equation, ...) failed."""


class CheckFailed(SuperjacError):
    """A proof-replay sub-check failed; the tag names the check."""

    def __init__(self, tag: str, certificate=None):
        super().__init__(f"proof check failed: {tag}")
        self.tag = tag
        self.certificate = certificate


class HypothesisFailed(SuperjacError):
    """A certificate hypothesis failed; the report carries the witness."""

    def __init__(self, hyp_id: str, report=None):
        super().__init__(f"hypothesis {hyp_id} failed")
        self.hyp_id = hyp_id
        self.report = report


class CharacterUnavailable(SuperjacError):
    """Requested multiplicative character order does not divide p - 1."""


class EvidenceFailed(SuperjacError):
    """Numerical evidence contradicts a certified conclusion."""


class CacheMismatch(SuperjacError):
    """Cache verification found a stored result differing from recomputation."""
