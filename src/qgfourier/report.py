"""Pass/fail records for property-suite runs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckReport:
    suite: str
    case: str
    status: str  # "pass" | "fail" | "skip"
    witness: str | None = None
    elapsed_ms: float = 0.0

    def __post_init__(self):
        if self.status == "fail" and self.witness is None:
            self.witness = "unspecified failure"

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def passed(reports) -> bool:
    return all(r.ok for r in reports)


def make_report(suite, case, ok, witness=None) -> CheckReport:
    if ok:
        return CheckReport(suite, case, "pass")
    return CheckReport(suite, case, "fail", witness=witness or "identity failed")


def check(suite, case, failures) -> CheckReport:
    """The report of one identity: a fail naming the first witness that
    ``failures`` yields (one per failing case), or a pass if it yields none.

    ``failures`` is usually a generator that decides its cases one at a time,
    so no case after the first failure is computed.
    """
    witness = next(iter(failures), None)
    return make_report(suite, case, witness is None, witness)
