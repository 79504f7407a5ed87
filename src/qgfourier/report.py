"""Pass/fail records for property-suite runs.

There is one way to report an identity: ``check(suite, case, failures)``.
Every ``CheckReport`` is built by ``check``, so a failing report always
carries the witness that ``failures`` yielded for its failing input, and
its ``elapsed_ms`` is the measured time spent deciding the case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

_PASS = object()  # next()'s default, distinct from every witness


@dataclass
class CheckReport:
    suite: str
    case: str
    status: str  # "pass" | "fail" | "skip"
    witness: str | None = None
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def passed(reports) -> bool:
    return all(r.ok for r in reports)


def check(suite, case, failures) -> CheckReport:
    """The report of one identity: a fail naming the first witness that
    ``failures`` yields (one per failing case), or a pass if it yields none.

    ``failures`` is usually a generator that does its own work and decides
    its cases one at a time, so no case after the first failure is computed,
    and ``elapsed_ms`` measures that work.
    """
    start = time.perf_counter()
    witness = next(iter(failures), _PASS)
    elapsed_ms = (time.perf_counter() - start) * 1000
    if witness is _PASS:
        return CheckReport(suite, case, "pass", elapsed_ms=elapsed_ms)
    return CheckReport(suite, case, "fail", witness, elapsed_ms)
