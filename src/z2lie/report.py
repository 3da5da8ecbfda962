"""Structured pass/fail records for identity and property suites.

A report is a list of named checks; each check counts its trials and
keeps a bounded list of failure witnesses (inputs plus residuals).  All
content is JSON-serializable with deterministic ordering so that reports
produced from the same seed are byte-identical.
"""

from __future__ import annotations

MAX_WITNESSES = 5


class CheckResult:
    def __init__(self, name, note=""):
        self.name = name
        self.note = note
        self.trials = 0
        self.failure_count = 0
        self.failures = []

    @property
    def passed(self):
        return self.failure_count == 0

    @property
    def witness_wanted(self):
        return len(self.failures) < MAX_WITNESSES

    def record_trial(self):
        self.trials += 1

    def record_failure(self, witness):
        self.failure_count += 1
        if len(self.failures) < MAX_WITNESSES:
            self.failures.append(witness)

    def to_json_dict(self):
        out = {
            "name": self.name,
            "passed": self.passed,
            "trials": self.trials,
            "failure_count": self.failure_count,
            "failures": self.failures,
        }
        if self.note:
            out["note"] = self.note
        return out


class VerificationReport:
    def __init__(self, subject):
        self.subject = subject
        self.checks = []

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name, note=""):
        result = CheckResult(name, note)
        self.checks.append(result)
        return result

    def to_json_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def element_witness(*named_elements):
    """Compact JSON form of (label, Element) pairs for failure records."""
    return {
        label: [str(c) for c in el.coeffs] for label, el in named_elements
    }
