"""Result containers for verification suites, and the rule by which every
check of a report reaches its verdict."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

INEQ_SLACK = 1e-10  # the absolute slack of a check's inequality
EXACT_SLACK = 1e-12  # the slack of an identity, or of a calibrated bound
REL_TOL = 1e-10  # the slack of a relative error


@dataclass
class Check:
    """One verified statement: a measured quantity against a threshold."""

    name: str
    anchor: str
    measured: dict
    threshold: str
    passed: bool
    witness: object = None

    def to_dict(self):
        return _jsonable(asdict(self))


class Margins(NamedTuple):
    """The margins lhs - rhs of an inequality lhs <= rhs, judged."""

    worst: float  # the largest margin; NaN if any is NaN, -inf if none
    index: object  # the first position of the worst margin, or None
    failures: int  # margins above the slack, NaN included
    passed: bool  # worst <= slack
    slack: float


def margins(lhs, rhs=0.0, slack=INEQ_SLACK, scale=1.0):
    """Judge lhs <= rhs, sides as scalars or arrays: every verdict of a
    report is reached here.  A margin lhs - rhs holds iff it is at most
    slack * max(1, scale).  NaN counts as the worst margin, so a NaN side
    and inf against inf fail."""
    with np.errstate(invalid="ignore", over="ignore"):
        m = np.subtract(lhs, rhs, dtype=np.float64).ravel()
    if not m.size:
        return Margins(-np.inf, None, 0, True, slack)
    ok = m <= slack * max(1.0, scale)
    i = int(np.argmax(m))  # argmax returns the first NaN, if any
    return Margins(float(m[i]), i, int(np.count_nonzero(~ok)), bool(ok[i]),
                   slack)


def limit_check(name, anchor, measured, threshold, *judged, witness=None):
    """A check that passes iff every judged inequality holds; threshold
    names their slacks as {0}, {1}, ..."""
    return Check(name, anchor, measured,
                 threshold.format(*(m.slack for m in judged)),
                 all(m.passed for m in judged), witness)


def count_check(name, anchor, measured, key, witness=None):
    """A check that passes iff measured[key] counts nothing: "0 <key>"."""
    return Check(name, anchor, measured, f"0 {key}", measured[key] == 0,
                 witness)


def reported_check(name, anchor, measured, witness=None):
    """A measured value that has no threshold and always passes."""
    return Check(name, anchor, measured, "reported", True, witness)


@dataclass
class VerificationReport:
    """A named suite of checks; fails iff any check fails."""

    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _jsonable(obj):
    """Recursively convert report payloads to JSON-serializable values.

    Fractions become "p/q" strings so exact-mode results stay exact in the
    report; floats pass through (Python's repr round-trips them).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    # map keeps the recursion at one frame per nesting level, where a
    # comprehension would add a second
    if isinstance(obj, dict):
        return dict(zip(map(str, obj), map(_jsonable, obj.values())))
    if isinstance(obj, (list, tuple)):
        return list(map(_jsonable, obj))
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    if hasattr(obj, "__float__"):  # a numpy bool has one, but is no bool
        return bool(obj) if isinstance(obj, np.bool_) else float(obj)
    return str(obj)


def canonical_json(payload):
    """Deterministic JSON text: sorted keys, no whitespace surprises."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2)


def content_hash(payload, exclude=("generated_at", "content_hash")):
    """SHA-256 of the canonical JSON with volatile fields removed."""
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k not in exclude}
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()
