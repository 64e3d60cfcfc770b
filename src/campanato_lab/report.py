"""Shared result containers for verification suites and norm computations."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

INEQ_SLACK = 1e-10  # the absolute slack of a check's inequality


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
