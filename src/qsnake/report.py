"""Uniform result records for the verification suites.

Every check emits a VerificationReport carrying the parameters it ran
with, a status, the identifier of the claim it verifies, and a witness
payload.  Serialization is canonical: keys sorted, rationals rendered as
p/q strings, no floats, so identical inputs give byte-identical JSON.
"""

from fractions import Fraction
import json

STATUS_VALUES = ("pass", "fail", "exploratory")


class OutOfScope(ValueError):
    """A family's claim is not stated at the requested options."""


def jsonable(v):
    """Recursively convert a value to canonical JSON material."""
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, int):
        return int(v)
    if isinstance(v, str):
        return v
    if isinstance(v, dict):
        return {str(k): jsonable(v[k]) for k in sorted(v, key=str)}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return str(v)


class VerificationReport:
    """One check outcome.  Exploratory reports never gate anything."""

    def __init__(self, check, params, status, anchor, witness=None):
        if status not in STATUS_VALUES:
            raise ValueError(f"status must be one of {STATUS_VALUES}")
        self.check = str(check)
        self.params = dict(params)
        self.status = status
        self.anchor = str(anchor)
        self.witness = dict(witness) if witness else {}

    def is_hard_fail(self):
        return self.status == "fail"

    def to_dict(self):
        return {
            "check": self.check,
            "params": jsonable(self.params),
            "status": self.status,
            "anchor": self.anchor,
            "witness": jsonable(self.witness),
        }

    def summary(self):
        ps = " ".join(f"{k}={jsonable(v)}" for k, v in sorted(self.params.items()))
        return f"[{self.status}] {self.check} ({ps})"

    def __repr__(self):
        return f"VerificationReport({self.check!r}, status={self.status!r})"


def reports_to_json(reports):
    """Canonical JSON array, byte-identical for identical report lists."""
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
