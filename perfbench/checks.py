"""Output checks: every operation is checked, and a failed check counts the
operation as failed.

An operation (a train step or an eval image) fails when its call raised,
when one of its numbers is not finite or out of range, when its row differs
from the same row of the first call (every call reruns the same inputs, and
the program promises byte-identical reruns), or when a number is outside
tolerance of the reference recorded for this seed in ``reference.json``. A
difference in the output that belongs to the call as a whole (the
checkpoint, the mean row) fails every operation of the call.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(workload: str, seed: int) -> list | None:
    """Reference rows for this workload and seed, or None if none were recorded."""
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="ascii")).get(workload, {}).get(str(seed))


def within(value: float, reference: float, kind: str, tolerance: float) -> bool:
    bound = tolerance * abs(reference) if kind == "rel" else tolerance
    return abs(value - reference) <= bound


def failed_ops(workload, outcome, baseline, reference) -> int:
    """How many operations of one call fail a check."""
    n = workload.ops_per_call
    if outcome is None or len(outcome.rows) != n or outcome.whole != baseline.whole:
        return n
    if reference is not None and len(reference) != n:
        return n
    failed = 0
    for i, (row, values) in enumerate(zip(outcome.rows, outcome.values)):
        ok = row == baseline.rows[i] and workload.row_valid(values)
        if reference is not None:
            ok = ok and all(within(v, r, kind, tol) for v, r, (kind, tol)
                            in zip(values, reference[i], workload.tolerance))
        failed += not ok
    return failed
