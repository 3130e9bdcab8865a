"""Result records of numerical checks, and the fold that keeps a worst case."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numerical check: measured gap against a threshold, and
    in `details` the witness, the labels (function, order, x, ...) of its case."""

    name: str
    passed: bool
    measured_gap: float
    threshold: float
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        at = ", ".join(f"{k}={float(v)!r}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in self.details.items())
        at = at if len(at) <= 200 else at[:199] + "…"  # one line of bounded length
        return (f"[{status}] {self.name}: gap={self.measured_gap:.3e} "
                f"threshold={self.threshold:.3e}" + (f" at {at}" if at else ""))


def from_gap(name: str, gap: float, threshold: float, **details) -> CheckReport:
    return CheckReport(name=name, passed=gap <= threshold, measured_gap=float(gap),
                       threshold=float(threshold), details=dict(details))


def from_failures(name: str, failures: list[dict]) -> CheckReport:
    """A count invariant: one dict of labels per failing case, the first as witness."""
    return from_gap(name, len(failures), 0.0, **(failures[0] if failures else {}))


class Worst:
    """The largest gap an invariant has seen, from 0 up, with the labels of
    its case.  The first of equal gaps is kept, and a NaN gap counts as the
    largest, so it fails the invariant instead of vanishing in a max."""

    def __init__(self, name: str, threshold: float):
        self.name, self.threshold, self.gap, self.witness = name, threshold, 0.0, {}

    def see(self, gaps, **labels) -> None:
        """One gap, or a list or array of gaps with labels that broadcast to it."""
        shape = None
        if isinstance(gaps, (list, tuple, np.ndarray)):
            arr = np.asarray(gaps, dtype=float)
            if not arr.size:
                return
            i = np.unravel_index(np.argmax(arr), arr.shape)  # first NaN, else first largest
            gaps, shape = arr[i].item(), arr.shape
        if gaps > self.gap or (gaps != gaps and self.gap == self.gap):
            self.gap = gaps
            self.witness = labels if shape is None else {
                k: np.broadcast_to(v, shape)[i].item() for k, v in labels.items()}

    def report(self) -> CheckReport:
        return from_gap(self.name, self.gap, self.threshold, **self.witness)
