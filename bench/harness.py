"""Closed-loop runner, failure accounting and the statistics the benchmark reports.

On a shared 2-vCPU x86-64 container the same code runs 10-30 % slower or
faster from one ten-second stretch to the next, in process time as much as
in wall time, and longer runs do not average that out. So the loop interleaves a
fixed calibration (numpy 2x2 work and a Python float loop, the mix qdemon's
ops are made of, none of it qdemon code) after every ~50 ms of ops, and
scales each op's latency by how fast the calibration ran around it. Scaled
latencies read as on a host where one calibration takes ``CAL_NOMINAL_S``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

OK, DECLINED, ERROR, WRONG = "ok", "declined", "error", "wrong"

#: failure messages kept for the report (declines are only counted)
MAX_NOTES = 5

#: wall time of ops between two calibrations
CHUNK_S = 0.05
CAL_ROUNDS = 40
#: one calibration's duration on the nominal host (the median on the 2-vCPU
#: x86-64 container the benchmark was defined on)
CAL_NOMINAL_S = 1.8e-3
#: calibrations on each side of a chunk that its scale factor is the median of
CAL_SMOOTH = 2
_CAL_MATRIX = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1) of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * n - 1e-9))
    return sorted_values[rank - 1]


def tail_quantile(n: int) -> float:
    """Highest quantile <= 0.99 that leaves at least ten of ``n`` samples
    above its nearest-rank value."""
    if n <= 10:
        raise ValueError(f"need more than 10 samples, got {n}")
    return min(0.99, (n - 10) / n)


class Declined(Exception):
    """The program turned the request down through a documented channel:
    a non-convergence exit, or a parameter it rejects."""


@dataclass
class Tally:
    """Ops attempted, declined by the program, failed (raised or exited
    non-zero otherwise: ``errors``) and answered wrongly."""

    attempted: int = 0
    declined: int = 0
    errors: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    @property
    def answered(self) -> int:
        """Ops answered with output that passed its checks."""
        return self.attempted - self.declined - self.failed

    def add(self, status: str, detail: str = "") -> None:
        self.attempted += 1
        if status == OK:
            return
        if status == DECLINED:
            self.declined += 1
            return
        if status == ERROR:
            self.errors += 1
        else:
            self.wrong += 1
        if len(self.notes) < MAX_NOTES:
            self.notes.append(f"{status}: {detail}")


def execute(workload, spec):
    """Run one op, then check it outside the timed region.

    Returns (op seconds, status, detail, Checked or None). ``Declined``
    makes it DECLINED; anything else the op raises, ``SystemExit`` included,
    makes it an ERROR; a failed invariant or a check that cannot read the
    output makes it WRONG.
    """
    t0 = perf_counter()
    try:
        out = workload.run(spec)
    except Declined as exc:
        return perf_counter() - t0, DECLINED, str(exc), None
    except (Exception, SystemExit) as exc:
        return perf_counter() - t0, ERROR, f"{type(exc).__name__}: {exc}", None
    seconds = perf_counter() - t0
    try:
        checked = workload.check(spec, out)
    except Exception as exc:
        return seconds, WRONG, f"check raised {type(exc).__name__}: {exc}", None
    if checked.problems:
        return seconds, WRONG, "; ".join(checked.problems), checked
    return seconds, OK, "", checked


def calibration_seconds() -> float:
    """Time one fixed calibration: the host's current speed, not qdemon's."""
    t0 = perf_counter()
    for _ in range(CAL_ROUNDS):
        a = _CAL_MATRIX @ _CAL_MATRIX.conj().T
        np.linalg.eigvalsh(a)
        np.kron(a, _CAL_MATRIX)
        s = 0.0
        for j in range(30):
            s += j * 0.5
    return perf_counter() - t0


def host_factors(calibrations) -> list[float]:
    """Scale factor of each chunk between consecutive calibrations: the
    nominal calibration time over the median of the calibrations around it."""
    n = len(calibrations)
    return [CAL_NOMINAL_S / median(calibrations[max(0, k - CAL_SMOOTH + 1):
                                                min(n, k + CAL_SMOOTH + 1)])
            for k in range(n - 1)]


@dataclass
class Loop:
    """Raw op latencies, the chunk each op ran in, and the calibration
    before each chunk (one more calibration than chunks)."""

    latencies: list[float]
    chunks: list[int]
    calibrations: list[float]

    def scaled(self) -> list[float]:
        factors = host_factors(self.calibrations)
        return [dt * factors[k] for dt, k in zip(self.latencies, self.chunks)]


def closed_loop(workload, specs, seconds: float, tally: Tally) -> Loop:
    """One client: start the next op when the previous returns, until
    ``seconds`` of wall time have passed, calibrating between chunks."""
    loop = Loop([], [], [calibration_seconds()])
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        chunk_end = min(deadline, perf_counter() + CHUNK_S)
        chunk = len(loop.calibrations) - 1
        while True:
            dt, status, detail, _ = execute(workload, next(specs))
            tally.add(status, detail)
            loop.latencies.append(dt)
            loop.chunks.append(chunk)
            if perf_counter() >= chunk_end:
                break
        loop.calibrations.append(calibration_seconds())
    return loop
