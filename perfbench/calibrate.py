"""Host-speed calibration: timings in seconds of a reference host.

The benchmark runs on shared virtual machines whose CPU speed drifts by
30-70 % within minutes, in CPU time as in wall time, because other
tenants share the physical cores. A run of a fixed job mix then measures
the host's mood as much as qcat. To measure qcat, every timed step is
bracketed by a fixed pure-Python probe that never touches qcat (exact
``Fraction`` arithmetic, comparisons, dict and string work, the operations
qcat's loops are made of), and the step's wall time is scaled by
``REFERENCE_PROBE_S / probe``, where ``probe`` is the mean of the probe
times just before and just after the step. A figure so scaled is the
step's wall time on a host that runs the probe in ``REFERENCE_PROBE_S``;
on such a host it equals the plain wall time. Because the probe does not
change when qcat does, a change to qcat moves the scaled figures exactly
as it moves the wall time on a steady host.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The probe's typical time on the machine described in README.md (rounded),
# so that scaled figures read about as that machine's wall time.
REFERENCE_PROBE_S = 0.005
PROBE_REPEATS = 6
PROBES: list[float] = []  # every probe() result of this process, for the report


def _probe_once() -> float:
    t0 = perf_counter()
    acc, best = Fraction(0), Fraction(-1)
    third = Fraction(1, 3)
    table: dict[str, Fraction] = {}
    for i in range(1, 400):
        v = third * i - Fraction(i, 7) + acc / (i + 1)
        if v > best:
            best = v
        acc = max(acc, v) if i % 5 else Fraction(0)
        key = f"{i % 97}/{i % 13 + 1}"
        table[key] = table.get(key, Fraction(0)) + Fraction(key)
    return perf_counter() - t0


def probe() -> float:
    """Seconds the host takes for the probe now: the mean of a few repeats,
    which tracks the host's speed better than their fastest."""
    seconds = sum(_probe_once() for _ in range(PROBE_REPEATS)) / PROBE_REPEATS
    PROBES.append(seconds)
    return seconds


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, bracketed by probes that took ``before``
    and ``after``, in seconds of the reference host."""
    return seconds * REFERENCE_PROBE_S / ((before + after) / 2)
