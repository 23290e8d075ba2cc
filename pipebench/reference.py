"""Host speed, sampled while the program runs, with fixed reference computations.

On a shared host the speed of one core drifts: the same pure-Python loop
takes up to twice as long for tenths of a second to minutes at a time while
other tenants load the machine, so a wall time measures the host as much as
the program.  ``Sampler`` therefore interrupts the code it wraps on a
wall-clock timer (``SIGALRM``, handled between bytecodes in the main thread)
and times a short fixed computation each time.  The program's time between
two samples, divided by the reference time around them, is that stretch in
reference units.  A change to the program moves the program's time only; a
change in host speed moves both.

Two computations are used:

- ``python_reference`` times the import of the CLI (``setup_s``).  It is
  pure Python and imports nothing, so it can run in the middle of an import,
  and this module imports nothing that the program would import itself.
- ``mixed_reference()`` times a pass (``wall_ref``): many NumPy calls on
  tiny arrays (ufuncs, ``polyfit``, ``linalg.solve``, ``unique``), like the
  program's per-resample fits and per-layer bookkeeping.  Measured over
  whole passes, this work slowed with the host in about the same proportion
  as the program (elasticity 0.65-1.0 across workloads and hours), closer
  than a pure integer loop (0.55-0.8) or whole-array passes (0-0.6).

Both allocate little, so neither moves the program's garbage collections
much.  They live here, not in the program, so that no change to the
program can change them.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05  # wall-clock time between samples
WINDOW = 7  # samples whose median reference time normalizes one gap
# ``python_reference`` on an idle x86-64 server vCPU: converts reference
# units to nominal seconds, the seconds an idle core of that kind would take.
PYTHON_REFERENCE_S = 1e-3


def python_reference() -> int:
    """Interpreted integer arithmetic, about 1 ms on an idle server vCPU."""
    acc = 0
    for i in range(8000):
        acc = (acc * 31 + (i ^ (acc >> 3))) % 1000003
    return acc


def mixed_reference():
    """The pass reference, about 2.5 ms on an idle server vCPU.

    Returns the computation as a function; call this only once NumPy may be
    imported.
    """
    import numpy as np

    small = np.linspace(0.1, 0.9, 4)
    lengths = np.array([4.0, 8.0, 12.0, 16.0])
    decay = 0.5 * 0.9 ** (lengths - 1.0)
    ints = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3])
    matrix = np.array([[2.0, 1.0], [1.0, 3.0]])

    def reference() -> float:
        total = 0.0
        for i in range(240):
            total += float(np.sum(np.exp(-small * (1.0 + i * 1e-6))))
        for i in range(20):
            total += float(np.polyfit(lengths, decay * (1.0 + i * 1e-3), 2)[0])
            total += float(np.linalg.solve(matrix + i, lengths[:2])[0])
            total += float(np.unique(ints).size)
            total += float(np.searchsorted(np.cumsum(small), 0.5))
            total += len(f"{total:.6f}")
        return total

    return reference


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


class Sampler:
    """Context manager: samples ``reference`` on a timer while it is open.

    A sample is taken on entry, every ``INTERVAL_S`` of wall time and on
    exit.  ``program_s`` is the time between samples, which belongs to the
    code run inside the ``with`` block; ``program_ref`` is that time in
    reference units.
    """

    def __init__(self, reference):
        self.reference = reference
        self.samples = []  # (start, end) of each reference run
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.reference()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self.reference()  # warm-up: first-call costs are not host speed
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def program_s(self) -> float:
        return sum(b[0] - a[1] for a, b in zip(self.samples, self.samples[1:]))

    @property
    def program_ref(self) -> float:
        """Each gap between samples over the median reference time around it.

        The median of the ``WINDOW`` nearest samples (about a third of a
        second) follows changes in host speed but not a single sample
        slowed by an interrupt or a page fault.
        """
        durations = [end - start for start, end in self.samples]
        total = 0.0
        for i in range(len(self.samples) - 1):
            lo = max(0, min(i + 1 - WINDOW // 2, len(durations) - WINDOW))
            local = _median(durations[lo:lo + WINDOW])
            total += (self.samples[i + 1][0] - self.samples[i][1]) / local
        return total
