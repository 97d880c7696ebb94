"""How fast the host is running right now, from a fixed kernel.

The benchmark's hosts are small shared guests whose speed drifts by up
to 2x for seconds to minutes at a time, with nothing to show for it
inside the guest (no steal time, no load).  A run that falls into such an
episode reads slower although the program is the same.  So the harness
interleaves a *calibration kernel* with the measured calls: a fixed piece
of numpy and interpreter work that never touches the program and never
depends on ``--seed``.  The kernel's duration over :data:`NOMINAL_MS`
(what it takes on the quiet authoring host) is the host's *speed factor*
at that moment, and every reported time is divided by the factor
measured around it, i.e. reported **at nominal host speed**.  The raw
median and the factor itself are per-layer metrics
(``harness.raw_call_p50_ms``, ``harness.host_speed``).

The kernel gathers random rows of a 64 MiB table into a fresh 1 MB
array, reduces them, partitions the result and spins the interpreter:
the same mix a query is made of (gather, allocation, arithmetic,
selection, Python), so that memory contention from neighbours, which is
what slows the query path most, slows the kernel alike.
"""

from __future__ import annotations

import os
from time import perf_counter_ns

import numpy as np

#: Median kernel duration on the authoring host when it is quiet.
NOMINAL_MS = 0.48
TABLE_ROWS = 131_072          # x 128 float32 = 64 MiB, beyond L1 and L2
GATHER_ROWS = 2000
PICKS = 64
SPIN = 2000
#: Kernel runs per checkpoint between two stages of set-up.
CHECKPOINT_REPS = 24
#: Runs on each side of a call that make up its speed factor.
NEIGHBOURS = 8


class HostSpeed:
    """The kernel, its samples, and the speed factors drawn from them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20180901)   # fixed: not the run's seed
        self.table = rng.random((TABLE_ROWS, 128), dtype=np.float32)
        self.picks = rng.integers(0, TABLE_ROWS, size=(PICKS, GATHER_ROWS))
        self.probe = rng.random(128, dtype=np.float32)
        self.samples: list[int] = []
        for _ in range(PICKS):                   # touch every page once
            self.kernel()
        self.samples.clear()

    def kernel(self) -> None:
        """One run of the kernel; its duration joins the samples."""
        started = perf_counter_ns()
        rows = self.table[self.picks[len(self.samples) % PICKS]]
        rows -= self.probe
        np.argpartition(np.einsum("ij,ij->i", rows, rows), 10)
        total = 0
        for value in range(SPIN):
            total += value * value
        self.samples.append(perf_counter_ns() - started)

    def kernel_after_sleep(self) -> None:
        """One sample from a thread that has just slept: the first run
        pays for waking the core and refilling its caches, the second is
        kept."""
        self.kernel()
        self.samples.pop()
        self.kernel()

    def sample(self, reps: int) -> None:
        for _ in range(reps):
            self.kernel()

    def sample_for(self, busy_ns: int, most: int = 32) -> None:
        """Run the kernel for about ``busy_ns``: at least once, at most
        ``most`` times."""
        stop = perf_counter_ns() + busy_ns
        self.kernel()
        runs = 1
        while runs < most and perf_counter_ns() < stop:
            self.kernel()
            runs += 1

    def mark(self) -> int:
        """Position in the sample log, to bracket a measured interval."""
        return len(self.samples)

    def factor(self, first: int, last: int) -> float:
        """Speed factor over samples ``[first, last)``: their median over
        the nominal duration (1.0 = as fast as the authoring host)."""
        window = self.samples[max(0, first):max(last, first + 1)]
        return float(np.median(window)) / (NOMINAL_MS * 1e6)

    def factors_at(self, marks) -> np.ndarray:
        """Speed factor at each mark: the median of the ``NEIGHBOURS``
        samples taken before it and the ``NEIGHBOURS`` after it."""
        return np.array([self.factor(mark - NEIGHBOURS, mark + NEIGHBOURS)
                         for mark in marks])


class SetupClock:
    """Set-up time: user-mode CPU seconds at nominal host speed.

    Set-up allocates gigabytes of fresh memory, and on these guests the
    first touch of a page the host has taken back costs anything from 1
    to 50 times the usual (kernel-mode time and stalls that no counter
    owns), so the wall time of one set-up says little.  The process's
    user-mode CPU time does not see those faults, nor the waiting for
    the disk.  ``checkpoint()`` between two stages of set-up measures the
    host's speed; the user time of the stage just ended is divided by
    the mean of the factors at its two ends.  The kernel's own time is
    left out.
    """

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.stage_user = 0.0          # user time counts from process start
        self.factor_before: float | None = None
        self.nominal_s = 0.0
        self.user_s = 0.0

    def checkpoint(self, other_user_s: float = 0.0) -> float:
        """Close the current stage, which also burnt ``other_user_s`` in
        a child process; returns set-up seconds so far."""
        stage_s = os.times().user - self.stage_user + other_user_s
        first = self.host.mark()
        self.host.sample(CHECKPOINT_REPS)
        factor = self.host.factor(first, self.host.mark())
        around = factor if self.factor_before is None \
            else (factor + self.factor_before) / 2
        self.user_s += stage_s
        self.nominal_s += stage_s / around
        self.factor_before = factor
        self.stage_user = os.times().user
        return self.nominal_s
