"""The host's speed, sampled while a block of work runs.

On a shared host the whole machine slows down and speeds up by up to half,
over milliseconds to minutes, whatever the program does.  ``HostSample``
times a block and runs a fixed reference loop, which does not touch the
program, just before it, just after it and every ``SAMPLE_INTERVAL_S``
while it runs (on SIGALRM, in the calling thread).  The block's time over
the loop's mean time is its cost in *kref*, thousands of reference-loop
times: the host's speed cancels from it, and the program's does not.

This module imports only ``signal`` and ``time``, so that a fresh
interpreter can load it before timing ``import suspcalc.cli`` and
pre-load little of what that import needs.
"""

import signal
import time

REF_LOOP = 1000
SAMPLE_INTERVAL_S = 0.02


def reference_seconds() -> float:
    """One run of the reference loop (dict updates, integer arithmetic, a
    sort).  On a 2-vCPU x86-64 VM it reads about 0.11 ms, and nearly twice
    that while other tenants of the machine are busy."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(REF_LOOP):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
    sorted(str(v) for v in counts.values())
    return time.perf_counter() - start


class HostSample:
    """Context manager: on exit, ``seconds`` is the block's wall time less
    the samples taken inside it, and ``kref`` the same time in kref."""

    def __enter__(self) -> "HostSample":
        self.seconds = self.kref = 0.0
        self._samples = [reference_seconds()]
        self._inside: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        self._inside.append(reference_seconds())

    def __exit__(self, *exc_info) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._start - sum(self._inside)
        signal.signal(signal.SIGALRM, self._previous)
        samples = self._samples + self._inside + [reference_seconds()]
        self.kref = self.seconds / (sum(samples) / len(samples)) / 1000
        return False
