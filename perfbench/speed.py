"""The host's speed, sampled while a timed section runs, and times scaled
to a fixed reference speed.

On a shared host the same code runs up to 1.5x faster or slower from one
second to the next, and a run's share of slow seconds changes from minute
to minute, so raw wall times of identical code spread more than any useful
bound.  `SpeedProbe` measures that speed from inside the timed process:
every PERIOD_S a SIGALRM handler runs a fixed calibration chunk and records
the thread CPU time it took (CPU time, so that a preempted chunk still
reads the CPU's speed, not the scheduler's).  One more chunk runs just
before and just after the section.  A section's reference time is

    (wall time - time spent in the handler) * REF_CHUNK_S / mean chunk time

that is, how long the section would have taken at the speed where a chunk
takes REF_CHUNK_S.  A change that makes toytheory slower or faster moves
the reference time by the same share as the wall time; only the host's
speed is taken out.  The chunk is integer arithmetic on a fixed list, so it
allocates no tracked objects and the program's heap cannot slow it.

Work in forked pool workers runs on other CPUs, whose speed the parent's
samples do not see, and the slowest worker sets the time of a parallel
phase.  `ForkedSections` gives each worker call a probe of its own; the
parent's reference time then scales each parallel phase by its slowest
worker and the rest by its own samples.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import statistics
import time

PERIOD_S = 0.05
# Chunk time at the fast speed of the 2-vCPU host the bounds were set on.
REF_CHUNK_S = 0.00065
_TABLE = list(range(64))


def _chunk(table=_TABLE) -> int:
    s = 0
    for i in range(6000):
        s = (s + table[i & 63] * i) % 1000003
    return s


class SpeedProbe:
    """Chunk times sampled while a section runs; SIGALRM is its own.

    A section may be timed in parts: the samples of every start()/stop()
    pair add up until reset().  Each sample is (wall start, wall end, chunk
    CPU seconds, taken by the handler).
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.reset()

    def reset(self) -> None:
        self.samples: list[tuple] = []

    def _sample(self, in_handler: bool = False) -> None:
        w0 = time.perf_counter()
        c0 = time.thread_time()
        _chunk()
        cpu = time.thread_time() - c0
        self.samples.append((w0, time.perf_counter(), cpu, in_handler))

    def _on_alarm(self, signum, frame) -> None:
        self._sample(True)

    def start(self) -> None:
        """Samples once, then arms the timer; call just before the section."""
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        """Disarms the timer, then samples once; call just after it."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def handler_s(self, outside=()) -> float:
        """Wall time spent in the handler, except where it started inside
        one of the (start, end) windows."""
        return sum(e - s for s, e, _, h in self.samples
                   if h and not _inside(s, outside))

    def slowdown(self, outside=()) -> float:
        """Mean chunk time over the reference chunk time, from the samples
        that started outside the windows (from all, if none did)."""
        cpu = [c for s, _, c, _ in self.samples if not _inside(s, outside)]
        return statistics.fmean(cpu or [c for _, _, c, _ in self.samples]) \
            / REF_CHUNK_S

    def reference_s(self, wall_s: float, forked=()) -> float:
        """A section's wall time at reference speed, without the handler.

        `forked` holds the worker sections (start, end, samples) that ran
        during the section.  Overlapping ones form a parallel phase, which
        counts as its slowest worker at that worker's own speed.
        """
        phases = _phases(forked)
        windows = [(min(s for s, _, _ in ph), max(e for _, e, _ in ph))
                   for ph in phases]
        serial = wall_s - self.handler_s(windows) - sum(
            max(e - s for s, e, _ in ph) for ph in phases)
        parallel = 0.0
        for ph in phases:
            times = []
            for s, e, samples in ph:
                worker = SpeedProbe()
                worker.samples = samples
                times.append((e - s - worker.handler_s()) / worker.slowdown())
            parallel += max(times)
        return serial / self.slowdown(windows) + parallel


def _inside(t: float, windows) -> bool:
    return any(s <= t < e for s, e in windows)


def _phases(sections) -> list[list]:
    """Groups (start, end, samples) sections whose intervals overlap."""
    phases: list[list] = []
    end = None
    for sec in sorted(sections, key=lambda x: x[0]):
        if end is None or sec[0] >= end:
            phases.append([])
            end = sec[1]
        phases[-1].append(sec)
        end = max(end, sec[1])
    return phases


class ForkedSections:
    """Times every call of `module.attr` made in a forked worker.

    While installed, the attribute is a wrapper that, in a process other
    than the installing one, runs the call under a SpeedProbe of its own
    and sends (start, end, samples) back through a pipe made before the
    fork.  The wrapper keeps the original's name, so a pool pickles it by
    reference as it did the original.
    """

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.original = getattr(module, attr)
        self.queue = multiprocessing.get_context("fork").SimpleQueue()

    def install(self) -> None:
        parent, original, queue = os.getpid(), self.original, self.queue

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() == parent:
                return original(*args, **kwargs)
            probe = SpeedProbe()
            probe.start()
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                probe.stop()
                queue.put((t0, t1, probe.samples))

        setattr(self.module, self.attr, wrapper)

    def uninstall(self) -> None:
        setattr(self.module, self.attr, self.original)

    def take(self) -> list:
        """The sections sent since the last call.  Workers send before they
        return their result, so after the pool call every one is here."""
        out = []
        while not self.queue.empty():
            out.append(self.queue.get())
        return out
