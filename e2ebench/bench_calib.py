"""The host's speed, measured alongside the workload by a calibrator.

On a shared 2-vCPU host each CPU runs slower or faster from one moment
to the next, by up to a quarter for seconds at a time, and the two CPUs
do so independently.  A run therefore pins itself and every process it
starts to one CPU and starts a *calibrator* there: a process at a lower
priority that times a fixed *calibration chunk* of pure-Python work
over and over.  Sharing the CPU with the workload, it runs through the
same slow and fast moments.  The CPU time of every process the run
starts is rescaled by :func:`scale` to a fixed chunk time,
:data:`REFERENCE_CHUNK_S`, using the chunks that ended while that
process ran.  A change to the program does not touch the chunk,
so it still shows in full.

The host's slow moments hit code with a large working set harder, so
the chunk does what the verifier's state tables do: it probes a dict of
200000 tuple keys, tens of megabytes, in scattered order.  Run this way
beside cold ``api.verify("rabin83")`` calls, a calibrator of this kind
turned CPU times that moved by 13 % from call to call into ones that
moved by 1 %.

Usage of the calibrator on its own: ``python3 bench_calib.py <out>``
appends ``<monotonic end> <CPU seconds>`` per chunk to ``<out>`` until
it is stopped or its parent exits.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: About the CPU seconds one :func:`chunk` took in the calibrator on a
#: 2.1 GHz host with Python 3.11 while a workload kept the CPU busy
#: (0.006-0.011 s as the host's speed moved): every reported CPU time
#: is rescaled to this speed.  It only sets the unit; it must not change.
REFERENCE_CHUNK_S = 0.01

#: The calibrator's niceness: it takes about a quarter of the CPU, so
#: the workload's wall time grows by about a third.  At niceness 10 it
#: took a tenth, and timed too few chunks while a 3 s process ran: the
#: rescaled CPU time of a sim-fleet run then spread 6 %, against 2 %.
NICE = 5

#: Seconds the calibrator may take to time its first chunk.
START_TIMEOUT = 30


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User plus system CPU seconds of ``who``."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def make_table() -> Tuple[dict, List[int]]:
    """The table a chunk probes and the keys it probes, in scattered order."""
    keys = list(range(200_000))
    random.Random(0).shuffle(keys)
    return {(key, key & 7): [key] for key in keys}, keys[:20_000]


def chunk(table: dict, probes: List[int]) -> int:
    """A fixed piece of pure-Python work: scattered probes of ``table``."""
    found = 0
    for key in probes:
        row = table[key, key & 7]
        row[0] += 1
        found += row[0] & 1
    return found


def scale(samples: Sequence[float]) -> float:
    """The factor that rescales CPU times to the reference host speed.

    A workload's CPU time is a sum over the host's slow and fast
    moments, so the chunk's time is taken as their mean, not a median.
    """
    if not samples:
        raise ValueError("no calibration samples")
    return REFERENCE_CHUNK_S / statistics.fmean(samples)


class Calibrator:
    """The calibrator process of a run, started on the run's CPU.

    Call :meth:`stop` on every path out of the run.
    """

    def __init__(self, path: str):
        self.path = path
        self._offset = 0
        #: (monotonic end, CPU seconds) of every chunk read so far
        self.chunks: List[Tuple[float, float]] = []
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + START_TIMEOUT
        while not self._read():
            if time.monotonic() > deadline or self.process.poll() is not None:
                self.stop()
                raise RuntimeError("the calibrator timed no chunk")
            time.sleep(0.05)

    def stop(self) -> None:
        self.process.terminate()
        self.process.wait()

    def _read(self) -> int:
        """Read the chunks written since the last read; how many."""
        if not os.path.exists(self.path):
            return 0
        with open(self.path) as handle:
            handle.seek(self._offset)
            text = handle.read()
        text = text[:text.rfind("\n") + 1]  # a line being written waits
        self._offset += len(text)
        lines = text.splitlines()
        self.chunks += [tuple(map(float, line.split())) for line in lines]
        return len(lines)

    def between(self, start: float, end: float) -> List[float]:
        """CPU seconds of the chunks that ended between ``start`` and ``end``.

        With no such chunk, every chunk read so far.  Chunks run while
        the workload was idle are faster, as they have the CPU and its
        caches to themselves, so a process is rescaled by its own.
        """
        self._read()
        inside = [seconds for ended, seconds in self.chunks
                  if start <= ended <= end]
        return inside or [seconds for _ended, seconds in self.chunks]


def main(path: str) -> None:
    os.nice(NICE)
    parent = os.getppid()
    table, probes = make_table()
    with open(path, "a") as out:
        while os.getppid() == parent:
            began = cpu_seconds()
            chunk(table, probes)
            out.write(f"{time.monotonic()} {cpu_seconds() - began}\n")
            out.flush()


if __name__ == "__main__":
    main(sys.argv[1])
