"""Machine-speed index: a fixed pure-Python kernel timed between requests.

A shared 2-vCPU x86 VM was seen to change speed by up to a factor of 1.8
within seconds (a fixed pure-Python ``Fraction`` loop took 18-33 ms in
successive 2 s stretches of one minute, in CPU time as much as in wall
time), and whole 30 s runs land in slow or fast stretches.  Wall times alone
then spread by a quarter across runs of the same code.

``SpeedTrack`` times ``kernel`` every ``PROBE_EVERY`` seconds between
requests.  A request's latency is reported scaled to a nominal machine on
which one probe takes ``NOMINAL_PROBE_S``: its wall time times
``NOMINAL_PROBE_S`` over the median probe time around it.  The kernel uses
only the standard library, so no change to plstab can make it faster or
slower, and a faster program still reads faster.

The kernel mixes an integer loop with the interpreter work a CLI request
does (JSON round trip, sha256, ``Fraction`` parsing, argparse, a keyed
sort).  Of the kernels tried against the three workloads' requests over
100 s, this mix tracked their drift best: per ~3 s stretch the log of
request time follows the log of kernel time with slope 0.75-0.91, and
scaling by it left 0.05-0.10 of the 0.07-0.20 standard deviation in log
request time; a rational Gauss-Jordan kernel left 0.08-0.10.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import statistics
import time
from fractions import Fraction

PROBE_EVERY = 0.1        # seconds of replay between probes
WINDOW_S = 0.5           # probes this close to a request set its pace
MIN_PROBES = 5           # nearest probes used when the window holds fewer
NOMINAL_PROBE_S = 0.002   # one probe's time on the nominal machine

_DOC = {"vertices": [[str(Fraction(i, 7)), str(Fraction(-i, 3)), i]
                     for i in range(40)], "name": "x" * 50}
_PARSER = argparse.ArgumentParser(add_help=False)
_PARSER.add_argument("--a")
_PARSER.add_argument("--b", type=int)
_PARSER.add_argument("--c", nargs="*")


def kernel() -> str:
    """Fixed work; returns a digest of its results, the same on every call."""
    h = hashlib.sha256()
    a = 1
    for i in range(1, 3000):
        a = (a * 1103515245 + i) % 2147483648
    h.update(str(a).encode())
    for _ in range(3):
        text = json.dumps(_DOC, sort_keys=True)
        h.update(hashlib.sha256(json.dumps(json.loads(text)).encode()).digest())
        h.update(str(sum(Fraction(s) for s in ("3/7", "-11/13", "5", "22/9") * 5)
                     ).encode())
        h.update(repr(vars(_PARSER.parse_args(
            ["--a", "q", "--b", "3", "--c", "1", "2"]))).encode())
        h.update(bytes(v % 256 for v in sorted(range(300),
                                               key=lambda v: (v * 37) % 101)))
    return h.hexdigest()


DIGEST = kernel()


class SpeedTrack:
    """Probe times along the run's clock, and the pace around any interval."""

    def __init__(self):
        self.at: list[float] = []      # probe midpoints, increasing
        self.took: list[float] = []    # probe durations
        self.next_probe = 0.0

    def maybe_probe(self) -> None:
        if time.perf_counter() >= self.next_probe:
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        digest = kernel()
        end = time.perf_counter()
        if digest != DIGEST:
            raise AssertionError("speed kernel gave a different result")
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self.next_probe = end + PROBE_EVERY

    def scale(self, start: float, end: float) -> float:
        """Nominal over local probe time for a request from start to end."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            # widen toward the nearer side first
            before = start - self.at[lo - 1] if lo > 0 else float("inf")
            after = self.at[hi] - end if hi < len(self.at) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return NOMINAL_PROBE_S / statistics.median(self.took[lo:hi])

    def median_probe_s(self) -> float:
        return statistics.median(self.took)
