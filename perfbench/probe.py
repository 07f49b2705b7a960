"""Host-speed probe: a fixed piece of Python timed between ops.

The machines this benchmark runs on are shared, and their speed drifts: on
a 2-vCPU Intel Xeon VM the same pure-Python loop ran up to twice as long in
some minutes as in others. The probe times fixed work every quarter second,
between ops. An op's latency multiplied by ``REF_S`` over the mean of the
probes just before and just after it is the latency the op would have had on
a host where the probe takes ``REF_S``.

The probe does what revsel's commands spend most of their time on: a JSON
round trip of a transcript-like document and updates of a sorted disjoint
held set. When the host slowed down, a probe of exact-rational arithmetic
on a small instance slowed more than the ops did (op time grew as that
probe's time to the power 0.6), so scaling by it over-corrected; op times
grew as this probe's time to the power 0.7 to 0.8, and scaled by it their
spread (interquartile range over median) within a two-minute run was 0.08
to 0.13, against 0.11 to 0.18 with the old probe and 0.24 to 0.37 unscaled.

It runs the benchmark's own code, never revsel's, and with the garbage
collector off, so that a collection of garbage an op left pending does not
run inside it.
"""

from __future__ import annotations

import bisect
import gc
import json
from time import perf_counter

import checks

# About the probe's time on the machine above when its host was quiet.
REF_S = 0.019
EVERY_S = 0.25


class HostProbe:
    def __init__(self):
        self._doc = [{"id": i, "action": "accept" if i % 3 else "reject",
                      "displaced": list(range(i % 4)), "start": i * 7 % 991}
                     for i in range(300)]
        self.ends: list[float] = []  # when each sample ended
        self.seconds: list[float] = []  # how long each sample took

    def _work(self) -> None:
        for _ in range(20):  # a small document, so that the probe moves no peak RSS
            json.loads(json.dumps(self._doc))
        held = checks.HeldSet()
        for i in range(3000):
            start = i * 7919 % 20000
            for key in held.conflicting(start, start + 5):
                held.remove(key)
            held.add((start, start + 5, i))

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self._work()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.ends.append(end)
        self.seconds.append(end - start)

    def sample_if_due(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean probe time around the interval [start, end];
        needs a sample before start and one after end."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        return REF_S / ((self.seconds[before] + self.seconds[after]) / 2)
