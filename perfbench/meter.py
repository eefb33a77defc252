"""Contention meter: how much other tenants slow each vCPU during a run.

On a shared host a vCPU runs at full speed only while nothing else uses
the physical core under it.  On a 2-vCPU Intel Xeon VM, other tenants
slowed each vCPU by up to 2x, for seconds to minutes at a time, and
slowed its two vCPUs largely independently (two busy loops, one per
vCPU, agreed at r ~ 0.3 over 1 s windows).  CPU time moved with wall
time, so it does not help: the program's instructions themselves run
slower.  Raw wall times of identical runs spread by 17-31% across a busy
hour, which no run length averages away.

The meter pins one probe process to each vCPU.  Every PERIOD_S a probe
times a fixed pure-Python loop (about 0.2 ms, so the program loses about
1% of each vCPU to it) in its own CPU time, so that time the probe waits
while the program's processes share its vCPU is not counted: the probe
reads how fast the core runs, not how busy the program keeps it.  A
loop's time over REFERENCE_LOOP_S, the loop's time on an idle core of
that Xeon (Python 3.11), is that vCPU's slowdown at that moment.  The
reference is a constant, not the fastest loop of the run: some runs
never see an idle core, and their fastest loop read up to 15% slow.

The tree samplers in ``workloads.py`` record, every 50 ms, the vCPU of
each running process of the program.  The slowdown of a timed interval,
widened by MARGIN_S on each side so that a served job's 0.1 s gets
enough records, is the mean over those records of the slowdown their
vCPU showed within WINDOW_S of them (or of every vCPU's, when no process
of the program was running).  A timing is reported at the host's
uncontended speed, ``wall seconds / slowdown``; raw wall times are kept
beside it.

Run as a script, this file is the probe: ``python3 meter.py OUT CPU``.
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: Per vCPU: the probe's sample times and loop times, in time order.
Samples = Dict[int, Tuple[List[float], List[float]]]

PERIOD_S = 0.02
REFERENCE_LOOP_S = 160e-6
WINDOW_S = 0.1
MARGIN_S = 0.5
LOOP_ITERATIONS = 1500
START_S = 10.0
STOP_S = 10.0
#: A probe outlives no run: it exits when its parent is gone, and after this.
LIFETIME_S = 300.0


def _loop() -> int:
    table, total = {}, 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
        table[i & 63] = total
    return total


def slowdown(samples: Samples, placements: Sequence[Tuple[float, int]],
             start: float, end: float) -> float:
    """Mean slowdown the program's processes met in ``[start, end]``."""
    start, end = start - MARGIN_S, end + MARGIN_S

    def near(cpu: int, low: float, high: float) -> List[float]:
        times, took = samples.get(cpu, ((), ()))
        return list(took[bisect.bisect_left(times, low):bisect.bisect_right(times, high)])

    factors = []
    for moment, cpu in placements:
        if start <= moment <= end:
            loops = near(cpu, moment - WINDOW_S, moment + WINDOW_S)
            if loops:
                factors.append(sum(loops) / len(loops) / REFERENCE_LOOP_S)
    if not factors:
        for cpu in samples:
            loops = near(cpu, start, end)
            if loops:
                factors.append(sum(loops) / len(loops) / REFERENCE_LOOP_S)
    if not factors:
        raise ValueError(f"no probe samples in [{start:.3f}, {end:.3f}]")
    return sum(factors) / len(factors)


def probe(out_path: str, cpu: int) -> int:
    """Time the loop on *cpu* every PERIOD_S until SIGTERM."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    os.sched_setaffinity(0, {cpu})
    parent, ends = os.getppid(), time.monotonic() + LIFETIME_S
    with open(out_path, "w") as out:
        out.write("ready\n")
        out.flush()
        while os.getppid() == parent and time.monotonic() < ends:
            began = time.thread_time()
            _loop()
            took = time.thread_time() - began
            out.write(f"{time.monotonic():.6f} {took:.9f}\n")
            time.sleep(PERIOD_S)
    return 0


class Meter:
    """One probe per vCPU for the length of a run."""

    def __init__(self, workdir: str) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: Samples = {}
        self.fastest = 0.0
        self._outs = {cpu: os.path.join(workdir, f"probe-cpu{cpu}.txt") for cpu in self.cpus}
        self._procs: List[subprocess.Popen] = []
        try:
            for cpu in self.cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), self._outs[cpu], str(cpu)],
                    stdin=subprocess.DEVNULL,
                    start_new_session=True,
                ))
            deadline = time.monotonic() + START_S
            while not all(self._started(cpu) for cpu in self.cpus):
                if time.monotonic() > deadline or any(p.poll() is not None for p in self._procs):
                    raise OSError("contention probes did not start")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _started(self, cpu: int) -> bool:
        try:
            with open(self._outs[cpu]) as handle:
                return handle.readline() == "ready\n"
        except OSError:
            return False

    def stop(self) -> None:
        """Stop the probes, wait for them, and load their samples."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=STOP_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for cpu, path in self._outs.items():
            times, took = [], []
            try:
                with open(path) as handle:
                    for line in handle:
                        fields = line.split()
                        if len(fields) == 2 and line.endswith("\n"):  # not cut by a kill
                            times.append(float(fields[0]))
                            took.append(float(fields[1]))
            except OSError:
                pass
            self.samples[cpu] = (times, took)
        every = [t for _, took in self.samples.values() for t in took]
        self.fastest = min(every, default=0.0)

    def slowdown(self, placements: Sequence[Tuple[float, int]], start: float, end: float) -> float:
        return slowdown(self.samples, placements, start, end)


if __name__ == "__main__":
    sys.exit(probe(sys.argv[1], int(sys.argv[2])))
