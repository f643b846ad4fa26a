"""Host-share probe: how much of each CPU the host really gave us.

    python3 perfbench/hostprobe.py CPU OUT    (started by HostProbe)

On the shared 2-CPU VM this benchmark was built on, another tenant
often runs on the same physical CPU as one of ours, at a fine grain.
The guest is not told (``/proc/stat`` shows next to no steal time):
the same code runs up to twice as slowly, and its CPU time grows with
its wall time.  The share of time the host takes moves between about
a third and nine tenths in stretches of tens of seconds, so raw times
of the same job spread by more than a quarter from run to run.

A probe process pinned to one CPU wakes every ``PERIOD_S`` as a
real-time task (no task of the guest delays or interrupts it), runs a
fixed piece of pure-Python work and records how long that took.
``BASE_S`` is the work's time on a CPU the host does not share, so
``BASE_S / elapsed`` is the share of the CPU the host gave at that
moment and its mean over an interval is the share over the interval.
The probe itself takes about 2.5 % of its CPU.

Sharing does not slow every program as it slows the probe's tight
loop: over runs in quieter and busier stretches, the raw times of the
three workloads moved with the share to the power -0.44 (the partly
idle server) to -1.07 (the study), not exactly -1 (``README.md``).
:meth:`HostProbe.factor` is therefore the share to the power
``EXPONENT``, and a time measured on the probed CPUs times that factor
estimates the time on an unshared CPU.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

#: Sampling period of each probe, in seconds.
PERIOD_S = 0.01
#: Time of :func:`_work` on an unshared CPU: the fast mode of its
#: times on the 2-CPU Xeon VM of the records (the shared mode is about
#: twice as long).
BASE_S = 0.00023
#: How the program's times follow the share.  One value for every
#: workload: with 0.8 the corrected times of each workload varied by at
#: most 5.7 % (coefficient of variation) over runs whose shares spanned
#: 0.53-0.89, against 4.4-16.4 % raw (``README.md``).
EXPONENT = 0.8


def _work() -> dict:
    table = {}
    for i in range(600):
        key = "k%d" % (i % 61)
        table[key] = table.get(key, 0) + i
    return table


def probe_main(cpu: int, out: str) -> int:
    """Sample CPU ``cpu`` until SIGTERM or until the parent is gone;
    write ``(start, elapsed)`` pairs to ``out``."""
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        mode = "real-time"
    except (OSError, AttributeError):
        mode = "normal"
    stopping = []
    signal.signal(signal.SIGTERM, lambda _sig, _frame: stopping.append(True))
    print(mode, flush=True)
    samples = array("d")
    due = time.perf_counter()
    while not stopping and os.getppid() == parent:
        due += PERIOD_S
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        else:
            due = time.perf_counter()
        start = time.perf_counter()
        _work()
        samples.append(start)
        samples.append(time.perf_counter() - start)
    with open(out, "wb") as handle:
        samples.tofile(handle)
    return 0


class HostProbe:
    """One probe process per CPU in ``cpus`` for the life of a ``with`` block.

    Shares are read after the block: :meth:`share` needs the samples the
    probes write when they stop.
    """

    def __init__(self, work: Path, cpus) -> None:
        self.work = Path(work)
        self.cpus = tuple(cpus)
        self.procs: dict = {}
        self.samples: dict = {}
        self.mode = "none"

    def __enter__(self) -> "HostProbe":
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    [sys.executable, __file__, str(cpu), str(self._out(cpu))],
                    stdout=subprocess.PIPE,
                    text=True,
                )
                self.procs[cpu] = proc
                self.mode = proc.stdout.readline().strip() or "failed"
                proc.stdout.close()
                if proc.poll() is not None:
                    raise RuntimeError(f"host probe on CPU {cpu} exited with {proc.returncode}")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._stop()
        if exc_type is not None:
            return
        for cpu, proc in self.procs.items():
            if proc.returncode != 0:
                raise RuntimeError(f"host probe on CPU {cpu} exited with {proc.returncode}")
            data = array("d")
            with open(self._out(cpu), "rb") as handle:
                data.frombytes(handle.read())
            self.samples[cpu] = list(zip(data[0::2], data[1::2]))

    def _out(self, cpu: int) -> Path:
        return self.work / f"hostprobe-{cpu}.bin"

    def _stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def share(self, start: float, end: float, cpus=None) -> float:
        """Mean share of the CPUs ``cpus`` (default: all probed) the host
        gave between two ``time.perf_counter()`` readings."""
        values = [
            BASE_S / elapsed
            for cpu in (self.cpus if cpus is None else cpus)
            for began, elapsed in self.samples[cpu]
            if start <= began < end
        ]
        if not values:
            raise RuntimeError(f"no host probe sample between {start:.3f} and {end:.3f}")
        return statistics.fmean(values)

    def factor(self, start: float, end: float, cpus=None) -> float:
        """What to multiply a time measured between ``start`` and ``end``
        on ``cpus`` by, to estimate it on unshared CPUs."""
        return self.share(start, end, cpus) ** EXPONENT


if __name__ == "__main__":
    sys.exit(probe_main(int(sys.argv[1]), sys.argv[2]))
