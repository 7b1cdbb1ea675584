"""Host speed probe: timings scaled to a reference CPU speed.

On the shared 2-core host this benchmark was defined on, a fixed
pure-Python loop swings between 1.0x and 2.4x its best time within seconds,
and a 30 s workload's wall time varied by 30% from run to run. Timing the
loop before and after a command, or on the other core, did not follow those
swings; timing it on the same core while the command runs did. So a timer signal interrupts the measured
process every PERIOD_S seconds, runs LOOP once to warm up and once timed,
and keeps (time, duration) samples. A command's time is then multiplied by
its mean sampled speed, REF_LOOP_S / duration: the work it did, in seconds
at reference speed. (The mean speed weighs slow spells by their length; it
followed the program better than the median duration did.)

The probe costs about 1% of each command and is the same for every commit
measured.
"""

import signal
import statistics
import time

PERIOD_S = 0.02
LOOP_N = 2000
# About the 5th percentile of LOOP's duration on the 2-core Xeon host (2.1 GHz)
# the benchmark was defined on; scaled times are seconds at that speed.
REF_LOOP_S = 0.0002
MIN_SAMPLES = 3


def loop(n=LOOP_N):
    acc = 0
    for i in range(n):
        acc = (acc * 31 + (i % 7) * (i % 13)) % 1000003
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        loop()
        start = time.monotonic()
        loop()
        end = time.monotonic()
        self.samples.append((start, end - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled(start, end, samples):
    """Seconds the window [start, end] would have taken at reference speed;
    a window with fewer than MIN_SAMPLES samples uses all of them."""
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        inside = [d for _, d in samples]
    return (end - start) * statistics.fmean(REF_LOOP_S / d for d in inside)
