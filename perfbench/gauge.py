"""A machine-speed gauge sampled during the timed work, for steady times.

On the shared 2-CPU machine this benchmark was tuned on, the same pure
Python code runs up to 1.7x slower for stretches from a fraction of a
second to minutes, and medians of wall times moved by 20 to 30% between
runs.  So while a piece of work is timed, a SIGALRM every ``INTERVAL_S``
runs a fixed pure Python kernel between two bytecodes of the work and
times it.  The kernel does not touch orbitquant: two small products of
dict polynomials over ``Fraction``, one with small and one with 7-digit
coefficients, the kind of work orbitquant does.  A sample's time tracks
the machine's speed at that moment.

``scaled`` reports the work's own time (wall time minus the gauge's)
times ``GAUGE_REFERENCE_S`` over the kernel's mean time during the work,
the top tenth of kernel times dropped: seconds at the speed of a machine
on which the kernel takes ``GAUGE_REFERENCE_S``.  The gauge costs about
2% of the work's wall time.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
MIN_SAMPLES = 4  # short work is topped up with samples taken just after it
# About the kernel's time on the reference machine at its fastest; it
# read 1.2 to 2.6 ms there, so scaled times are close to its fastest wall times.
GAUGE_REFERENCE_S = 0.0012


def _operand(seed: int, terms: int, nvars: int, degree: int, size: int) -> dict:
    rng = random.Random(seed)
    poly = {}
    while len(poly) < terms:
        exp = tuple(rng.randint(0, degree) for _ in range(nvars))
        poly[exp] = Fraction(rng.randint(-size, size) or 1, rng.randint(1, size))
    return poly


OPERANDS = (
    (_operand(1, 12, 4, 3, 9), _operand(2, 12, 4, 3, 9)),
    (_operand(3, 10, 6, 4, 10**6), _operand(4, 10, 6, 4, 10**6)),
)


def kernel() -> None:
    for left, right in OPERANDS:
        out = {}
        for ea, ca in left.items():
            for eb, cb in right.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = out.get(e, 0) + ca * cb
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)


def scale(own_s: float, samples: list) -> float:
    """``own_s`` in seconds at the reference speed, from the samples taken during it."""
    kept = sorted(samples)[: len(samples) - len(samples) // 10]
    return own_s * GAUGE_REFERENCE_S * len(kept) / sum(kept)


class Gauge:
    """Samples the kernel every ``INTERVAL_S`` while switched on."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler, samples included

    def sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the work's garbage is not the kernel's time
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def on(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def off(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def top_up(self, first: int) -> list:
        """The samples since index ``first``, at least MIN_SAMPLES of them."""
        while len(self.samples) - first < MIN_SAMPLES:
            self.sample()
        return self.samples[first:]

    def timed(self, fn):
        """Run ``fn()`` with the gauge on; (its result, own wall s, scaled s).

        On an exception the gauge is switched off and the exception passes.
        """
        first, spent = len(self.samples), self.spent
        self.on()
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            self.off()
        own = wall - (self.spent - spent)
        return result, own, scale(own, self.top_up(first))
