"""CPU speed probe for timing on a shared machine.

On a small shared box the same round of work can take 2x longer from one
minute to the next, because other tenants contend for the core.  The
probe samples that speed while the work runs: every 10 ms a SIGALRM
handler times two fixed kernels shaped like followrl's hot loops.  One is
numpy: a 5-32-32-1 MLP forward, backward and Adam-style update on a
32-row batch, plus row stacking.  The other is scalar Python: the float
arithmetic, ``math`` calls and clamps of a simulator or reward step.  The
kernels are frozen here, outside the package, so a change to followrl
moves the measured work and not the probe.

``slowdown(since)`` is the geometric mean, over the two kernels, of their
mean time since a mark divided by their time in the fast state of a
2-core box with numpy 2.4.6.  Dividing a measured time by it gives the
time at reference speed.  The kernels use no random numbers and touch no
followrl state.
"""

import math
import signal
import time

import numpy as np

PERIOD_S = 0.01
# kernel times in the fast state of the reference box
REFERENCE_S = {"numpy": 2.3e-4, "scalar": 1.06e-4}


class SpeedProbe:
    """Context manager that samples the kernel times while it is open."""

    def __init__(self):
        def fixed(rows, cols):
            return np.sin(np.arange(rows * cols, dtype=float) + 1.0).reshape(rows, cols)
        self.x = fixed(32, 5)
        self.w = [fixed(5, 32), fixed(32, 32), fixed(32, 1)]
        self.m = [np.zeros_like(w) for w in self.w]
        self.kernels = {"numpy": self.numpy_kernel, "scalar": self.scalar_kernel}
        self.samples = {name: [] for name in self.kernels}
        self._previous = None

    def numpy_kernel(self):
        x, (w1, w2, w3) = self.x, self.w
        for _ in range(2):
            h1 = np.maximum(x @ w1, 0.0)
            h2 = np.maximum(h1 @ w2, 0.0)
            out = np.tanh(h2 @ w3)
            g3 = 1.0 - out ** 2
            g2 = (g3 @ w3.T) * (h2 > 0.0)
            g1 = (g2 @ w2.T) * (h1 > 0.0)
            for w, mom, grad in zip(self.w, self.m, (x.T @ g1, h1.T @ g2, h2.T @ g3)):
                mom *= 0.9
                mom += 0.1 * grad
                w - 1e-3 * mom / (np.sqrt(mom * mom) + 1e-8)
            rows = list(x)
            np.stack(rows)
            np.array([[float(r[0])] for r in rows])

    @staticmethod
    def scalar_kernel():
        total = 0.0
        for i in range(300):
            v = i * 0.1
            total += math.exp(-0.5 * v * v) + min(max(v, 0.0), 5.0)
        return total

    def sample(self, *_):
        for name, kernel in self.kernels.items():
            t = time.perf_counter()
            kernel()
            self.samples[name].append(time.perf_counter() - t)

    def mark(self):
        return len(self.samples["numpy"])

    def slowdown(self, since):
        """Kernel time since ``since`` over the reference time, as the
        geometric mean over the kernels."""
        if self.mark() == since:      # nothing ran long enough
            self.sample()
        ratios = [sum(v[since:]) / len(v[since:]) / REFERENCE_S[name]
                  for name, v in self.samples.items()]
        return math.prod(ratios) ** (1.0 / len(ratios))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
