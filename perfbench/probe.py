"""Reference probes: a fixed computation timed alongside the operations.

The machines this benchmark runs on change speed by tens of percent within
a minute, because other tenants share them.  A probe is a small
Nelder-Mead fit of a fixed Gaussian-process likelihood, written here and
sharing no code with contour_seeker: a change to the program does not move
it, while a change in the machine's speed moves it about as much as the
program.  Operation times are reported as multiples of the median probe of
the same run, which cancels most of that drift.

A block of probes runs at most every PROBE_EVERY seconds: after an
operation, and inside long operations before calls of
``contour_seeker.ezgp.minimize``.  The time a block takes inside an
operation is taken out of that operation's time.
"""
from __future__ import annotations

import contextlib
import time

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

PROBE_EVERY = 0.5
BLOCK = 3  # probes per block; the first one of a block is a warm-up


class Prober:
    """Runs probe blocks and keeps each block's median duration in ``samples``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        x = rng.random(15)
        z = rng.integers(1, 4, 15)
        self._y = np.cos(6.0 * x) + z
        self._d2 = np.square(x[:, None] - x[None, :])
        self._masks = [(z[:, None] == l) & (z[None, :] == l) for l in (1, 2, 3)]
        self.samples: list[float] = []
        self._last = -np.inf

    def _nll(self, v):
        e = np.exp(v)
        k = e[0] * np.exp(-self._d2 * e[2])
        for level, mask in enumerate(self._masks):
            k = k + np.where(mask, e[1] * np.exp(-self._d2 * e[3 + level]), 0.0)
        k = k + 1e-8 * float(np.mean(np.diag(k))) * np.eye(len(self._y))
        try:
            f = sla.cho_factor(k, lower=True)
        except np.linalg.LinAlgError:
            return np.inf
        ones = np.ones(len(self._y))
        sy, s1 = sla.cho_solve(f, self._y), sla.cho_solve(f, ones)
        return 2.0 * float(np.sum(np.log(np.diag(f[0])))) + self._y @ sy - (ones @ sy) ** 2 / (ones @ s1)

    def _probe(self) -> float:
        t0 = time.perf_counter()
        minimize(self._nll, np.zeros(6), method="Nelder-Mead", bounds=[(-4.0, 4.0)] * 6,
                 options={"maxfev": 40})
        return time.perf_counter() - t0

    def block(self) -> float:
        """Run one block now; returns the seconds it took."""
        t0 = time.perf_counter()
        times = [self._probe() for _ in range(BLOCK)]
        self.samples.append(float(np.median(times[1:])))
        self._last = time.perf_counter()
        return self._last - t0

    def maybe_block(self) -> float:
        """Run a block if PROBE_EVERY seconds have passed since the last one."""
        return self.block() if time.perf_counter() - self._last >= PROBE_EVERY else 0.0

    @contextlib.contextmanager
    def inside(self):
        """Probe inside the block's operation too; yields [seconds spent probing]."""
        from contour_seeker import ezgp

        spent = [0.0]
        original = ezgp.minimize

        def probed(*args, **kwargs):
            spent[0] += self.maybe_block()
            return original(*args, **kwargs)

        ezgp.minimize = probed
        try:
            yield spent
        finally:
            ezgp.minimize = original
