"""Reference probes between and inside operations."""
import time

from contour_seeker import ezgp

from perfbench.probe import PROBE_EVERY, Prober


def test_inside_probes_before_minimize_and_restores_it():
    prober = Prober()
    original = ezgp.minimize
    with prober.inside() as spent:
        assert ezgp.minimize is not original
        ezgp.minimize(lambda v: float(v @ v), [1.0, 1.0], method="Nelder-Mead", options={"maxfev": 10})
    assert ezgp.minimize is original
    assert len(prober.samples) == 1 and spent[0] > prober.samples[0] > 0


def test_blocks_are_rate_limited():
    prober = Prober()
    assert prober.maybe_block() > 0
    assert prober.maybe_block() == 0.0
    time.sleep(PROBE_EVERY)
    assert prober.maybe_block() > 0
    assert len(prober.samples) == 2
