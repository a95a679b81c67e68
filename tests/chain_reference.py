"""The exact chain as a plain loop of two-argument markov_step calls.

Tests compare the library's band chain against this loop, so that an exact
reference never runs through the code it checks.
"""

from oqwalk import linear as lin


def markov_rows(spec, steps, p0=None):
    """p_0, ..., p_steps from p0 (default: the walker at node 0), each a new array."""
    p = lin._start(spec, steps, p0)
    yield p
    for _ in range(steps):
        p = lin.markov_step(p, spec.omega)
        yield p
