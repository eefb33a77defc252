"""A flown session keeps no object per run.

Table 2's session 1 flies ~31k runs, and ~94% of them strike and fail
nothing.  Its result keeps the session-level data and a sparse table of
the busy runs, so what it retains grows with upsets and failures, not
with runs: fewer GC-tracked objects than runs (a result holding one
outcome per run kept about four per run), and a pickle under 1 MB.
The pickle is what a pool worker sends back.
"""

import gc
import pickle

from repro.harness.campaign import _fly_session
from repro.harness.session import TABLE2_SESSION_PLANS, scaled_plan


def test_full_length_session1_retains_less_than_an_object_per_run():
    plan = TABLE2_SESSION_PLANS[0]
    # Fill the module-level caches a first flight builds.
    _fly_session(scaled_plan(plan, 0.001), 2023)
    gc.collect()
    before = len(gc.get_objects())
    result = _fly_session(plan, 2023)
    gc.collect()
    retained = len(gc.get_objects()) - before

    session = result[0]
    assert session.runs_flown > 30_000
    assert retained < session.runs_flown
    assert len(pickle.dumps(result)) <= 1_000_000
