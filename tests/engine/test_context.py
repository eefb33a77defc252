"""ExecutionContext: validation, derivation, picklability."""

import pickle

import pytest

from repro.engine import ExecutionContext
from repro.errors import EngineError


class TestValidation:
    def test_defaults(self):
        ctx = ExecutionContext()
        assert ctx.seed == 2023
        assert ctx.time_scale == 1.0
        assert ctx.flux_per_cm2_s is None
        assert ctx.telemetry is None

    def test_seed_coerced_to_int(self):
        assert ExecutionContext(seed=7.0).seed == 7

    def test_rejects_nonpositive_time_scale(self):
        with pytest.raises(EngineError):
            ExecutionContext(time_scale=0.0)
        with pytest.raises(EngineError):
            ExecutionContext(time_scale=-0.5)

    def test_rejects_negative_flux(self):
        with pytest.raises(EngineError):
            ExecutionContext(flux_per_cm2_s=-1.0)


class TestDerivation:
    def test_child_matches_rng_streams(self):
        ctx = ExecutionContext(seed=42)
        a = ctx.child("session", label="session1")
        b = ctx.streams.child("session", label="session1")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_derive_seed_is_stable(self):
        ctx = ExecutionContext(seed=42)
        first = ctx.derive_seed("fi", structure="rob")
        second = ctx.derive_seed("fi", structure="rob")
        assert first == second

    def test_derive_seed_separates_names_and_qualifiers(self):
        ctx = ExecutionContext(seed=42)
        seeds = {
            ctx.derive_seed("fi", structure="rob"),
            ctx.derive_seed("fi", structure="lsq"),
            ctx.derive_seed("vmin", structure="rob"),
            ExecutionContext(seed=43).derive_seed("fi", structure="rob"),
        }
        assert len(seeds) == 4

    def test_qualifier_order_does_not_matter(self):
        ctx = ExecutionContext(seed=1)
        assert ctx.derive_seed("x", a=1, b=2) == ctx.derive_seed("x", b=2, a=1)


class TestCopies:
    def test_pickles(self):
        ctx = ExecutionContext(seed=5, time_scale=0.2, flux_per_cm2_s=1e6)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.seed == 5
        assert clone.derive_seed("x") == ctx.derive_seed("x")
