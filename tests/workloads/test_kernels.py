"""The six NPB-style kernels: determinism, golden verification, fault
sensitivity."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.base import WorkloadResult
from repro.workloads.suite import SUITE_NAMES, make_workload

SMALL = 0.25  # kernel scale for fast tests


@pytest.fixture(params=SUITE_NAMES)
def workload(request):
    return make_workload(request.param, scale=SMALL, seed=77)


class TestDeterminism:
    def test_two_runs_identical(self, workload):
        a = workload.run()
        b = workload.run()
        assert a.matches(b, rtol=0.0)

    def test_golden_cached_and_finite(self, workload):
        golden = workload.golden()
        assert golden is workload.golden()
        assert np.all(np.isfinite(golden.verification))

    def test_different_seed_different_output(self, workload):
        other = make_workload(workload.name, scale=SMALL, seed=78)
        assert not workload.golden().matches(other.golden())

    def test_verify_accepts_own_output(self, workload):
        assert workload.verify(workload.run())


class TestFaultSensitivity:
    def test_large_corruption_detected(self, workload):
        # Flip a high-impact bit in the largest input array: the golden
        # compare must notice (this is the SDC-detection path).
        state = workload.build_state()
        arrays = [
            (k, v)
            for k, v in state.items()
            if isinstance(v, np.ndarray) and v.dtype.kind in "fc" and v.size
        ]
        if not arrays:
            arrays = [
                (k, v) for k, v in state.items() if isinstance(v, np.ndarray)
            ]
        name, target = max(arrays, key=lambda kv: kv[1].nbytes)
        flat = np.ascontiguousarray(target)
        state[name] = flat
        view = flat.reshape(-1)
        view[view.size // 2] = view[view.size // 2] * 1e6 + 1e6
        result = workload.run(state)
        assert not workload.verify(result)

    def test_untouched_state_verifies(self, workload):
        state = workload.build_state()
        assert workload.verify(workload.run(state))


class TestStructure:

    def test_result_carries_name_and_iterations(self, workload):
        result = workload.run()
        assert result.name == workload.name
        assert result.iterations > 0


class TestResultMatching:
    def test_name_mismatch_fails(self):
        a = WorkloadResult("CG", np.array([1.0]), 1)
        b = WorkloadResult("EP", np.array([1.0]), 1)
        assert not a.matches(b)

    def test_shape_mismatch_fails(self):
        a = WorkloadResult("CG", np.array([1.0]), 1)
        b = WorkloadResult("CG", np.array([1.0, 2.0]), 1)
        assert not a.matches(b)

    def test_rtol_respected(self):
        a = WorkloadResult("CG", np.array([1.0]), 1)
        b = WorkloadResult("CG", np.array([1.0 + 1e-12]), 1)
        assert a.matches(b, rtol=1e-10)
        assert not a.matches(b, rtol=1e-14)


class TestValidation:
    def test_bad_scale_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("CG", scale=0.0)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("ZZ")


class TestKernelSpecifics:
    def test_cg_converges(self):
        cg = make_workload("CG", scale=SMALL)
        zeta, rnorm, _ = cg.golden().verification
        assert zeta > 0
        assert rnorm < 1.0

    def test_lu_residual_decreases(self):
        lu = make_workload("LU", scale=SMALL)
        norms = lu.golden().verification[:-1]
        assert norms[-1] < norms[0]

    def test_mg_residual_decreases(self):
        mg = make_workload("MG", scale=SMALL)
        norms = mg.golden().verification[:-1]
        assert norms[-1] < norms[0]

    def test_ep_annulus_counts_sum_to_accepted(self):
        ep = make_workload("EP", scale=SMALL)
        verification = ep.golden().verification
        counts = verification[2:]
        assert np.all(counts >= 0)
        assert counts.sum() > 0

    def test_is_probe_ranks_in_range(self):
        is_wl = make_workload("IS", scale=SMALL)
        state = is_wl.build_state()
        n = state["keys"].size
        probe_ranks = is_wl.golden().verification[:-1]
        assert np.all((0 <= probe_ranks) & (probe_ranks < n))

    def test_ft_checksums_evolve(self):
        ft = make_workload("FT", scale=SMALL)
        verification = ft.golden().verification
        reals = verification[0::2]
        assert len(set(np.round(reals, 6))) > 1
