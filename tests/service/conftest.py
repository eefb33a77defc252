"""Service-test fixtures: one CampaignService per test, tiny campaigns."""

import pytest

from repro.service import CampaignService, ServiceConfig

#: Small enough that a four-session campaign flies in well under a
#: second, long enough that every session still sees upsets.
TIME_SCALE = 0.02


def make_service(root, **overrides) -> CampaignService:
    telemetry = overrides.pop("telemetry", None)
    config = ServiceConfig(
        root=str(root),
        workers=overrides.pop("workers", 1),
        capacity=overrides.pop("capacity", 16),
        lease_ttl_s=overrides.pop("lease_ttl_s", 5.0),
        poll_s=overrides.pop("poll_s", 0.05),
        broker_id=overrides.pop("broker_id", "broker-test"),
        **overrides,
    )
    return CampaignService(config, telemetry=telemetry)


@pytest.fixture
def service(tmp_path):
    svc = make_service(tmp_path / "root")
    yield svc
    svc.journal.close()
