"""Unit tests for the tenancy policy layer (no sockets, no threads).

Token buckets run on an injected virtual clock so the rate-limit math is
deterministic; the registry tests exercise quota enforcement and the
shared-digest accounting rule (each tenant is charged once per digest it
uses, even though the cache stores the entry once).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    AuthenticationError,
    QuotaExceededError,
    RateLimitedError,
    ServiceError,
)
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenantLimits,
    TenantRegistry,
    TokenAuthenticator,
    TokenBucket,
)


class FakeClock:
    """Monotonic virtual time the tests advance by hand."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------


def test_bucket_starts_full_and_drains():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
    assert [bucket.try_acquire()[0] for _ in range(3)] == [True, True, True]
    admitted, retry_after = bucket.try_acquire()
    assert not admitted
    # One token at 2 tokens/s is half a second away.
    assert retry_after == pytest.approx(0.5)


def test_bucket_replenishes_at_rate():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
    assert bucket.try_acquire(2.0)[0]
    assert not bucket.try_acquire()[0]
    clock.advance(0.5)  # one token back
    assert bucket.try_acquire()[0]
    assert not bucket.try_acquire()[0]


def test_bucket_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
    clock.advance(3600.0)  # an idle hour must not bank 360k tokens
    assert bucket.try_acquire(2.0)[0]
    assert not bucket.try_acquire()[0]


def test_bucket_default_burst_tracks_rate():
    assert TokenBucket(rate=8.0).burst == 8.0
    assert TokenBucket(rate=0.25).burst == 1.0  # never below one request


def test_bucket_rejects_bad_params():
    with pytest.raises(ServiceError):
        TokenBucket(rate=0.0)
    with pytest.raises(ServiceError):
        TokenBucket(rate=1.0, burst=0)


# ----------------------------------------------------------------------
# TenantLimits / TokenAuthenticator
# ----------------------------------------------------------------------


def test_limits_validate_and_report_unlimited():
    assert TenantLimits().unlimited
    assert not TenantLimits(rate=1.0).unlimited
    assert not TenantLimits(max_bytes=10).unlimited
    for bad in (
        {"rate": 0.0},
        {"burst": 0},
        {"max_bytes": 0},
        {"max_jobs": 0},
    ):
        with pytest.raises(ServiceError):
            TenantLimits(**bad)


def test_authenticator_maps_tokens_to_tenants():
    auth = TokenAuthenticator({"s3cret": "alice", "t0ken": "bob"})
    assert auth.authenticate("Bearer s3cret") == "alice"
    assert auth.authenticate("bearer t0ken") == "bob"  # scheme is case-insensitive
    assert auth.tenants == {"alice", "bob"}
    assert auth.token_map() == {"s3cret": "alice", "t0ken": "bob"}


@pytest.mark.parametrize(
    "header",
    [None, "", "Bearer", "Bearer  ", "Basic s3cret", "s3cret", "Bearer wrong"],
)
def test_authenticator_rejects_bad_headers(header):
    auth = TokenAuthenticator({"s3cret": "alice"})
    with pytest.raises(AuthenticationError) as excinfo:
        auth.authenticate(header)
    # 401 messages must never echo the presented credential.
    assert "wrong" not in str(excinfo.value)


def test_authenticator_requires_tokens():
    with pytest.raises(ServiceError):
        TokenAuthenticator({})


def test_auth_file_round_trip(tmp_path):
    path = tmp_path / "auth.json"
    path.write_text(
        json.dumps(
            {
                "tok-a": "alice",
                "tok-b": {"tenant": "bob", "rate": 5.0, "max_bytes": 1024},
            }
        )
    )
    auth, limits = TokenAuthenticator.from_file(path)
    assert auth.authenticate("Bearer tok-a") == "alice"
    assert auth.authenticate("Bearer tok-b") == "bob"
    assert limits == {"bob": TenantLimits(rate=5.0, max_bytes=1024)}


@pytest.mark.parametrize(
    "doc",
    [
        "[]",  # not an object
        "{}",  # empty
        '{"tok": 7}',  # value neither string nor object
        '{"tok": {"rate": 1.0}}',  # object without tenant
        '{"tok": {"tenant": "a", "color": "red"}}',  # unknown knob
        "not json",
    ],
)
def test_auth_file_rejects_malformed(tmp_path, doc):
    path = tmp_path / "auth.json"
    path.write_text(doc)
    with pytest.raises(ServiceError):
        TokenAuthenticator.from_file(path)


def test_auth_file_missing(tmp_path):
    with pytest.raises(ServiceError):
        TokenAuthenticator.from_file(tmp_path / "absent.json")


# ----------------------------------------------------------------------
# TenantRegistry
# ----------------------------------------------------------------------


def test_registry_unlimited_by_default():
    registry = TenantRegistry()
    for _ in range(100):
        registry.admit(DEFAULT_TENANT)
        registry.check_quota(DEFAULT_TENANT)
    assert registry.metrics()[DEFAULT_TENANT]["rate_limited"] == 0


def test_registry_rate_limits_per_tenant():
    clock = FakeClock()
    registry = TenantRegistry(
        default_limits=TenantLimits(rate=1.0, burst=2), clock=clock
    )
    registry.admit("alice")
    registry.admit("alice")
    with pytest.raises(RateLimitedError) as excinfo:
        registry.admit("alice")
    assert excinfo.value.retry_after == pytest.approx(1.0)
    # Buckets are per tenant: bob is untouched by alice's burst.
    registry.admit("bob")
    clock.advance(1.0)
    registry.admit("alice")
    assert registry.metrics()["alice"]["rate_limited"] == 1
    assert registry.metrics()["bob"]["rate_limited"] == 0


def test_registry_per_tenant_overrides():
    clock = FakeClock()
    registry = TenantRegistry(
        default_limits=TenantLimits(rate=1.0, burst=1),
        per_tenant={"vip": TenantLimits()},
        clock=clock,
    )
    for _ in range(20):
        registry.admit("vip")  # unlimited override
    registry.admit("alice")
    with pytest.raises(RateLimitedError):
        registry.admit("alice")


def test_registry_byte_quota_charges_each_digest_once():
    registry = TenantRegistry(default_limits=TenantLimits(max_bytes=100))
    registry.on_cached("alice", "d1", 60)
    registry.on_cached("alice", "d1", 60)  # same digest: no double charge
    registry.check_quota("alice")
    assert registry.metrics()["alice"]["bytes_used"] == 60
    registry.on_cached("alice", "d2", 60)
    with pytest.raises(QuotaExceededError):
        registry.check_quota("alice")
    # Quotas isolate tenants: bob shares d1 (and is charged for his own
    # use of it) but has his own budget.
    registry.on_cached("bob", "d1", 60)
    registry.check_quota("bob")
    assert registry.metrics()["bob"]["bytes_used"] == 60
    assert registry.metrics()["alice"]["quota_rejections"] == 1


def test_registry_job_quota_tracks_active_jobs():
    registry = TenantRegistry(default_limits=TenantLimits(max_jobs=2))
    registry.on_submit("alice")
    registry.on_submit("alice")
    with pytest.raises(QuotaExceededError):
        registry.check_quota("alice")
    registry.on_finish("alice", "d1", 10, failed=False)
    registry.check_quota("alice")  # a slot freed up
    usage = registry.metrics()["alice"]
    assert usage["active_jobs"] == 1
    assert usage["bytes_used"] == 10


def test_registry_failed_jobs_are_not_charged():
    registry = TenantRegistry(default_limits=TenantLimits(max_bytes=100))
    registry.on_submit("alice")
    registry.on_finish("alice", "d1", 1_000_000, failed=True)
    registry.check_quota("alice")
    assert registry.metrics()["alice"]["bytes_used"] == 0


def test_registry_metrics_lists_every_tenant():
    registry = TenantRegistry()
    registry.on_submit("alice")
    registry.on_cached("bob", "d1", 5)
    doc = registry.metrics()
    assert sorted(doc) == ["alice", "bob"]
    assert doc["alice"]["active_jobs"] == 1
    assert doc["bob"]["bytes_used"] == 5
