"""Multi-tenant hardening: bearer-token auth, rate limits, quotas, accounting.

This module is the policy layer the HTTP server and the job scheduler
share when the service is exposed to more than one caller:

* :class:`TokenAuthenticator` maps ``Authorization: Bearer <token>``
  headers onto tenant ids (401 on missing/unknown tokens).  Tokens come
  from ``serve --auth-token TOKEN[:TENANT]`` flags or an ``--auth-file``
  JSON document, which may also carry per-tenant limit overrides;
* :class:`TokenBucket` is the per-tenant rate limiter: a classic token
  bucket (``rate`` requests/second sustained, ``burst`` instantaneous)
  whose :meth:`~TokenBucket.try_acquire` returns how long the caller
  should wait -- the ``Retry-After`` the server sends with a 429;
* :class:`TenantRegistry` keeps one account per tenant: submission and
  rejection counters, the set of cache digests the tenant has touched,
  and the bytes those digests occupy.  Shared digests stay deduplicated
  in the underlying :class:`~repro.service.cache.ResultCache` -- two
  tenants submitting the same spec share one stored entry -- but each
  tenant's account is charged for every digest *it* uses, which is what
  per-tenant byte quotas meter.

Everything here is opt-in: a server constructed without tokens or limits
behaves exactly like the pre-hardening service (one anonymous
:data:`DEFAULT_TENANT`, no limits enforced).

All classes are thread-safe; the HTTP handler threads and the scheduler
worker threads call into one shared registry.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Set, Tuple, Union

from repro.errors import (
    AuthenticationError,
    QuotaExceededError,
    RateLimitedError,
    ServiceError,
)

#: Tenant id used when auth is off (or a token maps to no explicit id).
DEFAULT_TENANT = "public"


@dataclass(frozen=True)
class TenantLimits:
    """Per-tenant policy knobs; ``None`` always means "unlimited".

    ``rate``/``burst`` feed the tenant's :class:`TokenBucket`
    (requests/second sustained and instantaneous); ``max_bytes`` caps the
    cache bytes charged to the tenant's account; ``max_jobs`` caps the
    tenant's *active* (queued or running) jobs at any moment.
    """

    rate: Optional[float] = None
    burst: Optional[int] = None
    max_bytes: Optional[int] = None
    max_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ServiceError(f"rate must be > 0 or None, got {self.rate}")
        if self.burst is not None and self.burst < 1:
            raise ServiceError(f"burst must be >= 1 or None, got {self.burst}")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ServiceError(f"max_bytes must be >= 1 or None, got {self.max_bytes}")
        if self.max_jobs is not None and self.max_jobs < 1:
            raise ServiceError(f"max_jobs must be >= 1 or None, got {self.max_jobs}")

    @property
    def unlimited(self) -> bool:
        """True when no knob is set (the auth-off default)."""
        return (
            self.rate is None
            and self.max_bytes is None
            and self.max_jobs is None
        )


class TokenBucket:
    """Thread-safe token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``clock`` is injectable (tests drive virtual time).  The bucket
    starts full, so a quiet tenant always has its full burst available.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ServiceError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else max(1, int(rate)))
        if self.burst < 1:
            raise ServiceError(f"burst must be >= 1, got {burst}")
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> Tuple[bool, float]:
        """``(admitted, retry_after_seconds)``; ``retry_after`` is 0 on admit."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True, 0.0
            return False, (tokens - self._tokens) / self.rate


class TokenAuthenticator:
    """Bearer-token -> tenant-id map (plus optional per-tenant limits).

    Built from a plain ``{token: tenant}`` dict, or
    :meth:`from_file` on a JSON document whose values are either a bare
    tenant-id string or ``{"tenant": ..., "rate": ..., "burst": ...,
    "max_bytes": ..., "max_jobs": ...}`` objects.
    """

    def __init__(self, tokens: Dict[str, str]) -> None:
        if not tokens:
            raise ServiceError("an authenticator needs at least one token")
        self._tokens = {str(t): str(tenant) for t, tenant in tokens.items()}

    @property
    def tenants(self) -> Set[str]:
        """Every tenant id some token maps to."""
        return set(self._tokens.values())

    def token_map(self) -> Dict[str, str]:
        """A copy of the token -> tenant map (merging auth sources)."""
        return dict(self._tokens)

    @classmethod
    def from_file(
        cls, path: Union[str, Path]
    ) -> Tuple["TokenAuthenticator", Dict[str, TenantLimits]]:
        """Parse an auth file; returns ``(authenticator, per-tenant limits)``.

        Raises :class:`~repro.errors.ServiceError` on malformed files --
        a server must refuse to start half-authenticated.
        """
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(f"cannot read auth file {path}: {exc}") from exc
        if not isinstance(doc, dict) or not doc:
            raise ServiceError(
                f"auth file {path} must be a non-empty JSON object mapping "
                "tokens to tenants"
            )
        tokens: Dict[str, str] = {}
        limits: Dict[str, TenantLimits] = {}
        for token, value in doc.items():
            if isinstance(value, str):
                tokens[token] = value
                continue
            if not isinstance(value, dict) or "tenant" not in value:
                raise ServiceError(
                    f"auth file {path}: entry for token {token[:8]!r}... must "
                    "be a tenant string or an object with a 'tenant' key"
                )
            tenant = str(value["tenant"])
            tokens[token] = tenant
            knobs = {k: value[k] for k in ("rate", "burst", "max_bytes", "max_jobs") if k in value}
            unknown = set(value) - {"tenant", "rate", "burst", "max_bytes", "max_jobs"}
            if unknown:
                raise ServiceError(
                    f"auth file {path}: unknown keys {sorted(unknown)} for "
                    f"token {token[:8]!r}..."
                )
            if knobs:
                limits[tenant] = TenantLimits(**knobs)
        return cls(tokens), limits

    def authenticate(self, authorization: Optional[str]) -> str:
        """Resolve an ``Authorization`` header value to a tenant id.

        Raises :class:`~repro.errors.AuthenticationError` (-> 401) for a
        missing header, a non-Bearer scheme, or an unknown token.  The
        message never echoes the presented token.
        """
        if not authorization:
            raise AuthenticationError("missing Authorization header (Bearer token)")
        scheme, _, token = authorization.partition(" ")
        if scheme.lower() != "bearer" or not token.strip():
            raise AuthenticationError(
                "Authorization header must be 'Bearer <token>'"
            )
        tenant = self._tokens.get(token.strip())
        if tenant is None:
            raise AuthenticationError("unknown bearer token")
        return tenant


@dataclass
class TenantAccount:
    """One tenant's live accounting state (owned by :class:`TenantRegistry`)."""

    tenant: str
    limits: TenantLimits
    bucket: Optional[TokenBucket] = None
    digests: Set[str] = field(default_factory=set)
    bytes_used: int = 0
    active_jobs: int = 0
    submitted: int = 0
    rate_limited: int = 0
    quota_rejections: int = 0
    #: Fleet work claims made under this tenant's token (workers
    #: authenticate exactly like tenants); accounting only -- claims
    #: drain work, so they are never rate-limited or quota-charged.
    worker_claims: int = 0

    def to_doc(self) -> Dict[str, Any]:
        """The per-tenant block ``/metrics`` serves."""
        return {
            "submitted": self.submitted,
            "active_jobs": self.active_jobs,
            "digests": len(self.digests),
            "bytes_used": self.bytes_used,
            "max_bytes": self.limits.max_bytes,
            "max_jobs": self.limits.max_jobs,
            "rate": self.limits.rate,
            "rate_limited": self.rate_limited,
            "quota_rejections": self.quota_rejections,
            "worker_claims": self.worker_claims,
        }


class TenantRegistry:
    """Shared per-tenant accounts: rate admission, quota checks, usage.

    Parameters
    ----------
    default_limits:
        Limits applied to tenants with no explicit override (the
        ``serve --rate-limit/--tenant-max-bytes/--tenant-max-jobs``
        flags).  Defaults to fully unlimited.
    per_tenant:
        Tenant-id -> :class:`TenantLimits` overrides (usually from the
        auth file).
    clock:
        Injectable time source shared by every tenant's token bucket.
    """

    def __init__(
        self,
        default_limits: Optional[TenantLimits] = None,
        per_tenant: Optional[Dict[str, TenantLimits]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._default = default_limits or TenantLimits()
        self._overrides = dict(per_tenant or {})
        self._clock = clock
        self._accounts: Dict[str, TenantAccount] = {}
        self._lock = threading.Lock()

    def _account(self, tenant: str) -> TenantAccount:
        """Under the lock: the (lazily created) account for a tenant."""
        account = self._accounts.get(tenant)
        if account is None:
            limits = self._overrides.get(tenant, self._default)
            bucket = None
            if limits.rate is not None:
                bucket = TokenBucket(limits.rate, limits.burst, clock=self._clock)
            account = TenantAccount(tenant=tenant, limits=limits, bucket=bucket)
            self._accounts[tenant] = account
        return account

    # ------------------------------------------------------------------
    # Admission (HTTP layer)
    # ------------------------------------------------------------------

    def admit(self, tenant: str, tokens: float = 1.0) -> None:
        """Charge the tenant's token bucket; raise 429 when it is dry.

        Raises :class:`~repro.errors.RateLimitedError` carrying the
        seconds until ``tokens`` will be available again.
        """
        with self._lock:
            account = self._account(tenant)
            bucket = account.bucket
        if bucket is None:
            return
        admitted, retry_after = bucket.try_acquire(tokens)
        if admitted:
            return
        with self._lock:
            account.rate_limited += 1
        raise RateLimitedError(
            f"tenant {tenant!r} exceeded its rate limit of "
            f"{bucket.rate:g} requests/s; retry in {retry_after:.2f}s",
            retry_after=retry_after,
        )

    # ------------------------------------------------------------------
    # Quotas + accounting (scheduler layer)
    # ------------------------------------------------------------------

    def check_quota(self, tenant: str) -> None:
        """Refuse new submissions from a tenant over its byte/job quota.

        Raises :class:`~repro.errors.QuotaExceededError` (-> 429).  The
        byte quota meters cumulative cache bytes charged to the tenant's
        account; the job quota meters currently-active jobs.
        """
        with self._lock:
            account = self._account(tenant)
            limits = account.limits
            if limits.max_bytes is not None and account.bytes_used >= limits.max_bytes:
                account.quota_rejections += 1
                raise QuotaExceededError(
                    f"tenant {tenant!r} is over its cache byte quota "
                    f"({account.bytes_used} of {limits.max_bytes} bytes used)",
                    retry_after=60.0,
                )
            if limits.max_jobs is not None and account.active_jobs >= limits.max_jobs:
                account.quota_rejections += 1
                raise QuotaExceededError(
                    f"tenant {tenant!r} already has {account.active_jobs} active "
                    f"jobs (quota {limits.max_jobs})",
                    retry_after=60.0,
                )

    def on_submit(self, tenant: str) -> None:
        """Record an enqueued (non-cached) submission: one more active job."""
        with self._lock:
            account = self._account(tenant)
            account.submitted += 1
            account.active_jobs += 1

    def on_worker_claim(self, tenant: str) -> None:
        """Record one fleet ``work:claim`` made under this tenant's token.

        Pure accounting: claiming work *drains* the queue, so it passes
        no rate limiter and charges no quota (a throttled heartbeat or
        claim would expire healthy leases and trigger recomputation).
        """
        with self._lock:
            self._account(tenant).worker_claims += 1

    def on_cached(self, tenant: str, digest: str, nbytes: int) -> None:
        """Record a submission answered straight from the cache.

        The tenant is charged for the digest (first use only): a cache
        hit still *occupies* the shared entry on the tenant's behalf.
        """
        with self._lock:
            account = self._account(tenant)
            account.submitted += 1
            self._charge(account, digest, nbytes)

    def on_finish(self, tenant: str, digest: str, nbytes: int, failed: bool) -> None:
        """Record a job leaving the active set; charge its result bytes."""
        with self._lock:
            account = self._account(tenant)
            account.active_jobs = max(0, account.active_jobs - 1)
            if not failed:
                self._charge(account, digest, nbytes)

    @staticmethod
    def _charge(account: TenantAccount, digest: str, nbytes: int) -> None:
        """Under the lock: charge a digest to an account exactly once."""
        if digest not in account.digests:
            account.digests.add(digest)
            account.bytes_used += max(0, int(nbytes))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant accounting block for ``/metrics``."""
        with self._lock:
            return {
                tenant: account.to_doc()
                for tenant, account in sorted(self._accounts.items())
            }


__all__ = [
    "DEFAULT_TENANT",
    "TenantAccount",
    "TenantLimits",
    "TenantRegistry",
    "TokenAuthenticator",
    "TokenBucket",
]
