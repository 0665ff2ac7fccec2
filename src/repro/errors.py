"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class.  Specific subclasses communicate
which subsystem rejected the input:

* :class:`InvalidTreeError` -- a structure claimed to be a rooted tree is not.
* :class:`InvalidGraphError` -- a boolean adjacency matrix is malformed.
* :class:`DimensionMismatchError` -- two objects over different node counts
  were combined.
* :class:`BackendError` -- an unknown matrix backend was requested from the
  backend registry (see :mod:`repro.core.backend`).
* :class:`AdversaryError` -- an adversary produced an illegal move or was
  driven past its defined horizon.
* :class:`SearchBudgetExceeded` -- an exact search hit its configured
  node or transition cap before completing.
* :class:`SimulationError` -- the round-based engine was misused (e.g. asked
  to step a finished simulation without permission).
* :class:`TraceError` -- a recorded trace failed validation or replay.
* :class:`SweepFormatError` -- a serialized sweep result failed validation.
* :class:`SpecError` -- a declarative simulation spec failed validation
  against the service registry (see :mod:`repro.service.specs`).
* :class:`TaskError` -- a task graph (task kinds, payloads, input wiring)
  failed validation (see :mod:`repro.service.tasks`); a subclass of
  :class:`SpecError` so spec-rejection handling covers both.
* :class:`CacheError` -- a result-cache store or entry was malformed or
  misused (see :mod:`repro.service.cache`).
* :class:`JournalError` -- the persistent job journal is malformed or
  unreadable (see :mod:`repro.service.journal`).
* :class:`ServiceError` -- the simulation service (scheduler / HTTP API /
  client) was misused or returned a failure.  The client raises typed
  subclasses carrying transport context: :class:`ServiceConnectionError`
  (the server was unreachable mid-request) and
  :class:`ServiceResponseError` (a non-2xx response; ``status`` and the
  server's JSON ``payload`` are attached), itself specialized into
  :class:`SpecRejectedError` (400), :class:`AuthenticationError` (401),
  :class:`PayloadTooLargeError` (413), :class:`UnknownResourceError`
  (404), :class:`LeaseExpiredError` (409, a work lease was reclaimed --
  see :mod:`repro.service.fleet`), :class:`RateLimitedError` (429,
  carries ``retry_after``), and :class:`QuotaExceededError` (429 for an
  exhausted per-tenant quota -- a :class:`RateLimitedError` subclass
  that bounded retry must *not* retry, because waiting does not
  replenish a quota).  The same classes are raised server-side by
  :mod:`repro.service.tenancy` and :mod:`repro.service.fleet` and
  mapped onto HTTP statuses by the request handler.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidTreeError(ReproError, ValueError):
    """A parent array / edge set does not describe a rooted tree."""


class InvalidGraphError(ReproError, ValueError):
    """A matrix is not a valid (square, boolean, reflexive) adjacency matrix."""


class DimensionMismatchError(ReproError, ValueError):
    """Objects defined over different numbers of nodes were combined."""


class BackendError(ReproError, ValueError):
    """An unknown or misused matrix backend was requested."""


class AdversaryError(ReproError, RuntimeError):
    """An adversary produced an illegal tree or was driven out of range."""


class SearchBudgetExceeded(ReproError, RuntimeError):
    """An exhaustive search exceeded its configured budget.

    Attributes
    ----------
    states_explored:
        Number of distinct states explored before the cap was hit.
    """

    def __init__(self, message: str, states_explored: int = 0) -> None:
        super().__init__(message)
        self.states_explored = states_explored


class SimulationError(ReproError, RuntimeError):
    """The synchronous round engine was used incorrectly."""


class TraceError(ReproError, ValueError):
    """A serialized trace is malformed or fails replay validation."""


class SweepFormatError(ReproError, ValueError):
    """A serialized sweep result is malformed (see ``SweepResult.from_json``)."""


class SpecError(ReproError, ValueError):
    """A declarative simulation spec failed registry validation."""


class TaskError(SpecError):
    """A task graph failed validation (unknown kind, bad payload/inputs)."""


class CacheError(ReproError, ValueError):
    """A result-cache entry or store is malformed or was misused."""


class JournalError(ReproError, ValueError):
    """The persistent job journal is malformed or could not be replayed."""


class ServiceError(ReproError, RuntimeError):
    """The simulation service (scheduler/HTTP/client) failed or was misused."""


class ServiceConnectionError(ServiceError):
    """The service could not be reached (refused, reset, timed out)."""


class ServiceResponseError(ServiceError):
    """The service answered with a non-2xx status.

    Attributes
    ----------
    status:
        The HTTP status code of the response.
    payload:
        The decoded JSON error document the server returned (the
        ``error`` field becomes the exception message).
    """

    def __init__(
        self, message: str, status: int, payload: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.payload: Dict[str, Any] = dict(payload or {})


class SpecRejectedError(ServiceResponseError):
    """The service rejected a submitted spec or task graph (HTTP 400)."""


class AuthenticationError(ServiceResponseError):
    """The request carried a missing or invalid bearer token (HTTP 401)."""

    def __init__(
        self, message: str, status: int = 401, payload: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message, status=status, payload=payload)


class RateLimitedError(ServiceResponseError):
    """The service applied backpressure (HTTP 429).

    Attributes
    ----------
    retry_after:
        Seconds after which the request is expected to be admitted
        (the ``Retry-After`` header / ``retry_after`` payload field),
        or ``None`` when the server did not say.
    """

    def __init__(
        self,
        message: str,
        status: int = 429,
        payload: Optional[Dict[str, Any]] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message, status=status, payload=payload)
        self.retry_after: Optional[float] = (
            None if retry_after is None else float(retry_after)
        )


class QuotaExceededError(RateLimitedError):
    """A per-tenant quota (bytes or jobs) is exhausted (HTTP 429).

    Subclasses :class:`RateLimitedError` so blanket 429 handling covers
    both, but bounded retry skips it: waiting replenishes a token
    bucket, not a quota.
    """


class LeaseExpiredError(ServiceResponseError):
    """A work lease is unknown or already expired (HTTP 409).

    Raised server-side by :class:`repro.service.fleet.WorkQueue` when a
    worker heartbeats a lease that has been reclaimed, and client-side
    for 409 responses.  A worker receiving it must abandon the batch:
    the tasks have re-entered the ready set and another worker (or the
    server's local fallback) owns them now.
    """

    def __init__(
        self, message: str, status: int = 409, payload: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message, status=status, payload=payload)


class PayloadTooLargeError(ServiceResponseError):
    """The request body exceeded the server's configured cap (HTTP 413)."""


class UnknownResourceError(ServiceResponseError):
    """The requested job/path does not exist on the service (HTTP 404)."""
