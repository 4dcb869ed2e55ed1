"""Exception hierarchy for the repro (TraSS) library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at the boundary.  Sub-hierarchies mirror the
package layout: geometry, index, key-value store, query processing and
the distributed serving tier.

Retry / failover policy is driven **by type**, never by message
matching:

* :class:`TransientError` — the operation may succeed if repeated
  (region briefly unavailable, shard worker restarting).  Resilient
  executors retry these with backoff; the serving coordinator fails
  over to a replica.
* :class:`FatalError` — repeating cannot help (corrupt file, exhausted
  deadline budget, malformed request).  These propagate immediately.
* :class:`DegradedResult` — not a failure of the operation but of its
  *completeness*: raised (or carried) when an answer was produced with
  known-missing key ranges and the caller did not opt into degraded
  mode.  It transports the partial result and the exact skipped ranges
  so callers can still choose to use them.

Anything deriving from neither ``TransientError`` nor
``DegradedResult`` is treated as fatal by the retry machinery, whether
or not it also derives from :class:`FatalError` (which exists to mark
the cases that are *known* to be permanent).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(ReproError):
    """Invalid geometric input (empty trajectory, inverted MBR, ...)."""


class IndexError_(ReproError):
    """Invalid index parameter or encoding input.

    Named with a trailing underscore to avoid shadowing the built-in
    ``IndexError``; exported as ``IndexingError`` from the package root.
    """


class EncodingError(IndexError_):
    """An index value or (sequence, position-code) pair is out of range."""


class KVStoreError(ReproError):
    """Base class for key-value store failures."""


class RegionError(KVStoreError):
    """A key was routed to a region that does not own it."""


# ----------------------------------------------------------------------
# The retryability taxonomy
# ----------------------------------------------------------------------
class TransientError(KVStoreError):
    """A retryable failure; the operation may succeed if repeated.

    Resilient executors treat this class (and subclasses) as the signal
    that retry-with-backoff is worthwhile; the serving coordinator
    treats it as the signal to fail over to another replica.  Every
    other error is permanent and propagates immediately.
    """


class FatalError(ReproError):
    """A failure retrying cannot fix (corrupt state, spent budget).

    The complement of :class:`TransientError`: executors give up on
    these immediately rather than burning their retry budget.
    """


class CorruptSegmentError(FatalError, KVStoreError):
    """A compact segment failed an integrity check.

    Raised when a segment's header/index is unreadable at open time, or
    when a block fails its CRC/structure check as it is first
    materialised — corruption in one block surfaces only when that
    block is touched, every other block keeps serving (block-level
    isolation)."""


class RegionUnavailableError(TransientError):
    """A region (shard) refused a scan — the region-server is down,
    moving, or mid-recovery.  Carries the region's key span so circuit
    breakers can track failures per region."""

    def __init__(self, message: str, region_span=None):
        super().__init__(message)
        #: ``(start_key, end_key)`` of the failing region, or ``None``
        self.region_span = region_span


class ScanTimeoutError(FatalError, KVStoreError):
    """A multi-range scan exhausted its deadline budget.

    Not transient: retrying inside the same query cannot help once the
    budget is spent.  In degraded mode the executor converts this into
    skipped ranges instead of raising.
    """


class DegradedResult(ReproError):
    """An answer was produced, but with known-missing key ranges.

    Raised where a partial answer exists and the caller did not opt
    into degraded mode (``degraded_mode=False``): the result is not
    silently dropped — it rides on the exception together with the
    exact skipped ranges, mirroring the ``ScanReport`` contract.
    """

    def __init__(self, message: str, result=None, skipped_ranges=None):
        super().__init__(message)
        #: the partial search result (answers present are exact)
        self.result = result
        #: exactly the key ranges that were never read
        self.skipped_ranges = list(skipped_ranges or [])


class QueryError(ReproError):
    """Invalid query parameter (negative threshold, k < 1, ...)."""


# ----------------------------------------------------------------------
# Distributed serving tier
# ----------------------------------------------------------------------
class ClusterError(ReproError):
    """Base class for serving-tier (coordinator / shard worker) errors."""


class ShardUnavailableError(ClusterError, TransientError):
    """Every replica of a shard partition is unreachable.

    Transient by design: a supervisor restart or operator action can
    bring the partition back, so callers with their own retry budget
    may try again.  Carries the partition id for routing diagnostics.
    """

    def __init__(self, message: str, partition=None):
        super().__init__(message)
        self.partition = partition


class OverloadedError(ClusterError):
    """The admission controller shed this request.

    Typed rejection — the front door's contract under overload.
    ``reason`` is ``"quota"`` (per-tenant token bucket empty) or
    ``"queue_depth"`` (too many requests in flight);
    ``retry_after_seconds`` estimates when a retry could be admitted
    (``None`` when shedding is depth-based).
    """

    def __init__(
        self,
        message: str,
        tenant: str = "default",
        reason: str = "quota",
        retry_after_seconds=None,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds


#: Friendly alias matching operational vocabulary ("typed Overloaded
#: rejections").
Overloaded = OverloadedError

# Public alias with a friendlier name.
IndexingError = IndexError_
