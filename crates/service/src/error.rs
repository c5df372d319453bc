//! Typed errors of the serving layer.

use std::fmt;

use bcc_core::QueryError;
use bcc_simnet::PersistError;

/// An error from the serving front end.
///
/// Per-query *execution* failures (submit node crashed mid-flight, or not
/// a member of the overlay) are not errors of the service itself: they
/// surface inside the corresponding [`crate::ServiceResponse`].
/// `ServiceError` covers the admission boundary — requests the service
/// refuses to even enqueue — and configuration mistakes.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The admission controller shed the request: the bounded in-flight
    /// queue is full. Back off and resubmit; nothing was enqueued.
    Overloaded {
        /// Queries currently queued.
        in_flight: usize,
        /// The configured queue bound.
        capacity: usize,
        /// Logical ticks until the queue is expected to have drained
        /// (queue depth over batch size, rounded up). A hint, not a
        /// promise — but deterministic, never wall-clock.
        retry_after: u64,
    },
    /// The lane's circuit breaker is open: recent executions on this
    /// bandwidth class kept exhausting their work budgets, so the service
    /// sheds new work for the class instead of queueing it. Nothing was
    /// enqueued.
    CircuitOpen {
        /// The bandwidth-class lane whose breaker tripped.
        lane: usize,
        /// Logical ticks until the breaker will admit a trial probe.
        retry_after_ticks: u64,
    },
    /// The request failed library-boundary validation (`k < 2`,
    /// non-positive bandwidth, no matching class, unknown submit node).
    Rejected(QueryError),
    /// `queue_capacity` must admit at least one query.
    ZeroQueueCapacity,
    /// `batch_max` must allow at least one query per batch.
    ZeroBatchMax,
    /// Warm-restarting the service from durable storage failed (see
    /// [`ClusterService::recover_from`](crate::ClusterService::recover_from)).
    Persist(PersistError),
}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        ServiceError::Rejected(e)
    }
}

impl From<PersistError> for ServiceError {
    fn from(e: PersistError) -> Self {
        ServiceError::Persist(e)
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded {
                in_flight,
                capacity,
                retry_after,
            } => write!(
                f,
                "service overloaded: {in_flight} queries in flight (capacity \
                 {capacity}); retry after {retry_after} ticks"
            ),
            ServiceError::CircuitOpen {
                lane,
                retry_after_ticks,
            } => write!(
                f,
                "circuit open on lane {lane}: retry after {retry_after_ticks} ticks"
            ),
            ServiceError::Rejected(e) => write!(f, "query rejected: {e}"),
            ServiceError::ZeroQueueCapacity => write!(f, "queue_capacity must be at least 1"),
            ServiceError::ZeroBatchMax => write!(f, "batch_max must be at least 1"),
            ServiceError::Persist(e) => write!(f, "warm restart failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Rejected(e) => Some(e),
            ServiceError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = ServiceError::Overloaded {
            in_flight: 8,
            capacity: 8,
            retry_after: 1,
        };
        assert!(e.to_string().contains("overloaded"));
        assert!(e.to_string().contains("retry after 1"));
        assert!(std::error::Error::source(&e).is_none());
        let e = ServiceError::CircuitOpen {
            lane: 2,
            retry_after_ticks: 3,
        };
        assert!(e.to_string().contains("lane 2"));
        assert!(e.to_string().contains("retry after 3"));
        assert!(std::error::Error::source(&e).is_none());
        let e = ServiceError::from(QueryError::InvalidSizeConstraint { k: 1 });
        assert!(e.to_string().contains("at least 2"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ServiceError::ZeroQueueCapacity.to_string().contains("1"));
        assert!(ServiceError::ZeroBatchMax.to_string().contains("1"));
        let e = ServiceError::from(PersistError::NoValidSnapshot);
        assert_eq!(
            e.to_string(),
            "warm restart failed: no valid snapshot generation to recover from"
        );
        assert!(std::error::Error::source(&e).is_some());
    }
}
