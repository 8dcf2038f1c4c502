//! Cooperative cancellation for long-running analyses.
//!
//! A [`CancelToken`] is a cheaply clonable flag (plus an optional
//! deadline) that the pipeline driver
//! ([`crate::analyze_firmware_cancellable`]) and the store's unit funnel
//! poll at their natural safe points: before stage 1 and at every
//! message-unit boundary. Analysis work is never interrupted *inside*
//! a unit — a unit is the smallest schedulable quantum — so cancellation
//! latency is bounded by the cost of one unit, and a run that is *not*
//! cancelled is byte-identical to an uncancellable one.
//!
//! The token is the serving layer's per-request control surface: the
//! `firmres-service` daemon hands every submitted job its own token,
//! trips it on an explicit `Cancel` request, and uses the deadline form
//! for per-request time budgets.

use crate::error::Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation flag with an optional deadline.
///
/// Clones share the same flag: cancelling any clone cancels them all.
/// The deadline, when set, makes [`is_cancelled`](Self::is_cancelled)
/// report `true` once the wall clock passes it, with no extra threads or
/// timers — pollers observe the expiry at their next check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh token that is not cancelled and never expires on its own.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that auto-expires `budget` from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + budget),
        }
    }

    /// Trip the flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token was cancelled or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// `Err(`[`Error::Cancelled`]`)` once the token is cancelled: the
    /// check a driver makes at each of its safe points. A token never
    /// un-trips, so once this fails it keeps failing.
    pub fn check(&self) -> Result<(), Error> {
        if self.is_cancelled() {
            return Err(Error::Cancelled {
                deadline_exceeded: self.deadline_exceeded(),
            });
        }
        Ok(())
    }

    /// Whether the token reports cancelled *because of the deadline*
    /// (the flag itself was never tripped).
    pub fn deadline_exceeded(&self) -> bool {
        !self.flag.load(Ordering::Acquire)
            && matches!(self.deadline, Some(d) if Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        assert!(!a.deadline_exceeded(), "explicit cancel is not a timeout");
    }

    #[test]
    fn deadline_expires_without_an_explicit_cancel() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert!(t.deadline_exceeded());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        far.cancel();
        assert!(far.is_cancelled());
        assert!(!far.deadline_exceeded());
    }
}
