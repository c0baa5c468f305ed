//! Cooperative cancellation and deadlines for the evaluation pipeline.
//!
//! A [`CancellationToken`] is the signal every long-running loop of the
//! pipeline polls: the generic-join search, trie builds, the forward
//! reduction's per-relation build loops, and the engine's disjunct worker
//! pool.  Polling happens at bounded intervals (every *K* candidates / *K*
//! rows — [`CancellationToken::with_check_interval`]), so cancellation
//! latency is a measurable constant of the workload, not "whenever the
//! current atom finishes".
//!
//! Cancellation is **one-way down a token tree**: cancelling a token cancels
//! every [child](CancellationToken::child) derived from it, but cancelling a
//! child never signals its parent.  This is what lets a panicking worker
//! cancel its *siblings* (they all share one pool-local child token) without
//! poisoning the caller-supplied token for later evaluations.
//!
//! Failures surface as the typed [`EvalError`] taxonomy: [`EvalError::Cancelled`],
//! [`EvalError::DeadlineExceeded`] and [`EvalError::WorkerPanicked`].
//!
//! # Example
//!
//! ```
//! use ij_relation::{CancellationToken, EvalError};
//!
//! let token = CancellationToken::new();
//! assert!(token.checkpoint().is_ok());
//! token.cancel();
//! assert_eq!(token.checkpoint(), Err(EvalError::Cancelled));
//!
//! // Deadlines are budgets relative to the token's creation:
//! let deadline = CancellationToken::new().with_budget(std::time::Duration::ZERO);
//! assert!(matches!(
//!     deadline.checkpoint(),
//!     Err(EvalError::DeadlineExceeded { .. })
//! ));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The default poll interval: a cooperative loop calls
/// [`CancellationToken::checkpoint`] once every this many units of work
/// (candidates intersected, rows inserted, …) unless the token overrides it
/// ([`CancellationToken::with_check_interval`]).
pub const DEFAULT_CHECK_INTERVAL: u32 = 1024;

/// A shareable cancellation + deadline token.
///
/// Cloning is cheap and shares the signal: any clone's
/// [`cancel`](CancellationToken::cancel) trips every other clone.  Children
/// ([`child`](CancellationToken::child) /
/// [`with_budget`](CancellationToken::with_budget) on a clone) observe their
/// ancestors' cancellation but cancel independently.
#[derive(Debug, Clone)]
pub struct CancellationToken {
    /// The cancel signal, shared by every clone: `true` once any of them is
    /// cancelled.
    cancelled: Arc<AtomicBool>,
    parent: Option<Arc<CancellationToken>>,
    start: Instant,
    budget: Option<Duration>,
    check_interval: u32,
}

impl Default for CancellationToken {
    fn default() -> Self {
        CancellationToken::new()
    }
}

impl CancellationToken {
    /// A fresh, uncancelled token with no deadline and the
    /// [default check interval](DEFAULT_CHECK_INTERVAL).
    pub fn new() -> Self {
        CancellationToken {
            cancelled: Arc::default(),
            parent: None,
            start: Instant::now(),
            budget: None,
            check_interval: DEFAULT_CHECK_INTERVAL,
        }
    }

    /// This token with a deadline `budget` measured from **now**: once
    /// `budget` has elapsed, [`checkpoint`](CancellationToken::checkpoint)
    /// returns [`EvalError::DeadlineExceeded`].
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.start = Instant::now();
        self.budget = Some(budget);
        self
    }

    /// This token polling its signal every `interval` units of work instead
    /// of the default.  `interval` is clamped to at least 1.  Smaller
    /// intervals tighten the cancellation-latency bound at the cost of more
    /// frequent atomic loads in the hot loops.
    pub fn with_check_interval(mut self, interval: u32) -> Self {
        self.check_interval = interval.max(1);
        self
    }

    /// The poll interval cooperative loops should use with this token.
    pub fn check_interval(&self) -> u32 {
        self.check_interval
    }

    /// The deadline budget, if any (measured from the token's creation or
    /// the last [`with_budget`](CancellationToken::with_budget) call).
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// Time elapsed since this token's deadline clock started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// A child token: it observes this token's cancellation (and deadline),
    /// but cancelling the child never signals this token.  The engine's
    /// worker pool runs under a child so a panicking worker can cancel its
    /// siblings without poisoning the caller's token.
    pub fn child(&self) -> Self {
        CancellationToken {
            cancelled: Arc::default(),
            parent: Some(Arc::new(self.clone())),
            start: Instant::now(),
            budget: None,
            check_interval: self.check_interval,
        }
    }

    /// Cancels this token (and every clone and child of it).  Idempotent;
    /// never blocks.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token (or an ancestor) has been cancelled.  Does **not**
    /// consider the deadline — use
    /// [`checkpoint`](CancellationToken::checkpoint) for the full check.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
            || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// The cooperative poll: returns the typed error if this token (or an
    /// ancestor) has been cancelled or has exceeded its deadline budget, and
    /// `Ok(())` otherwise.  Loops call this every
    /// [`check_interval`](CancellationToken::check_interval) units of work
    /// (see [`CancelTicker`]).
    pub fn checkpoint(&self) -> Result<(), EvalError> {
        if let Some(parent) = &self.parent {
            parent.checkpoint()?;
        }
        if self.cancelled.load(Ordering::Acquire) {
            return Err(EvalError::Cancelled);
        }
        if let Some(budget) = self.budget {
            let elapsed = self.start.elapsed();
            if elapsed > budget {
                return Err(EvalError::DeadlineExceeded { elapsed, budget });
            }
        }
        Ok(())
    }
}

/// A zero-cost countdown wrapper amortising
/// [`CancellationToken::checkpoint`] over a loop: [`tick`](CancelTicker::tick)
/// is a decrement-and-branch until the token's check interval elapses, at
/// which point the token is actually polled.  With no token it is a no-op.
///
/// Pass one ticker `&mut` through a recursive search so the countdown is
/// shared across frames — that is what makes the latency bound hold during
/// deep backtracking, where each individual frame touches few candidates.
#[derive(Debug)]
pub struct CancelTicker<'t> {
    token: Option<&'t CancellationToken>,
    interval: u32,
    left: u32,
}

impl<'t> CancelTicker<'t> {
    /// A ticker polling `token` (if any) at the token's check interval.
    pub fn new(token: Option<&'t CancellationToken>) -> Self {
        let interval = token.map_or(u32::MAX, |t| t.check_interval());
        CancelTicker {
            token,
            interval,
            left: interval,
        }
    }

    /// The token this ticker polls, for handing to sub-loops.
    pub fn token(&self) -> Option<&'t CancellationToken> {
        self.token
    }

    /// Counts one unit of work; polls the token once every
    /// `check_interval` calls.
    #[inline]
    pub fn tick(&mut self) -> Result<(), EvalError> {
        self.advance(1)
    }

    /// Counts `units` units of work at once — a loop body that does them in
    /// one go, like the forward reduction writing all tuples of one seed —
    /// and polls the token if that uses up the interval, which then starts
    /// over.  The poll comes *before* the caller does the work it counted.
    #[inline]
    pub fn advance(&mut self, units: usize) -> Result<(), EvalError> {
        let Some(token) = self.token else {
            return Ok(());
        };
        match u32::try_from(units) {
            Ok(units) if units < self.left => {
                self.left -= units;
                Ok(())
            }
            _ => {
                self.left = self.interval;
                token.checkpoint()
            }
        }
    }
}

/// Why an evaluation stopped without producing an answer.
///
/// The typed taxonomy every fallible entry point of the pipeline returns:
/// cooperative cancellation ([`EvalError::Cancelled`]), a deadline budget
/// running out ([`EvalError::DeadlineExceeded`]), or a worker panic isolated
/// by `catch_unwind` ([`EvalError::WorkerPanicked`]).  None of these leave
/// shared state (a relation's memos, the dictionary) inconsistent: a
/// subsequent clean evaluation on the same workspace returns the correct
/// answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The evaluation's [`CancellationToken`] was cancelled.
    Cancelled,
    /// The evaluation's deadline budget ran out.
    DeadlineExceeded {
        /// Time elapsed when the deadline was detected.
        elapsed: Duration,
        /// The configured budget that was exceeded.
        budget: Duration,
    },
    /// A disjunct worker (or the forward reduction's plan) panicked; the
    /// panic was caught, the sibling workers were cancelled, and shared state
    /// was left consistent.
    WorkerPanicked {
        /// What the worker was evaluating: a `disjunct <i>` label for
        /// disjunct workers, `forward reduction` for the plan.
        atom: String,
        /// The stringified panic payload.
        payload: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Cancelled => write!(f, "evaluation cancelled"),
            EvalError::DeadlineExceeded { elapsed, budget } => write!(
                f,
                "evaluation deadline exceeded: {elapsed:?} elapsed of a {budget:?} budget"
            ),
            EvalError::WorkerPanicked { atom, payload } => {
                write!(f, "evaluation worker panicked on `{atom}`: {payload}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Renders a caught panic payload (`Box<dyn Any>`) into the string carried
/// by [`EvalError::WorkerPanicked`].
pub fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_signal() {
        let a = CancellationToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert_eq!(b.checkpoint(), Err(EvalError::Cancelled));
    }

    #[test]
    fn children_observe_parents_but_not_vice_versa() {
        let parent = CancellationToken::new();
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel must not leak upward");
        assert!(parent.checkpoint().is_ok());

        let parent = CancellationToken::new();
        let child = parent.child();
        parent.cancel();
        assert!(child.is_cancelled(), "parent cancel reaches the child");
        assert_eq!(child.checkpoint(), Err(EvalError::Cancelled));
    }

    #[test]
    fn deadlines_report_elapsed_and_budget() {
        let token = CancellationToken::new().with_budget(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        match token.checkpoint() {
            Err(EvalError::DeadlineExceeded { elapsed, budget }) => {
                assert_eq!(budget, Duration::ZERO);
                assert!(elapsed > Duration::ZERO);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A generous budget does not trip.
        let token = CancellationToken::new().with_budget(Duration::from_secs(3600));
        assert!(token.checkpoint().is_ok());
    }

    #[test]
    fn a_budgeted_child_composes_signal_and_budget() {
        let parent = CancellationToken::new();
        let bounded = parent.child().with_budget(Duration::from_secs(3600));
        assert!(bounded.checkpoint().is_ok());
        parent.cancel();
        assert_eq!(bounded.checkpoint(), Err(EvalError::Cancelled));
    }

    #[test]
    fn ticker_polls_only_every_interval() {
        let token = CancellationToken::new().with_check_interval(4);
        let mut ticker = CancelTicker::new(Some(&token));
        token.cancel();
        // The first interval-1 ticks do not poll; the K-th does.
        assert!(ticker.tick().is_ok());
        assert!(ticker.tick().is_ok());
        assert!(ticker.tick().is_ok());
        assert_eq!(ticker.tick(), Err(EvalError::Cancelled));
        // Tokenless tickers never fail.
        let mut idle = CancelTicker::new(None);
        for _ in 0..10_000 {
            assert!(idle.tick().is_ok());
        }
        assert!(idle.advance(usize::MAX).is_ok());
    }

    #[test]
    fn advancing_by_many_units_polls_when_the_interval_is_crossed() {
        let token = CancellationToken::new().with_check_interval(8);
        let mut ticker = CancelTicker::new(Some(&token));
        token.cancel();
        // 3 + 4 units stay inside the interval, the next one completes it.
        assert!(ticker.advance(3).is_ok());
        assert!(ticker.advance(4).is_ok());
        assert_eq!(ticker.tick(), Err(EvalError::Cancelled));
        // The interval starts over after a poll; one call that overshoots it
        // (by any amount) polls once, and so does one that lands on it.
        assert!(ticker.advance(7).is_ok());
        assert_eq!(ticker.advance(usize::MAX), Err(EvalError::Cancelled));
        assert_eq!(ticker.advance(8), Err(EvalError::Cancelled));
        // Zero units never poll.
        assert!(ticker.advance(0).is_ok());
    }

    #[test]
    fn check_interval_is_clamped_to_one() {
        let token = CancellationToken::new().with_check_interval(0);
        assert_eq!(token.check_interval(), 1);
    }

    #[test]
    fn payload_rendering_covers_str_string_and_opaque() {
        let caught = std::panic::catch_unwind(|| panic!("boom {}", 7)).expect_err("panic expected");
        assert_eq!(panic_payload_string(caught.as_ref()), "boom 7");
        let s: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_payload_string(s.as_ref()), "static");
        let opaque: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(
            panic_payload_string(opaque.as_ref()),
            "opaque panic payload"
        );
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(EvalError::Cancelled.to_string(), "evaluation cancelled");
        let e = EvalError::WorkerPanicked {
            atom: "R".into(),
            payload: "boom".into(),
        };
        assert_eq!(e.to_string(), "evaluation worker panicked on `R`: boom");
    }
}
