//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name, start, end and the span that caused it. They
//! stay in memory until the run ends and are written out with the record.
//! The untraced run never constructs a [`Tracer`], so its timings carry no
//! tracing cost at all.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `scheduler.run_schedule.moe`.
    pub name: String,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created (`NaN` while open).
    pub end_s: f64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A thread-safe span log shared by the campaign's worker threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Spans are pushed whole and closed by a single store, so a guard
        // recovered after a panicking worker still holds a valid log.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's index
    /// so that calls it makes can name it as their parent.
    pub fn span<R>(&self, name: &str, parent: Option<usize>, f: impl FnOnce(usize) -> R) -> R {
        let id = {
            let mut log = self.log();
            log.push(Span {
                name: name.to_string(),
                parent,
                start_s: self.origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
            });
            log.len() - 1
        };
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.log()[id].end_s = end;
        out
    }

    /// Total seconds spent in spans named `name`.
    #[must_use]
    pub fn total_secs(&self, name: &str) -> f64 {
        self.log()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Total seconds of the root spans (those without a parent): the part
    /// of the run's wall time that timed calls cover on the main thread.
    #[must_use]
    pub fn root_secs(&self) -> f64 {
        self.log()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.log().clone()
    }
}
