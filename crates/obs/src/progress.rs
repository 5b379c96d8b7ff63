//! Progress and ETA reporting for long experiment sweeps.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Completions the sliding rate window looks back over.
const RATE_WINDOW: usize = 10;

/// Thread-safe progress meter: worker threads mark completions, anyone
/// renders a one-line status with throughput and a remaining-time
/// estimate. The ETA extrapolates from the *recent* completion rate (the
/// last `RATE_WINDOW` (10) completions), not the whole-run average — a slow
/// warmup point (a cold cache, a saturated first sweep row) would
/// otherwise poison the estimate for the rest of the run. The ETA is
/// omitted until at least one point has finished.
pub struct ProgressMeter {
    total: usize,
    done: AtomicUsize,
    start: Instant,
    /// Elapsed-seconds stamps of the most recent completions.
    recent: Mutex<VecDeque<f64>>,
}

/// Items/sec from the sliding window of completion stamps (seconds,
/// oldest first), falling back to the whole-run average when the window
/// holds fewer than two points or spans no measurable time.
fn sliding_rate(recent: &[f64], done: usize, elapsed: f64) -> f64 {
    if let (Some(first), Some(last)) = (recent.first(), recent.last()) {
        let span = last - first;
        if recent.len() >= 2 && span > 0.0 {
            return (recent.len() - 1) as f64 / span;
        }
    }
    if elapsed > 0.0 {
        done as f64 / elapsed
    } else {
        f64::INFINITY
    }
}

impl ProgressMeter {
    /// A meter over `total` work items, starting now.
    pub fn new(total: usize) -> Self {
        ProgressMeter {
            total,
            done: AtomicUsize::new(0),
            start: Instant::now(),
            recent: Mutex::new(VecDeque::with_capacity(RATE_WINDOW)),
        }
    }

    /// Marks one item finished and returns the new completion count.
    pub fn tick(&self) -> usize {
        let stamp = self.elapsed_secs();
        let mut recent = self.recent.lock().unwrap_or_else(|e| e.into_inner());
        if recent.len() == RATE_WINDOW {
            recent.pop_front();
        }
        recent.push_back(stamp);
        drop(recent);
        // RELAXED: monotonic progress counter read only for display; no
        // other memory is published through it.
        self.done.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Items completed so far.
    pub fn done(&self) -> usize {
        // RELAXED: display-only read of the monotonic counter above.
        self.done.load(Ordering::Relaxed).min(self.total)
    }

    /// Total items.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Seconds elapsed since construction.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Recent completion rate in items/sec (whole-run average until two
    /// completions land in the window); NaN before the first completion.
    pub fn rate_per_sec(&self) -> f64 {
        let done = self.done();
        if done == 0 {
            return f64::NAN;
        }
        let recent = self.recent.lock().unwrap_or_else(|e| e.into_inner());
        let window: Vec<f64> = recent.iter().copied().collect();
        drop(recent);
        sliding_rate(&window, done, self.elapsed_secs())
    }

    /// Estimated seconds remaining, from the sliding-window rate (`None`
    /// before the first completion or after the last).
    pub fn eta_secs(&self) -> Option<f64> {
        let done = self.done();
        if done == 0 || done >= self.total {
            return None;
        }
        let rate = self.rate_per_sec();
        if rate.is_nan() {
            return None;
        }
        Some((self.total - done) as f64 / rate)
    }

    /// One status line, e.g. `42/180 (23%) elapsed 12.3s 3.4/s eta 40s`.
    pub fn line(&self) -> String {
        let done = self.done();
        let pct = if self.total == 0 {
            100.0
        } else {
            100.0 * done as f64 / self.total as f64
        };
        let mut s = format!(
            "{done}/{} ({pct:.0}%) elapsed {:.1}s",
            self.total,
            self.elapsed_secs()
        );
        let rate = self.rate_per_sec();
        if rate.is_finite() {
            s.push_str(&format!(" {rate:.1}/s"));
        }
        if let Some(eta) = self.eta_secs() {
            if eta.is_finite() {
                s.push_str(&format!(" eta {eta:.0}s"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_percentages() {
        let m = ProgressMeter::new(4);
        assert_eq!(m.done(), 0);
        assert!(m.eta_secs().is_none(), "no ETA before the first item");
        assert_eq!(m.tick(), 1);
        assert_eq!(m.tick(), 2);
        assert_eq!(m.done(), 2);
        let line = m.line();
        assert!(line.starts_with("2/4 (50%)"), "{line}");
        // Mid-run there is an estimate; after the last item there is none.
        assert!(m.eta_secs().is_some());
        m.tick();
        m.tick();
        assert!(m.eta_secs().is_none());
        assert!(m.line().starts_with("4/4 (100%)"));
    }

    #[test]
    fn empty_meter_reports_complete() {
        let m = ProgressMeter::new(0);
        assert!(m.line().contains("(100%)"));
    }

    #[test]
    fn sliding_rate_ignores_slow_warmup() {
        // One pathological first point (100s), then ten points at 10/s.
        // The whole-run average (11 done in 101s ≈ 0.11/s) would estimate
        // ~900s for the remaining 100 points; the windowed rate knows the
        // steady state is 10/s and estimates ~10s.
        let mut stamps: Vec<f64> = vec![100.0];
        stamps.extend((1..=10).map(|i| 100.0 + i as f64 * 0.1));
        let window = &stamps[stamps.len() - RATE_WINDOW..];
        let rate = sliding_rate(window, stamps.len(), 101.0);
        assert!((rate - 10.0).abs() < 1e-9, "rate {rate}");
        // Regression guard against the old behaviour: the whole-run
        // average is an order of magnitude off.
        let whole_run = stamps.len() as f64 / 101.0;
        assert!(rate > 50.0 * whole_run);
    }

    #[test]
    fn sliding_rate_falls_back_to_whole_run_average() {
        // A single completion (or a zero-span window) carries no rate
        // information; fall back to done/elapsed.
        assert_eq!(sliding_rate(&[5.0], 1, 10.0), 0.1);
        assert_eq!(sliding_rate(&[5.0, 5.0], 2, 10.0), 0.2);
        assert_eq!(sliding_rate(&[], 0, 0.0), f64::INFINITY);
    }

    #[test]
    fn line_includes_items_per_sec() {
        let m = ProgressMeter::new(3);
        m.tick();
        let line = m.line();
        assert!(line.contains("/s"), "{line}");
    }
}
