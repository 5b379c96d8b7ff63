//! Windowed time series and the bounded-memory flight recorder.
//!
//! The simulator snapshots per-router counters every `window` cycles into
//! a [`WindowSnapshot`]; a [`FlightRecorder`] keeps the last `capacity`
//! snapshots in a ring buffer (for post-mortem dumps) plus a compact
//! whole-run summary series (one scalar per window, for the `telemetry`
//! block of a run result). The recorder is engine-agnostic: it consumes
//! plain cumulative counters keyed by cycle number, so any cycle-exact
//! engine produces byte-identical telemetry.
//!
//! The stall-watchdog signal also lives here: the recorder tracks how many
//! *consecutive* windows saw zero flit motion while flits were in flight —
//! the dynamic signature of a deadlock (or a total livelock) — and the run
//! driver trips on a threshold instead of spinning forever.

use std::collections::VecDeque;

/// Cumulative per-router counters sampled at a window boundary. The
/// recorder differences successive samples itself; producers only ever
/// report monotone totals (plus the two point-in-time gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Flits sent through the crossbar (switch traversals), cumulative.
    pub out_flits: u64,
    /// Buffered flits right now (gauge, not differenced).
    pub occupancy: u32,
    /// Input VCs holding at least one flit right now (gauge).
    pub busy_vcs: u32,
    /// Input-VC cycles that moved or won allocation, cumulative.
    pub active: u64,
    /// Input-VC cycles stalled on downstream credits, cumulative.
    pub credit_stall: u64,
    /// Input-VC cycles stalled in VC allocation, cumulative.
    pub vca_stall: u64,
    /// Input-VC cycles stalled in switch allocation, cumulative.
    pub sa_stall: u64,
    /// Input-VC cycles with an empty buffer, cumulative.
    pub empty: u64,
    /// Switch-allocator grants on matching-sample cycles, cumulative.
    pub match_granted: u64,
    /// Exact maximum-matching size on the same request matrices, cumulative.
    pub match_max: u64,
}

impl RouterCounters {
    /// Per-window view: counters differenced against `prev`, gauges taken
    /// from the current sample.
    fn delta(cur: &RouterCounters, prev: &RouterCounters) -> RouterCounters {
        RouterCounters {
            out_flits: cur.out_flits - prev.out_flits,
            occupancy: cur.occupancy,
            busy_vcs: cur.busy_vcs,
            active: cur.active - prev.active,
            credit_stall: cur.credit_stall - prev.credit_stall,
            vca_stall: cur.vca_stall - prev.vca_stall,
            sa_stall: cur.sa_stall - prev.sa_stall,
            empty: cur.empty - prev.empty,
            match_granted: cur.match_granted - prev.match_granted,
            match_max: cur.match_max - prev.match_max,
        }
    }
}

/// One window of telemetry: network-level flit motion plus per-router
/// windowed counters, in router-id order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// 1-based window index; window `k` covers cycles `[(k-1)·W, k·W)`.
    pub window: u64,
    /// Cycles completed when the snapshot was taken (`k·W`).
    pub cycle: u64,
    /// Flits injected by terminals during this window.
    pub injected: u64,
    /// Flits ejected to terminals during this window.
    pub ejected: u64,
    /// Flits in flight at the end of the window (injected minus ejected,
    /// cumulative).
    pub in_flight: u64,
    /// Per-router windowed counters, indexed by router id.
    pub routers: Vec<RouterCounters>,
}

impl WindowSnapshot {
    /// Total switch traversals across all routers this window.
    pub fn flits(&self) -> u64 {
        self.routers.iter().map(|r| r.out_flits).sum()
    }

    /// Total switch-allocator grants on sampled cycles this window.
    pub fn match_granted(&self) -> u64 {
        self.routers.iter().map(|r| r.match_granted).sum()
    }

    /// Total exact-maximum-matching size on the same sampled cycles.
    pub fn match_max(&self) -> u64 {
        self.routers.iter().map(|r| r.match_max).sum()
    }

    /// Matching efficiency this window: granted ports over the exact
    /// maximum matching, summed over every sampled request matrix. NaN if
    /// no matching sample fell into this window (or no router had
    /// requests on the sample cycles).
    pub fn efficiency(&self) -> f64 {
        let max = self.match_max();
        if max == 0 {
            f64::NAN
        } else {
            self.match_granted() as f64 / max as f64
        }
    }

    /// Total buffered flits across the network at the end of the window.
    pub fn occupancy(&self) -> u64 {
        self.routers.iter().map(|r| r.occupancy as u64).sum()
    }

    /// True when nothing moved in this window while flits were in flight —
    /// the watchdog's per-window deadlock signal.
    pub fn motionless(&self) -> bool {
        self.flits() == 0 && self.injected == 0 && self.ejected == 0 && self.in_flight > 0
    }
}

/// Fixed-capacity flight recorder: keeps the most recent window snapshots
/// for post-mortem dumps, a compact summary series for the whole run, and
/// the consecutive-stalled-window count for the watchdog.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    window: u64,
    capacity: usize,
    matching_period: u64,
    ring: VecDeque<WindowSnapshot>,
    prev: Vec<RouterCounters>,
    prev_injected: u64,
    prev_ejected: u64,
    windows: u64,
    stalled: u64,
    max_stalled: u64,
    series_efficiency: Vec<f64>,
    series_flits: Vec<u64>,
    series_in_flight: Vec<u64>,
}

impl FlightRecorder {
    /// Creates a recorder snapshotting every `window` cycles and retaining
    /// the last `capacity` snapshots.
    pub fn new(window: u64, capacity: usize) -> FlightRecorder {
        assert!(window > 0, "telemetry window must be positive");
        assert!(capacity > 0, "flight recorder needs at least one slot");
        FlightRecorder {
            window,
            capacity,
            matching_period: 0,
            ring: VecDeque::with_capacity(capacity),
            prev: Vec::new(),
            prev_injected: 0,
            prev_ejected: 0,
            windows: 0,
            stalled: 0,
            max_stalled: 0,
            series_efficiency: Vec::new(),
            series_flits: Vec::new(),
            series_in_flight: Vec::new(),
        }
    }

    /// Additionally samples matching quality in every router every
    /// `period` cycles (an exact maximum matching per router per sample,
    /// so keep the period well above 1 for production runs); 0 leaves
    /// sampling off.
    pub fn with_matching(mut self, period: u64) -> FlightRecorder {
        self.matching_period = period;
        self
    }

    /// Matching-quality sample period in cycles (0 when sampling is off).
    pub fn matching_period(&self) -> u64 {
        self.matching_period
    }

    /// Window length in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// True when the cycle that just executed (`now`) closes a window.
    /// Keyed purely on the cycle number, so every cycle-exact engine
    /// snapshots at identical points.
    pub fn due(&self, now: u64) -> bool {
        (now + 1).is_multiple_of(self.window)
    }

    /// Closes a window: `injected`/`ejected` are network-cumulative flit
    /// counts, `counters` yields each router's cumulative counters in
    /// router-id order.
    pub fn record(
        &mut self,
        now: u64,
        injected: u64,
        ejected: u64,
        counters: impl Iterator<Item = RouterCounters>,
    ) {
        let mut routers = Vec::with_capacity(self.prev.len());
        for (idx, cur) in counters.enumerate() {
            let prev = self.prev.get(idx).copied().unwrap_or_default();
            routers.push(RouterCounters::delta(&cur, &prev));
            if idx < self.prev.len() {
                self.prev[idx] = cur;
            } else {
                self.prev.push(cur);
            }
        }
        let snap = WindowSnapshot {
            window: self.windows + 1,
            cycle: now + 1,
            injected: injected - self.prev_injected,
            ejected: ejected - self.prev_ejected,
            in_flight: injected - ejected,
            routers,
        };
        self.prev_injected = injected;
        self.prev_ejected = ejected;
        self.windows += 1;
        if snap.motionless() {
            self.stalled += 1;
            self.max_stalled = self.max_stalled.max(self.stalled);
        } else {
            self.stalled = 0;
        }
        self.series_efficiency.push(snap.efficiency());
        self.series_flits.push(snap.flits());
        self.series_in_flight.push(snap.in_flight);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(snap);
    }

    /// The most recent snapshot, if any window has closed.
    pub fn latest(&self) -> Option<&WindowSnapshot> {
        self.ring.back()
    }

    /// The retained snapshots, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &WindowSnapshot> {
        self.ring.iter()
    }

    /// Windows recorded so far (not bounded by the ring capacity).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Consecutive motionless-with-flits-in-flight windows ending now.
    pub fn stalled_windows(&self) -> u64 {
        self.stalled
    }

    /// Longest motionless streak seen over the whole run.
    pub fn max_stalled_windows(&self) -> u64 {
        self.max_stalled
    }

    /// Whole-run summary series (one entry per window): matching
    /// efficiency, flits moved, flits in flight.
    pub fn series(&self) -> (&[f64], &[u64], &[u64]) {
        (
            &self.series_efficiency,
            &self.series_flits,
            &self.series_in_flight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(out_flits: u64, occupancy: u32) -> RouterCounters {
        RouterCounters {
            out_flits,
            occupancy,
            busy_vcs: occupancy.min(1),
            active: out_flits,
            ..RouterCounters::default()
        }
    }

    #[test]
    fn windows_difference_cumulative_counters() {
        let mut rec = FlightRecorder::new(10, 4);
        assert!(!rec.due(0));
        assert!(rec.due(9));
        rec.record(9, 5, 2, [counters(7, 3), counters(1, 0)].into_iter());
        rec.record(19, 9, 9, [counters(12, 0), counters(4, 0)].into_iter());
        let w1 = rec.ring().next().unwrap();
        assert_eq!(w1.window, 1);
        assert_eq!(w1.cycle, 10);
        assert_eq!((w1.injected, w1.ejected, w1.in_flight), (5, 2, 3));
        assert_eq!(w1.flits(), 8);
        let w2 = rec.latest().unwrap();
        assert_eq!(w2.window, 2);
        assert_eq!((w2.injected, w2.ejected, w2.in_flight), (4, 7, 0));
        assert_eq!(w2.flits(), 8); // (12-7) + (4-1)
        assert_eq!(w2.routers[0].occupancy, 0); // gauge, not differenced
    }

    #[test]
    fn ring_is_bounded_but_series_is_not() {
        let mut rec = FlightRecorder::new(5, 2);
        for k in 0..5u64 {
            rec.record(5 * k + 4, k + 1, k + 1, [counters(k + 1, 0)].into_iter());
        }
        assert_eq!(rec.windows(), 5);
        assert_eq!(rec.ring().count(), 2);
        assert_eq!(rec.latest().unwrap().window, 5);
        assert_eq!(rec.series().1.len(), 5);
    }

    #[test]
    fn watchdog_counts_consecutive_motionless_windows() {
        let mut rec = FlightRecorder::new(10, 8);
        // Window 1: motion (injection), flits left in flight.
        rec.record(9, 4, 0, [counters(4, 4)].into_iter());
        assert_eq!(rec.stalled_windows(), 0);
        // Windows 2-3: dead silence with 4 flits in flight.
        rec.record(19, 4, 0, [counters(4, 4)].into_iter());
        rec.record(29, 4, 0, [counters(4, 4)].into_iter());
        assert_eq!(rec.stalled_windows(), 2);
        assert!(rec.latest().unwrap().motionless());
        // Window 4: a flit moves — streak resets, max streak remembered.
        rec.record(39, 4, 1, [counters(5, 3)].into_iter());
        assert_eq!(rec.stalled_windows(), 0);
        assert_eq!(rec.max_stalled_windows(), 2);
    }

    #[test]
    fn drained_network_is_not_a_stall() {
        let mut rec = FlightRecorder::new(10, 4);
        rec.record(9, 3, 3, [counters(3, 0)].into_iter());
        rec.record(19, 3, 3, [counters(3, 0)].into_iter());
        // Nothing moved in window 2, but nothing is in flight either.
        assert_eq!(rec.stalled_windows(), 0);
    }

    #[test]
    fn efficiency_is_nan_without_samples() {
        let mut rec = FlightRecorder::new(10, 4);
        rec.record(9, 1, 0, [counters(1, 1)].into_iter());
        assert!(rec.latest().unwrap().efficiency().is_nan());
        let mut c = counters(2, 1);
        c.match_granted = 3;
        c.match_max = 4;
        rec.record(19, 2, 0, [c].into_iter());
        assert_eq!(rec.latest().unwrap().efficiency(), 0.75);
    }
}
