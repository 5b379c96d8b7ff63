//! Self-profiling: wall-time and event-rate attribution to the router
//! pipeline phases.
//!
//! Mirrors the [`crate::TraceSink`] design: instrumentation sites are
//! generic over a [`PhaseProfiler`] and guard every measurement with
//! `P::ACTIVE`, so the default [`NopProfiler`] compiles all timing away —
//! the hot path pays nothing when profiling is off. The recording
//! [`Profiler`] accumulates nanoseconds and event counts per [`Phase`],
//! and the run driver stamps the total wall time and cycle count so the
//! report can express each phase as a share of the run.

use crate::json::JsonWriter;

/// Router-pipeline phase a measurement is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Lookahead route computation for departing head flits.
    Route = 0,
    /// VC allocation (request collection + allocator + grant bookkeeping).
    VcAlloc = 1,
    /// Switch allocation (speculative + non-speculative).
    SwAlloc = 2,
    /// Switch traversal and link injection (excluding route computation).
    Traversal = 3,
    /// Link/credit event delivery between routers and terminals.
    Credit = 4,
}

/// All phases, in index order.
pub const PHASES: [Phase; 5] = [
    Phase::Route,
    Phase::VcAlloc,
    Phase::SwAlloc,
    Phase::Traversal,
    Phase::Credit,
];

impl Phase {
    /// Stable lower-snake name used by exports and the bench schema.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Route => "route",
            Phase::VcAlloc => "vc_alloc",
            Phase::SwAlloc => "sw_alloc",
            Phase::Traversal => "traversal",
            Phase::Credit => "credit",
        }
    }
}

/// Receiver of per-phase measurements.
///
/// Instrumentation sites skip clock reads entirely when `ACTIVE` is
/// `false`, so the no-op implementation has zero cost.
pub trait PhaseProfiler {
    /// Whether sites should measure at all.
    const ACTIVE: bool;

    /// Records `nanos` of wall time and `events` units of work for one
    /// phase.
    fn record(&mut self, phase: Phase, nanos: u64, events: u64);
}

/// The zero-cost disabled profiler.
#[derive(Clone, Copy, Debug, Default)]
pub struct NopProfiler;

impl PhaseProfiler for NopProfiler {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn record(&mut self, _: Phase, _: u64, _: u64) {}
}

/// Accumulating profiler: per-phase wall time and event counts, plus the
/// run totals stamped by the driver.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    /// Nanoseconds attributed to each phase, indexed by `Phase as usize`.
    pub phase_nanos: [u64; 5],
    /// Work units per phase (flits traversed, requests arbitrated, events
    /// delivered, ...).
    pub phase_events: [u64; 5],
    /// Total run wall time in nanoseconds (set by the driver).
    pub wall_nanos: u64,
    /// Simulated cycles in the run (set by the driver).
    pub cycles: u64,
}

impl PhaseProfiler for Profiler {
    const ACTIVE: bool = true;

    #[inline]
    fn record(&mut self, phase: Phase, nanos: u64, events: u64) {
        self.phase_nanos[phase as usize] += nanos;
        self.phase_events[phase as usize] += events;
    }
}

impl Profiler {
    /// Nanoseconds attributed to one phase.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase as usize]
    }

    /// Work units recorded for one phase.
    pub fn events(&self, phase: Phase) -> u64 {
        self.phase_events[phase as usize]
    }

    /// Fraction of the run's wall time attributed to each phase, indexed
    /// by `Phase as usize` (all zero before the driver stamps
    /// `wall_nanos`).
    pub fn shares(&self) -> [f64; 5] {
        if self.wall_nanos == 0 {
            return [0.0; 5];
        }
        self.phase_nanos.map(|n| n as f64 / self.wall_nanos as f64)
    }

    /// Wall-time fraction not attributed to any phase (terminal traffic
    /// generation, stall accounting, event scheduling, ...).
    pub fn other_share(&self) -> f64 {
        (1.0 - self.shares().iter().sum::<f64>()).max(0.0)
    }

    /// Simulated cycles per wall-clock second (NaN before the driver
    /// stamps the totals).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return f64::NAN;
        }
        self.cycles as f64 / (self.wall_nanos as f64 * 1e-9)
    }

    /// Accumulates another profiler's phase counters and totals.
    pub fn merge(&mut self, other: &Profiler) {
        for i in 0..5 {
            self.phase_nanos[i] += other.phase_nanos[i];
            self.phase_events[i] += other.phase_events[i];
        }
        self.wall_nanos += other.wall_nanos;
        self.cycles += other.cycles;
    }

    /// One JSON object: totals, cycles/sec, and per-phase
    /// nanos/share/events.
    pub fn to_json(&self) -> String {
        let shares = self.shares();
        JsonWriter::object(|w| {
            w.key("cycles").u64(self.cycles);
            w.key("wall_nanos").u64(self.wall_nanos);
            w.key("cycles_per_sec").f64(self.cycles_per_sec());
            w.key("other_share").f64(self.other_share());
            w.key("phases").obj(|w| {
                for (i, p) in PHASES.iter().enumerate() {
                    w.key(p.name()).obj(|w| {
                        w.key("nanos").u64(self.phase_nanos[i]);
                        w.key("share").f64(shares[i]);
                        w.key("events").u64(self.phase_events[i]);
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Compile-time: the no-op profiler must stay inactive so the default
    // simulation path folds all timing away.
    const _: () = assert!(!NopProfiler::ACTIVE);
    const _: () = assert!(Profiler::ACTIVE);

    #[test]
    fn shares_sum_with_other_to_one() {
        let mut p = Profiler::default();
        p.record(Phase::VcAlloc, 300, 10);
        p.record(Phase::SwAlloc, 500, 20);
        p.wall_nanos = 1000;
        p.cycles = 2000;
        let shares = p.shares();
        assert!((shares[Phase::VcAlloc as usize] - 0.3).abs() < 1e-12);
        assert!((shares[Phase::SwAlloc as usize] - 0.5).abs() < 1e-12);
        assert!((shares.iter().sum::<f64>() + p.other_share() - 1.0).abs() < 1e-12);
        // 2000 cycles in 1 µs of wall time = 2e9 cycles/sec.
        assert!((p.cycles_per_sec() / 2e9 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Profiler::default();
        a.record(Phase::Route, 10, 1);
        a.wall_nanos = 100;
        a.cycles = 50;
        let mut b = Profiler::default();
        b.record(Phase::Route, 30, 3);
        b.wall_nanos = 300;
        b.cycles = 150;
        a.merge(&b);
        assert_eq!(a.nanos(Phase::Route), 40);
        assert_eq!(a.events(Phase::Route), 4);
        assert_eq!(a.wall_nanos, 400);
        assert_eq!(a.cycles, 200);
    }

    #[test]
    fn unstamped_profiler_reports_nan_rate_and_zero_shares() {
        let p = Profiler::default();
        assert!(p.cycles_per_sec().is_nan());
        assert_eq!(p.shares(), [0.0; 5]);
    }

    #[test]
    fn phase_names_are_unique() {
        let names: std::collections::HashSet<_> = PHASES.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PHASES.len());
    }
}
