//! Zero-cost runtime invariant checking.
//!
//! The same const-`ACTIVE` pattern as `TraceSink` / `PhaseProfiler`: the
//! network's step loop is generic over an [`InvariantChecker`], and with the
//! default [`NopChecker`] every check (including the per-channel credit
//! audit) compiles away entirely. `noc sim --verify` (`Run::verify`) runs
//! with [`StrictChecker`] instead and reports:
//!
//! * **matching legality** — every cycle, at most one switch grant per
//!   input port and per output port, each grant backed by an output VC,
//!   a credit and a buffered flit;
//! * **credit conservation** — for every channel (router→router link,
//!   terminal injection, terminal ejection), upstream credits plus in-flight
//!   flits plus downstream occupancy plus in-flight return credits equals
//!   the buffer depth, every cycle;
//! * **no flit without a VC** — a body flit can never sit at the head of an
//!   input VC that holds no output VC.
//!
//! Debug builds additionally run the router-local checks inside
//! `debug_assert`-gated code on the ordinary step path, so the whole test
//! suite exercises them for free.

/// Per-cycle invariant sink. `ACTIVE = false` implementations compile all
/// checking away.
pub trait InvariantChecker {
    /// Whether checks run at all. The step loop gates every check on this
    /// associated constant, so a `false` impl costs nothing.
    const ACTIVE: bool;

    /// Records that `n` invariant checks were evaluated.
    fn add_checks(&mut self, n: u64);

    /// Records one invariant violation.
    fn violation(&mut self, msg: String);
}

/// The no-op checker: all methods compile away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NopChecker;

impl InvariantChecker for NopChecker {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn add_checks(&mut self, _n: u64) {}

    #[inline(always)]
    fn violation(&mut self, _msg: String) {}
}

/// Cap on stored violation messages (the counter keeps counting).
const MAX_STORED: usize = 64;

/// Collects violations with bounded memory.
#[derive(Clone, Debug, Default)]
pub struct StrictChecker {
    /// Invariant checks evaluated.
    pub checks: u64,
    /// Violations found (all of them, including those not stored).
    pub total_violations: u64,
    /// First [`MAX_STORED`] violation messages.
    pub violations: Vec<String>,
}

impl InvariantChecker for StrictChecker {
    const ACTIVE: bool = true;

    fn add_checks(&mut self, n: u64) {
        self.checks += n;
    }

    fn violation(&mut self, msg: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(msg);
        }
    }
}

impl StrictChecker {
    /// Finalizes into a report.
    pub fn into_report(self) -> VerifyReport {
        VerifyReport {
            checks: self.checks,
            total_violations: self.total_violations,
            violations: self.violations,
        }
    }
}

/// Outcome of a verified run.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Invariant checks evaluated across the run.
    pub checks: u64,
    /// Total violations found.
    pub total_violations: u64,
    /// First stored violation messages.
    pub violations: Vec<String>,
}

impl VerifyReport {
    /// True if the run was violation-free.
    pub fn passed(&self) -> bool {
        self.total_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_sim_engine, Engine, Run, SimResult};
    use crate::topology::TopologyKind;
    use crate::SimConfig;

    fn verified(cfg: &SimConfig, warmup: u64, measure: u64) -> (SimResult, VerifyReport) {
        let out = Run::new(cfg, warmup, measure)
            .verify()
            .go()
            .expect("no telemetry, no trip");
        (out.result, out.verify.expect("checker attached"))
    }

    #[test]
    fn nop_checker_is_inert() {
        let mut n = NopChecker;
        n.add_checks(10);
        n.violation("x".into());
        const { assert!(!NopChecker::ACTIVE) };
    }

    #[test]
    fn strict_checker_caps_stored_messages() {
        let mut s = StrictChecker::default();
        for i in 0..100 {
            s.violation(format!("v{i}"));
        }
        s.add_checks(7);
        let rep = s.into_report();
        assert_eq!(rep.total_violations, 100);
        assert_eq!(rep.violations.len(), MAX_STORED);
        assert_eq!(rep.checks, 7);
        assert!(!rep.passed());
    }

    #[test]
    fn verified_mesh_run_is_clean() {
        let cfg = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let (res, rep) = verified(&cfg, 300, 800);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        assert!(rep.checks > 0);
        assert!(res.throughput > 0.0);
    }

    #[test]
    fn verified_run_matches_unverified_run() {
        // The checker is read-only: enabling it must not change behaviour.
        let cfg = SimConfig {
            injection_rate: 0.15,
            ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 2)
        };
        let (v, rep) = verified(&cfg, 300, 700);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        let p = run_sim_engine(&cfg, 300, 700, Engine::Sequential);
        assert_eq!(v.avg_latency.to_bits(), p.avg_latency.to_bits());
        assert_eq!(v.throughput.to_bits(), p.throughput.to_bits());
    }
}
