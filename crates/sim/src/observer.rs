//! The one observer seam: everything that watches a run — trace sinks,
//! the phase profiler, the invariant checker, the sampled metrics, the
//! flight recorder and the packet ledger — is an [`Observer`] handed to
//! the cycle body.
//!
//! Observers compose. `()` watches nothing, a tuple hands every hook to
//! each member in order, `Option<T>` to its value when present and
//! `&mut T` to its referent (so a caller can lend an observer to a run
//! and read it afterwards). Every hook defaults to a no-op, so with `()`
//! the cycle body is the uninstrumented one; an absent `Option<T>` costs
//! one branch per hook.
//!
//! Two hooks run inside router compute: [`Observer::flit`] and
//! [`Observer::phase`]. The parallel engine computes routers on its
//! worker pool unless [`Observer::in_compute`] holds, and then computes
//! them in router-id order on the calling thread. Every other hook runs on
//! the calling thread in an order every engine shares: hops at commit in
//! router-id order, ejections in timing-wheel order, `cycle_end` after
//! commit. So what an observer sees is identical on every engine.

use crate::network::Network;
use crate::packet::Flit;
use noc_obs::{
    AnatomyCollector, CountingSink, DigestSink, FlightRecorder, FlitEvent, HopRecord,
    MetricsRegistry, Phase, Profiler, VecSink,
};

/// A watcher of a simulation run. See the [module docs](self).
pub trait Observer {
    /// Whether this observer, as attached, hooks inside router compute
    /// ([`Observer::flit`] or [`Observer::phase`]). The cycle body builds
    /// flit events only while it holds, and the parallel engine leaves
    /// its worker pool only while it holds.
    #[inline]
    fn in_compute(&self) -> bool {
        false
    }

    /// Whether this observer takes [`Observer::phase`] timings: the cycle
    /// body reads the clock only while it holds. Implies
    /// [`Observer::in_compute`].
    #[inline]
    fn timed(&self) -> bool {
        false
    }

    /// Switches on the router-local producers this observer reads. Every
    /// engine run calls it first, so it must be idempotent.
    #[inline]
    fn attach(&mut self, _net: &mut Network) {}

    /// One flit-lifecycle event.
    #[inline]
    fn flit(&mut self, _ev: FlitEvent) {}

    /// `nanos` of wall time and `events` units of work in one phase.
    #[inline]
    fn phase(&mut self, _phase: Phase, _nanos: u64, _events: u64) {}

    /// One router hop's stage attribution, at commit in router-id order.
    #[inline]
    fn hop(&mut self, _hop: HopRecord) {}

    /// A flit delivered to its terminal at cycle `now`, in timing-wheel
    /// order; `in_window` says whether `now` lies in the measurement
    /// window.
    #[inline]
    fn eject(&mut self, _flit: &Flit, _now: u64, _in_window: bool) {}

    /// The network after the commit of cycle `net.now`, before the clock
    /// advances.
    #[inline]
    fn cycle_end(&mut self, _net: &Network) {}
}

impl Observer for () {}

impl<T: Observer + ?Sized> Observer for &mut T {
    fn in_compute(&self) -> bool {
        (**self).in_compute()
    }
    fn timed(&self) -> bool {
        (**self).timed()
    }
    fn attach(&mut self, net: &mut Network) {
        (**self).attach(net);
    }
    fn flit(&mut self, ev: FlitEvent) {
        (**self).flit(ev);
    }
    fn phase(&mut self, phase: Phase, nanos: u64, events: u64) {
        (**self).phase(phase, nanos, events);
    }
    fn hop(&mut self, hop: HopRecord) {
        (**self).hop(hop);
    }
    fn eject(&mut self, flit: &Flit, now: u64, in_window: bool) {
        (**self).eject(flit, now, in_window);
    }
    fn cycle_end(&mut self, net: &Network) {
        (**self).cycle_end(net);
    }
}

impl<T: Observer> Observer for Option<T> {
    fn in_compute(&self) -> bool {
        self.as_ref().is_some_and(T::in_compute)
    }
    fn timed(&self) -> bool {
        self.as_ref().is_some_and(T::timed)
    }
    fn attach(&mut self, net: &mut Network) {
        self.iter_mut().for_each(|o| o.attach(net));
    }
    fn flit(&mut self, ev: FlitEvent) {
        self.iter_mut().for_each(|o| o.flit(ev));
    }
    fn phase(&mut self, phase: Phase, nanos: u64, events: u64) {
        self.iter_mut().for_each(|o| o.phase(phase, nanos, events));
    }
    fn hop(&mut self, hop: HopRecord) {
        self.iter_mut().for_each(|o| o.hop(hop));
    }
    fn eject(&mut self, flit: &Flit, now: u64, in_window: bool) {
        self.iter_mut().for_each(|o| o.eject(flit, now, in_window));
    }
    fn cycle_end(&mut self, net: &Network) {
        self.iter_mut().for_each(|o| o.cycle_end(net));
    }
}

/// Tuples of observers: every hook goes to each member in order.
macro_rules! tuple_observer {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Observer),+> Observer for ($($t,)+) {
            fn in_compute(&self) -> bool {
                $(self.$i.in_compute())||+
            }
            fn timed(&self) -> bool {
                $(self.$i.timed())||+
            }
            fn attach(&mut self, net: &mut Network) {
                $(self.$i.attach(net);)+
            }
            fn flit(&mut self, ev: FlitEvent) {
                $(self.$i.flit(ev);)+
            }
            fn phase(&mut self, phase: Phase, nanos: u64, events: u64) {
                $(self.$i.phase(phase, nanos, events);)+
            }
            fn hop(&mut self, hop: HopRecord) {
                $(self.$i.hop(hop);)+
            }
            fn eject(&mut self, flit: &Flit, now: u64, in_window: bool) {
                $(self.$i.eject(flit, now, in_window);)+
            }
            fn cycle_end(&mut self, net: &Network) {
                $(self.$i.cycle_end(net);)+
            }
        }
    };
}

tuple_observer!(A.0, B.1);
tuple_observer!(A.0, B.1, C.2);
tuple_observer!(A.0, B.1, C.2, D.3);
tuple_observer!(A.0, B.1, C.2, D.3, E.4);
tuple_observer!(A.0, B.1, C.2, D.3, E.4, F.5);

/// The trace sinks take every flit event, from inside router compute.
macro_rules! sink_observer {
    ($($sink:ty),+) => {$(
        impl Observer for $sink {
            #[inline]
            fn in_compute(&self) -> bool {
                true
            }
            #[inline]
            fn flit(&mut self, ev: FlitEvent) {
                self.record(ev);
            }
        }
    )+};
}

sink_observer!(VecSink, DigestSink, CountingSink);

impl Observer for Profiler {
    #[inline]
    fn in_compute(&self) -> bool {
        true
    }
    #[inline]
    fn timed(&self) -> bool {
        true
    }
    #[inline]
    fn phase(&mut self, phase: Phase, nanos: u64, events: u64) {
        self.record(phase, nanos, events);
    }
}

impl Observer for MetricsRegistry {
    fn cycle_end(&mut self, net: &Network) {
        if self.due(net.now) {
            self.sample(
                net.now,
                net.routers().iter().map(|r| {
                    (
                        r.buffered_flits() as u32,
                        r.busy_vcs() as u32,
                        r.obs.total_out_flits(),
                        r.ports(),
                    )
                }),
            );
        }
    }
}

/// Windows are keyed purely on the cycle number, so every engine records
/// identical windows regardless of chunking or skipping.
impl Observer for FlightRecorder {
    fn attach(&mut self, net: &mut Network) {
        let period = self.matching_period();
        if period > 0 {
            for r in net.routers_mut() {
                r.enable_match_sampling(period);
            }
        }
    }

    fn cycle_end(&mut self, net: &Network) {
        if self.due(net.now) {
            self.record(
                net.now,
                net.total_flits_injected(),
                net.stats.total_flits_ejected,
                net.routers().iter().map(|r| r.telemetry_counters()),
            );
        }
    }
}

/// Routers stamp their buffered heads each cycle once attached; hops and
/// ejections fold in engine-invariant order, so dumps are byte-identical
/// across engines.
impl Observer for AnatomyCollector {
    fn attach(&mut self, net: &mut Network) {
        for r in net.routers_mut() {
            r.enable_anatomy();
        }
    }

    fn hop(&mut self, hop: HopRecord) {
        self.ingest_hop(hop);
    }

    fn eject(&mut self, flit: &Flit, now: u64, in_window: bool) {
        if flit.head {
            self.eject_head(flit.packet_id, flit.birth, flit.injected, now);
        }
        if flit.tail {
            self.eject_tail(flit.packet_id, flit.msg_class() as u8, now, in_window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Engine, Run};
    use crate::verify::StrictChecker;
    use crate::{SimConfig, TopologyKind};

    #[test]
    fn only_sinks_and_the_profiler_hook_inside_router_compute() {
        assert!(VecSink::default().in_compute());
        assert!(DigestSink::new().in_compute());
        assert!(CountingSink::default().in_compute());
        assert!(Profiler::default().in_compute());
        assert!(Profiler::default().timed());
        assert!(!StrictChecker::default().in_compute());
        assert!(!MetricsRegistry::new(10, 4).in_compute());
        assert!(!FlightRecorder::new(10, 4).with_matching(10).in_compute());
        assert!(!AnatomyCollector::new(16, 2).in_compute());
        assert!(!().in_compute());
        assert!(!None::<VecSink>.in_compute());
        assert!(Some(VecSink::default()).in_compute());
        assert!(!VecSink::default().timed());
        // A tuple hooks in when any member does, and times when any does.
        let quiet = (StrictChecker::default(), None::<Profiler>);
        assert!(!quiet.in_compute() && !quiet.timed());
        let traced = (StrictChecker::default(), CountingSink::default(), ());
        assert!(traced.in_compute() && !traced.timed());
        let mut sink = DigestSink::new();
        let lent = (&mut sink, Some(Profiler::default()));
        assert!(lent.in_compute() && lent.timed());
    }

    #[test]
    fn a_pair_of_sinks_sees_what_a_single_sink_sees_on_every_engine() {
        let cfg = SimConfig {
            injection_rate: 0.15,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let single = |engine: Engine| {
            let mut sink = DigestSink::new();
            engine.run_with(&mut Network::new(cfg.clone()), 600, &mut sink);
            (sink.digest(), sink.events())
        };
        let reference = single(Engine::Sequential);
        assert!(reference.1 > 0);
        for engine in [Engine::Sequential, Engine::Parallel(4)] {
            assert_eq!(single(engine), reference, "{}", engine.label());
            let mut pair = (DigestSink::new(), DigestSink::new());
            engine.run_with(&mut Network::new(cfg.clone()), 600, &mut pair);
            for sink in [&pair.0, &pair.1] {
                assert_eq!(
                    (sink.digest(), sink.events()),
                    reference,
                    "{}",
                    engine.label()
                );
            }
        }
    }

    #[test]
    fn verify_on_par_checks_what_seq_checks() {
        let cfg = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 2)
        };
        let verified = |engine| {
            let out = Run::new(&cfg, 200, 400)
                .engine(engine)
                .verify()
                .go()
                .expect("no telemetry, no trip");
            let rep = out.verify.expect("checker attached");
            (out.result.to_json(), rep.checks, rep.total_violations)
        };
        let seq = verified(Engine::Sequential);
        assert!(seq.1 > 0);
        assert_eq!(seq.2, 0);
        assert_eq!(verified(Engine::Parallel(4)), seq);
        assert_eq!(verified(Engine::ActiveSet), seq);
    }
}
