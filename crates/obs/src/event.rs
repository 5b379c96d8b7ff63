//! Flit-lifecycle trace events and the sinks that collect them. The
//! simulator hands events to a sink through its observer seam
//! (`noc_sim::Observer`), which every sink here implements.

/// What happened to a flit (or its packet) at one pipeline step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlitEventKind {
    /// A flit entered the network at a terminal's injection link.
    Inject,
    /// Lookahead routing computed the next-hop decision for a head flit.
    Route,
    /// A head flit requested an output VC this cycle.
    VcaRequest,
    /// VC allocation granted an output VC to a head flit.
    VcaGrant,
    /// An input VC requested the switch non-speculatively.
    SaRequest,
    /// An input VC requested the switch speculatively.
    SaSpecRequest,
    /// The switch allocator granted a non-speculative request.
    SaGrant,
    /// The switch allocator granted a speculative request that survived
    /// masking and validation.
    SaSpecGrant,
    /// A speculative grant was discarded by the masking stage.
    SaSpecMasked,
    /// A speculative grant survived masking but failed validation (lost VC
    /// allocation, or no downstream credit).
    SaSpecInvalid,
    /// A flit traversed the switch and entered an output link.
    SwitchTraversal,
    /// A flit left the network at its destination terminal.
    Eject,
}

impl FlitEventKind {
    /// Stable lower-snake name, used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            FlitEventKind::Inject => "inject",
            FlitEventKind::Route => "route",
            FlitEventKind::VcaRequest => "vca_request",
            FlitEventKind::VcaGrant => "vca_grant",
            FlitEventKind::SaRequest => "sa_request",
            FlitEventKind::SaSpecRequest => "sa_spec_request",
            FlitEventKind::SaGrant => "sa_grant",
            FlitEventKind::SaSpecGrant => "sa_spec_grant",
            FlitEventKind::SaSpecMasked => "sa_spec_masked",
            FlitEventKind::SaSpecInvalid => "sa_spec_invalid",
            FlitEventKind::SwitchTraversal => "switch_traversal",
            FlitEventKind::Eject => "eject",
        }
    }
}

/// One trace record. `port`/`vc` are input-side coordinates except for
/// [`FlitEventKind::SwitchTraversal`] (output port/VC) and
/// [`FlitEventKind::Route`] (the computed next-hop output port).
#[derive(Clone, Copy, Debug)]
pub struct FlitEvent {
    /// Simulation cycle.
    pub cycle: u64,
    /// Event kind.
    pub kind: FlitEventKind,
    /// Router where the event happened (the attached router for
    /// inject/eject, the next-hop router for route).
    pub router: u32,
    /// Port coordinate (see type-level docs).
    pub port: u16,
    /// VC coordinate.
    pub vc: u16,
    /// Packet id the flit belongs to.
    pub packet_id: u64,
    /// Flit index within the packet (0 = head); events that concern the
    /// whole packet (VCA, SA requests) use the head flit's index.
    pub flit_index: u32,
}

/// Buffers events in memory (feeds [`crate::chrome_trace`]), bounded:
/// once `capacity` events are stored, further events are counted in
/// [`VecSink::dropped`] instead of growing the buffer, so a long traced
/// run cannot exhaust memory.
#[derive(Clone, Debug)]
pub struct VecSink {
    /// Recorded events, in emission order (non-decreasing cycle).
    pub events: Vec<FlitEvent>,
    /// Events discarded after the buffer reached capacity.
    pub dropped: u64,
    capacity: usize,
}

impl Default for VecSink {
    fn default() -> Self {
        VecSink::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl VecSink {
    /// Default event cap (~4.2M events, a few hundred MB at most): ample
    /// for CLI-sized traces, bounded for everything else.
    pub const DEFAULT_CAPACITY: usize = 1 << 22;

    /// A sink storing at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> VecSink {
        VecSink {
            events: Vec::new(),
            dropped: 0,
            capacity,
        }
    }

    /// The event cap this sink was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stores one event, or counts it as dropped once the buffer is full.
    #[inline]
    pub fn record(&mut self, ev: FlitEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// Counts events per kind without storing them (cheap sanity checks and
/// overhead measurements).
#[derive(Clone, Debug, Default)]
pub struct CountingSink {
    /// Event counts indexed by `FlitEventKind as usize`.
    pub counts: [u64; 12],
}

impl CountingSink {
    /// Events seen of one kind.
    pub fn count(&self, kind: FlitEventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Counts one event.
    #[inline]
    pub fn record(&mut self, ev: FlitEvent) {
        self.counts[ev.kind as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: FlitEventKind) -> FlitEvent {
        FlitEvent {
            cycle: 7,
            kind,
            router: 1,
            port: 2,
            vc: 0,
            packet_id: 99,
            flit_index: 0,
        }
    }

    #[test]
    fn vec_sink_stores_in_order() {
        let mut s = VecSink::default();
        s.record(ev(FlitEventKind::Inject));
        s.record(ev(FlitEventKind::Eject));
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].kind, FlitEventKind::Inject);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.capacity(), VecSink::DEFAULT_CAPACITY);
    }

    #[test]
    fn vec_sink_caps_memory_and_counts_drops() {
        let mut s = VecSink::with_capacity(2);
        s.record(ev(FlitEventKind::Inject));
        s.record(ev(FlitEventKind::Route));
        s.record(ev(FlitEventKind::SwitchTraversal));
        s.record(ev(FlitEventKind::Eject));
        // The first `capacity` events survive, the overflow is counted.
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[1].kind, FlitEventKind::Route);
        assert_eq!(s.dropped, 2);
    }

    #[test]
    fn counting_sink_tallies_by_kind() {
        let mut s = CountingSink::default();
        s.record(ev(FlitEventKind::SaGrant));
        s.record(ev(FlitEventKind::SaGrant));
        s.record(ev(FlitEventKind::Eject));
        assert_eq!(s.count(FlitEventKind::SaGrant), 2);
        assert_eq!(s.count(FlitEventKind::Eject), 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn kind_names_are_unique() {
        let kinds = [
            FlitEventKind::Inject,
            FlitEventKind::Route,
            FlitEventKind::VcaRequest,
            FlitEventKind::VcaGrant,
            FlitEventKind::SaRequest,
            FlitEventKind::SaSpecRequest,
            FlitEventKind::SaGrant,
            FlitEventKind::SaSpecGrant,
            FlitEventKind::SaSpecMasked,
            FlitEventKind::SaSpecInvalid,
            FlitEventKind::SwitchTraversal,
            FlitEventKind::Eject,
        ];
        let names: std::collections::HashSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
