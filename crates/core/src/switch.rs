//! Switch allocators (§5.1).
//!
//! Switch allocation matches requests from the `V` input VCs at each of the
//! router's `P` input ports to crossbar output ports, under the constraint
//! that **at most one VC per input port** receives a grant (a port's crossbar
//! input can carry one flit per cycle). This extra constraint is what makes
//! switch allocators differ from canonical `P*V`-input allocators, and is
//! enforced structurally by all three implementations here, exactly as in
//! Figure 8.
//!
//! Each allocator exists twice: a `u64` mask kernel over [`ArbiterBank`]
//! state (used whenever `P <= 64` and `V <= 64`) and its scalar predecessor
//! in [`reference`](mod@reference), kept alive as the differential oracle and as the
//! fallback for wider configurations.

use crate::wavefront::WavefrontAllocator;
use crate::{Allocator, BitMatrix};
use noc_arbiter::{Arbiter, ArbiterBank, ArbiterKind, Bits};

/// Requests for one switch-allocation round: for every input VC, the output
/// port it wants this cycle (or `None` when idle).
#[derive(Clone, Debug)]
pub struct SwitchRequests {
    ports: usize,
    vcs: usize,
    req: Vec<Option<usize>>,
}

impl SwitchRequests {
    /// All-idle request set for a `ports`-port router with `vcs` VCs/port.
    pub fn new(ports: usize, vcs: usize) -> Self {
        SwitchRequests {
            ports,
            vcs,
            req: vec![None; ports * vcs],
        }
    }

    /// Router port count.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// VCs per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Registers that VC `vc` at input `in_port` wants output `out_port`.
    pub fn request(&mut self, in_port: usize, vc: usize, out_port: usize) {
        assert!(in_port < self.ports && vc < self.vcs && out_port < self.ports);
        self.req[in_port * self.vcs + vc] = Some(out_port);
    }

    /// Drops every request, keeping the allocation for reuse next cycle.
    pub fn clear(&mut self) {
        self.req.fill(None);
    }

    /// The output port requested by `(in_port, vc)`, if any.
    pub fn get(&self, in_port: usize, vc: usize) -> Option<usize> {
        self.req[in_port * self.vcs + vc]
    }

    /// True if no VC has a request.
    pub fn is_empty(&self) -> bool {
        self.req.iter().all(Option::is_none)
    }

    /// Bit vector over VCs at `in_port` that request *any* output.
    pub fn active_vcs(&self, in_port: usize) -> Bits {
        let mut b = Bits::new(self.vcs);
        for v in 0..self.vcs {
            if self.req[in_port * self.vcs + v].is_some() {
                b.set(v, true);
            }
        }
        b
    }

    /// [`SwitchRequests::active_vcs`] as a kernel word (`vcs <= 64`).
    #[inline]
    pub fn active_vcs_word(&self, in_port: usize) -> u64 {
        debug_assert!(self.vcs <= 64);
        let mut w = 0u64;
        for v in 0..self.vcs {
            if self.req[in_port * self.vcs + v].is_some() {
                w |= 1 << v;
            }
        }
        w
    }

    /// Bit vector over VCs at `in_port` requesting `out_port` specifically.
    pub fn vcs_for_output(&self, in_port: usize, out_port: usize) -> Bits {
        let mut b = Bits::new(self.vcs);
        for v in 0..self.vcs {
            if self.req[in_port * self.vcs + v] == Some(out_port) {
                b.set(v, true);
            }
        }
        b
    }

    /// [`SwitchRequests::vcs_for_output`] as a kernel word (`vcs <= 64`).
    #[inline]
    pub fn vcs_for_output_word(&self, in_port: usize, out_port: usize) -> u64 {
        debug_assert!(self.vcs <= 64);
        let mut w = 0u64;
        for v in 0..self.vcs {
            if self.req[in_port * self.vcs + v] == Some(out_port) {
                w |= 1 << v;
            }
        }
        w
    }

    /// The port-level request matrix: entry `(i, o)` set iff any VC at input
    /// `i` requests output `o` (the "combined and forwarded" requests of the
    /// output-first and wavefront implementations).
    pub fn port_matrix(&self) -> BitMatrix {
        let mut m = BitMatrix::new(self.ports, self.ports);
        self.port_matrix_into(&mut m);
        m
    }

    /// Fills a caller-owned `P × P` matrix with the port-level requests —
    /// the reusable-scratch form of [`SwitchRequests::port_matrix`].
    pub fn port_matrix_into(&self, m: &mut BitMatrix) {
        assert_eq!(m.num_rows(), self.ports);
        assert_eq!(m.num_cols(), self.ports);
        m.clear();
        for i in 0..self.ports {
            for v in 0..self.vcs {
                if let Some(o) = self.req[i * self.vcs + v] {
                    m.set(i, o, true);
                }
            }
        }
    }

    /// True if any VC at `in_port` has a request (used by the pessimistic
    /// speculation mask).
    pub fn input_active(&self, in_port: usize) -> bool {
        (0..self.vcs).any(|v| self.req[in_port * self.vcs + v].is_some())
    }

    /// True if any VC at any input requests `out_port`.
    pub fn output_requested(&self, out_port: usize) -> bool {
        self.req.contains(&Some(out_port))
    }
}

/// One switch grant: input `(in_port, vc)` may traverse the crossbar to
/// `out_port` next cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchGrant {
    /// Granted input port.
    pub in_port: usize,
    /// Granted VC at that input port.
    pub vc: usize,
    /// Crossbar output the flit will traverse to.
    pub out_port: usize,
}

/// A switch allocator for a `P`-port router with `V` VCs per port.
///
/// Guarantees on the returned grant set: every grant corresponds to a
/// request; at most one grant per input port; at most one grant per output
/// port.
pub trait SwitchAllocator: Send {
    /// Router port count `P`.
    fn ports(&self) -> usize;

    /// VCs per port `V`.
    fn vcs(&self) -> usize;

    /// Performs one switch-allocation round and updates priority state.
    fn allocate(&mut self, requests: &SwitchRequests) -> Vec<SwitchGrant>;

    /// Allocation round writing grants into a caller-owned buffer, so hot
    /// paths can reuse capacity across cycles. Must produce exactly the
    /// grants (and priority updates) of [`SwitchAllocator::allocate`].
    fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
        out.clear();
        out.extend(self.allocate(requests));
    }

    /// Restores power-on priority state.
    fn reset(&mut self);
}

/// The switch-allocator architectures of Figure 8, with arbiter choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwitchAllocatorKind {
    /// Separable input-first (Figure 8(a)).
    SepIf(ArbiterKind),
    /// Separable output-first (Figure 8(b)).
    SepOf(ArbiterKind),
    /// Wavefront with round-robin VC pre-selection (Figure 8(c)).
    Wavefront,
}

impl SwitchAllocatorKind {
    /// Instantiates the allocator for a `ports`-port, `vcs`-VC router.
    pub fn build(self, ports: usize, vcs: usize) -> Box<dyn SwitchAllocator + Send> {
        match self {
            SwitchAllocatorKind::SepIf(k) => Box::new(SepIfSwitchAllocator::new(ports, vcs, k)),
            SwitchAllocatorKind::SepOf(k) => Box::new(SepOfSwitchAllocator::new(ports, vcs, k)),
            SwitchAllocatorKind::Wavefront => Box::new(WavefrontSwitchAllocator::new(ports, vcs)),
        }
    }

    /// Instantiates the scalar-reference predecessor (see [`reference`](mod@reference));
    /// driven against [`SwitchAllocatorKind::build`] by the differential
    /// test layer.
    pub fn build_reference(self, ports: usize, vcs: usize) -> Box<dyn SwitchAllocator + Send> {
        match self {
            SwitchAllocatorKind::SepIf(k) => {
                Box::new(reference::SepIfSwitchAllocator::new(ports, vcs, k))
            }
            SwitchAllocatorKind::SepOf(k) => {
                Box::new(reference::SepOfSwitchAllocator::new(ports, vcs, k))
            }
            SwitchAllocatorKind::Wavefront => {
                Box::new(reference::WavefrontSwitchAllocator::new(ports, vcs))
            }
        }
    }

    /// Figure-legend label (`sep_if/rr`, `wf/rr`, ...).
    pub fn label(self) -> String {
        match self {
            SwitchAllocatorKind::SepIf(k) => format!("sep_if/{}", k.short_name()),
            SwitchAllocatorKind::SepOf(k) => format!("sep_of/{}", k.short_name()),
            SwitchAllocatorKind::Wavefront => "wf/rr".to_string(),
        }
    }
}

fn kernel_fits(ports: usize, vcs: usize) -> bool {
    ports <= 64 && vcs <= 64
}

/// Separable input-first switch allocator (Figure 8(a)).
///
/// A `V:1` arbiter per input port first picks a winning VC among all active
/// VCs; the winner's request is forwarded to its output port, where a `P:1`
/// arbiter selects among competing inputs. Output arbiters directly drive
/// the crossbar selects in hardware.
pub struct SepIfSwitchAllocator {
    ports: usize,
    vcs: usize,
    inner: SepIfSwInner,
}

enum SepIfSwInner {
    Kernel {
        /// `V:1` arbiter per input port.
        input: ArbiterBank,
        /// `P:1` arbiter per output port.
        output: ArbiterBank,
        /// Stage-1 scratch, `(vc, out_port)` per input port; kept across
        /// calls so steady-state allocation stays at zero.
        winners: Vec<Option<(usize, usize)>>,
        /// Forwarded-request accumulator: `incoming[o]` bit `i` set iff
        /// input `i`'s stage-1 winner targets output `o`. All-zero between
        /// calls (stage 2 clears exactly the slots stage 1 set).
        incoming: Vec<u64>,
    },
    Reference(reference::SepIfSwitchAllocator),
}

impl SepIfSwitchAllocator {
    /// Builds the allocator with the given arbiter kind in both stages.
    pub fn new(ports: usize, vcs: usize, kind: ArbiterKind) -> Self {
        let inner = if kernel_fits(ports, vcs) {
            SepIfSwInner::Kernel {
                input: ArbiterBank::new(kind, ports, vcs),
                output: ArbiterBank::new(kind, ports, ports),
                winners: Vec::with_capacity(ports),
                incoming: vec![0; ports],
            }
        } else {
            SepIfSwInner::Reference(reference::SepIfSwitchAllocator::new(ports, vcs, kind))
        };
        SepIfSwitchAllocator { ports, vcs, inner }
    }
}

impl SwitchAllocator for SepIfSwitchAllocator {
    fn ports(&self) -> usize {
        self.ports
    }

    fn vcs(&self) -> usize {
        self.vcs
    }

    fn allocate(&mut self, requests: &SwitchRequests) -> Vec<SwitchGrant> {
        let mut grants = Vec::new();
        self.allocate_into(requests, &mut grants);
        grants
    }

    fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
        assert_eq!(requests.ports(), self.ports);
        assert_eq!(requests.vcs(), self.vcs);
        out.clear();
        if requests.is_empty() {
            return;
        }
        match &mut self.inner {
            SepIfSwInner::Reference(r) => r.allocate_into(requests, out),
            SepIfSwInner::Kernel {
                input,
                output,
                winners,
                incoming,
            } => {
                // Stage 1: winning VC per input port.
                winners.clear();
                let mut pending = 0u64; // outputs with >= 1 forwarded request
                for i in 0..self.ports {
                    // An arbitration winner always comes from the active-VC
                    // mask, so its request is present.
                    let w = input
                        .arbitrate(i, requests.active_vcs_word(i))
                        .and_then(|v| requests.get(i, v).map(|o| (v, o)));
                    if let Some((_, o)) = w {
                        incoming[o] |= 1 << i;
                        pending |= 1 << o;
                    }
                    winners.push(w);
                }
                // Stage 2: arbitration among forwarded requests at each
                // output, in the same ascending output order as the scalar
                // reference (outputs with no contenders grant nothing
                // there, so skipping them is equivalent).
                while pending != 0 {
                    let o = pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    let inc = incoming[o];
                    incoming[o] = 0;
                    if let Some(i) = output.arbitrate(o, inc) {
                        let Some((v, _)) = winners[i] else { continue };
                        out.push(SwitchGrant {
                            in_port: i,
                            vc: v,
                            out_port: o,
                        });
                        // Both stages succeeded: commit priority updates.
                        input.update(i, v);
                        output.update(o, i);
                    }
                }
            }
        }
    }

    fn reset(&mut self) {
        match &mut self.inner {
            SepIfSwInner::Kernel { input, output, .. } => {
                input.reset();
                output.reset();
            }
            SepIfSwInner::Reference(r) => r.reset(),
        }
    }
}

/// Separable output-first switch allocator (Figure 8(b)).
///
/// Requests from all input VCs are combined per (input, output) pair and
/// forwarded; each output's `P:1` arbiter picks a winning input. An input
/// may win several outputs, so a `V:1` arbitration among the VCs that can
/// use any granted output selects the single winning VC; the other outputs
/// granted to that input go unused this cycle (and their arbiters keep
/// their priority, per the update rule).
pub struct SepOfSwitchAllocator {
    ports: usize,
    vcs: usize,
    inner: SepOfSwInner,
}

enum SepOfSwInner {
    Kernel {
        /// `P:1` arbiter per output port.
        output: ArbiterBank,
        /// `V:1` arbiter per input port.
        vc: ArbiterBank,
        /// Combined request columns: `colw[o]` bit `i` set iff any VC at
        /// input `i` requests output `o`. All-zero between calls.
        colw: Vec<u64>,
        /// Stage-1 wins per input: `won[i]` bit `o` set iff output `o`
        /// chose input `i`. All-zero between calls.
        won: Vec<u64>,
    },
    Reference(reference::SepOfSwitchAllocator),
}

impl SepOfSwitchAllocator {
    /// Builds the allocator with the given arbiter kind in both stages.
    pub fn new(ports: usize, vcs: usize, kind: ArbiterKind) -> Self {
        let inner = if kernel_fits(ports, vcs) {
            SepOfSwInner::Kernel {
                output: ArbiterBank::new(kind, ports, ports),
                vc: ArbiterBank::new(kind, ports, vcs),
                colw: vec![0; ports],
                won: vec![0; ports],
            }
        } else {
            SepOfSwInner::Reference(reference::SepOfSwitchAllocator::new(ports, vcs, kind))
        };
        SepOfSwitchAllocator { ports, vcs, inner }
    }
}

impl SwitchAllocator for SepOfSwitchAllocator {
    fn ports(&self) -> usize {
        self.ports
    }

    fn vcs(&self) -> usize {
        self.vcs
    }

    fn allocate(&mut self, requests: &SwitchRequests) -> Vec<SwitchGrant> {
        let mut grants = Vec::new();
        self.allocate_into(requests, &mut grants);
        grants
    }

    fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
        assert_eq!(requests.ports(), self.ports);
        assert_eq!(requests.vcs(), self.vcs);
        out.clear();
        if requests.is_empty() {
            return;
        }
        match &mut self.inner {
            SepOfSwInner::Reference(r) => r.allocate_into(requests, out),
            SepOfSwInner::Kernel {
                output,
                vc,
                colw,
                won,
            } => {
                // Combine per-VC requests into port-level columns.
                let mut active = 0u64; // outputs with >= 1 requesting input
                for i in 0..self.ports {
                    for v in 0..self.vcs {
                        if let Some(o) = requests.get(i, v) {
                            colw[o] |= 1 << i;
                            active |= 1 << o;
                        }
                    }
                }
                // Stage 1: each output arbitrates among requesting inputs.
                let mut pending = 0u64; // inputs chosen by >= 1 output
                while active != 0 {
                    let o = active.trailing_zeros() as usize;
                    active &= active - 1;
                    let inc = colw[o];
                    colw[o] = 0;
                    if let Some(i) = output.arbitrate(o, inc) {
                        won[i] |= 1 << o;
                        pending |= 1 << i;
                    }
                }
                // Stage 2: each input picks a winning VC among those whose
                // requested output was granted to it (ascending input
                // order, like the scalar sweep over all inputs).
                while pending != 0 {
                    let i = pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    let wmask = won[i];
                    won[i] = 0;
                    let mut cand = 0u64;
                    for v in 0..self.vcs {
                        if let Some(o) = requests.get(i, v) {
                            if wmask >> o & 1 != 0 {
                                cand |= 1 << v;
                            }
                        }
                    }
                    // A winner always comes from the candidate mask, which
                    // is built only from VCs with live requests.
                    if let Some((v, o)) = vc
                        .arbitrate(i, cand)
                        .and_then(|v| requests.get(i, v).map(|o| (v, o)))
                    {
                        out.push(SwitchGrant {
                            in_port: i,
                            vc: v,
                            out_port: o,
                        });
                        vc.update(i, v);
                        // Only the output whose grant was consumed updates.
                        output.update(o, i);
                    }
                }
            }
        }
    }

    fn reset(&mut self) {
        match &mut self.inner {
            SepOfSwInner::Kernel { output, vc, .. } => {
                output.reset();
                vc.reset();
            }
            SepOfSwInner::Reference(r) => r.reset(),
        }
    }
}

/// Wavefront switch allocator (Figure 8(c)).
///
/// Input VCs' requests are combined per port as in the output-first case and
/// fed to a `P × P` wavefront block, which guarantees at most one output per
/// input — so its outputs can drive the crossbar directly. VC selection is
/// pre-computed in parallel by a stage of `V:1` arbiters (one per
/// (input, output) pair, matching the `P` per-input arbiters of Figure
/// 8(c)): if input `i` is granted output `o`, the pre-selected VC for that
/// pair wins.
pub struct WavefrontSwitchAllocator {
    ports: usize,
    vcs: usize,
    /// The `P × P` port matcher (itself kernel-backed for `P <= 64`).
    wavefront: WavefrontAllocator,
    inner: WfSwInner,
    /// Combined-request and grant scratch matrices, kept across calls so
    /// steady-state allocation stays at zero.
    port_reqs: BitMatrix,
    port_grants: BitMatrix,
}

enum WfSwInner {
    /// `presel[i * P + o]`: V:1 round-robin arbiter choosing the VC at
    /// input `i` that will use output `o` if granted — one contiguous bank.
    Kernel(ArbiterBank),
    /// Boxed arbiters for `V > 64`.
    Boxed(Vec<Box<dyn Arbiter + Send>>),
}

impl WavefrontSwitchAllocator {
    /// Builds the allocator (round-robin pre-selection, per the paper's
    /// `wf/rr` configuration).
    pub fn new(ports: usize, vcs: usize) -> Self {
        let inner = if vcs <= 64 {
            WfSwInner::Kernel(ArbiterBank::new(
                ArbiterKind::RoundRobin,
                ports * ports,
                vcs,
            ))
        } else {
            WfSwInner::Boxed(
                (0..ports * ports)
                    .map(|_| ArbiterKind::RoundRobin.build(vcs))
                    .collect(),
            )
        };
        WavefrontSwitchAllocator {
            ports,
            vcs,
            wavefront: WavefrontAllocator::new(ports, ports),
            inner,
            port_reqs: BitMatrix::new(ports, ports),
            port_grants: BitMatrix::new(ports, ports),
        }
    }
}

impl SwitchAllocator for WavefrontSwitchAllocator {
    fn ports(&self) -> usize {
        self.ports
    }

    fn vcs(&self) -> usize {
        self.vcs
    }

    fn allocate(&mut self, requests: &SwitchRequests) -> Vec<SwitchGrant> {
        let mut grants = Vec::new();
        self.allocate_into(requests, &mut grants);
        grants
    }

    fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
        assert_eq!(requests.ports(), self.ports);
        assert_eq!(requests.vcs(), self.vcs);
        out.clear();
        if requests.is_empty() {
            return;
        }
        requests.port_matrix_into(&mut self.port_reqs);
        self.wavefront
            .allocate_into(&self.port_reqs, &mut self.port_grants);
        let ports = self.ports;
        for (i, o) in self.port_grants.iter_set() {
            let v = match &mut self.inner {
                WfSwInner::Kernel(bank) => {
                    let v = bank.arbitrate(i * ports + o, requests.vcs_for_output_word(i, o));
                    if let Some(v) = v {
                        bank.update(i * ports + o, v);
                    }
                    v
                }
                WfSwInner::Boxed(presel) => {
                    let arb = &mut presel[i * ports + o];
                    let v = arb.arbitrate(&requests.vcs_for_output(i, o));
                    if let Some(v) = v {
                        arb.update(v);
                    }
                    v
                }
            };
            // The wavefront core only grants port pairs that requested.
            let Some(v) = v else {
                debug_assert!(false, "wavefront granted a port pair with no requesting VC");
                continue;
            };
            out.push(SwitchGrant {
                in_port: i,
                vc: v,
                out_port: o,
            });
        }
    }

    fn reset(&mut self) {
        self.wavefront.reset();
        match &mut self.inner {
            WfSwInner::Kernel(bank) => bank.reset(),
            WfSwInner::Boxed(presel) => {
                for a in presel {
                    a.reset();
                }
            }
        }
    }
}

/// Checks the structural guarantees of a switch-grant set; used by tests and
/// the simulator's debug assertions.
pub fn validate_switch_grants(
    requests: &SwitchRequests,
    grants: &[SwitchGrant],
) -> Result<(), String> {
    // Bits instead of Vec<bool>: this runs per cycle under debug
    // assertions and must not allocate in steady state.
    let mut in_used = Bits::new(requests.ports());
    let mut out_used = Bits::new(requests.ports());
    for g in grants {
        if requests.get(g.in_port, g.vc) != Some(g.out_port) {
            return Err(format!("grant without request: {g:?}"));
        }
        if in_used.get(g.in_port) {
            return Err(format!("two grants at input port {}", g.in_port));
        }
        in_used.set(g.in_port, true);
        if out_used.get(g.out_port) {
            return Err(format!("two grants at output port {}", g.out_port));
        }
        out_used.set(g.out_port, true);
    }
    Ok(())
}

/// Scalar predecessors of the switch-allocator kernels: boxed per-port
/// arbiters and element-wise stage sweeps, kept alive as differential
/// oracles and as the wide-configuration fallback.
pub mod reference {
    use super::{SwitchAllocator, SwitchGrant, SwitchRequests};
    use crate::wavefront;
    use crate::{Allocator, BitMatrix};
    use noc_arbiter::{Arbiter, ArbiterKind, Bits};

    /// Scalar separable input-first switch allocator.
    pub struct SepIfSwitchAllocator {
        ports: usize,
        vcs: usize,
        input_arbs: Vec<Box<dyn Arbiter + Send>>,
        output_arbs: Vec<Box<dyn Arbiter + Send>>,
        winners: Vec<Option<(usize, usize)>>,
    }

    impl SepIfSwitchAllocator {
        /// Scalar counterpart of [`super::SepIfSwitchAllocator::new`].
        pub fn new(ports: usize, vcs: usize, kind: ArbiterKind) -> Self {
            SepIfSwitchAllocator {
                ports,
                vcs,
                input_arbs: (0..ports).map(|_| kind.build(vcs)).collect(),
                output_arbs: (0..ports).map(|_| kind.build(ports)).collect(),
                winners: Vec::with_capacity(ports),
            }
        }
    }

    impl SwitchAllocator for SepIfSwitchAllocator {
        fn ports(&self) -> usize {
            self.ports
        }

        fn vcs(&self) -> usize {
            self.vcs
        }

        fn allocate(&mut self, requests: &SwitchRequests) -> Vec<SwitchGrant> {
            let mut grants = Vec::new();
            self.allocate_into(requests, &mut grants);
            grants
        }

        fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
            assert_eq!(requests.ports(), self.ports);
            assert_eq!(requests.vcs(), self.vcs);
            out.clear();
            if requests.is_empty() {
                return;
            }
            // Stage 1: winning VC per input port.
            self.winners.clear();
            for i in 0..self.ports {
                let w = self.input_arbs[i]
                    .arbitrate(&requests.active_vcs(i))
                    .and_then(|v| requests.get(i, v).map(|out| (v, out)));
                self.winners.push(w);
            }
            let winners = &self.winners;
            // Stage 2: arbitration among forwarded requests at each output.
            for o in 0..self.ports {
                let mut incoming = Bits::new(self.ports);
                for (i, w) in winners.iter().enumerate() {
                    if matches!(w, Some((_, out)) if *out == o) {
                        incoming.set(i, true);
                    }
                }
                if let Some(i) = self.output_arbs[o].arbitrate(&incoming) {
                    // `incoming` only carries inputs with a stage-1 winner.
                    let Some((v, _)) = winners[i] else { continue };
                    out.push(SwitchGrant {
                        in_port: i,
                        vc: v,
                        out_port: o,
                    });
                    // Both stages succeeded: commit priority updates.
                    self.input_arbs[i].update(v);
                    self.output_arbs[o].update(i);
                }
            }
        }

        fn reset(&mut self) {
            for a in self.input_arbs.iter_mut().chain(&mut self.output_arbs) {
                a.reset();
            }
        }
    }

    /// Scalar separable output-first switch allocator.
    pub struct SepOfSwitchAllocator {
        ports: usize,
        vcs: usize,
        output_arbs: Vec<Box<dyn Arbiter + Send>>,
        vc_arbs: Vec<Box<dyn Arbiter + Send>>,
        port_reqs: BitMatrix,
        stage1: Vec<Option<usize>>,
    }

    impl SepOfSwitchAllocator {
        /// Scalar counterpart of [`super::SepOfSwitchAllocator::new`].
        pub fn new(ports: usize, vcs: usize, kind: ArbiterKind) -> Self {
            SepOfSwitchAllocator {
                ports,
                vcs,
                output_arbs: (0..ports).map(|_| kind.build(ports)).collect(),
                vc_arbs: (0..ports).map(|_| kind.build(vcs)).collect(),
                port_reqs: BitMatrix::new(ports, ports),
                stage1: Vec::with_capacity(ports),
            }
        }
    }

    impl SwitchAllocator for SepOfSwitchAllocator {
        fn ports(&self) -> usize {
            self.ports
        }

        fn vcs(&self) -> usize {
            self.vcs
        }

        fn allocate(&mut self, requests: &SwitchRequests) -> Vec<SwitchGrant> {
            let mut grants = Vec::new();
            self.allocate_into(requests, &mut grants);
            grants
        }

        fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
            assert_eq!(requests.ports(), self.ports);
            assert_eq!(requests.vcs(), self.vcs);
            out.clear();
            if requests.is_empty() {
                return;
            }
            requests.port_matrix_into(&mut self.port_reqs);
            // Stage 1: each output arbitrates among all requesting inputs.
            self.stage1.clear();
            for o in 0..self.ports {
                let w = self.output_arbs[o].arbitrate(&self.port_reqs.col(o));
                self.stage1.push(w);
            }
            let stage1 = &self.stage1;
            // Stage 2: each input picks a winning VC among those whose
            // requested output was granted to it.
            for i in 0..self.ports {
                let mut candidates = Bits::new(self.vcs);
                for v in 0..self.vcs {
                    if let Some(o) = requests.get(i, v) {
                        if stage1[o] == Some(i) {
                            candidates.set(v, true);
                        }
                    }
                }
                if let Some(v) = self.vc_arbs[i].arbitrate(&candidates) {
                    // `candidates` only carries VCs with a live request.
                    let Some(o) = requests.get(i, v) else {
                        continue;
                    };
                    out.push(SwitchGrant {
                        in_port: i,
                        vc: v,
                        out_port: o,
                    });
                    self.vc_arbs[i].update(v);
                    // Only the output whose grant was consumed updates.
                    self.output_arbs[o].update(i);
                }
            }
        }

        fn reset(&mut self) {
            for a in self.output_arbs.iter_mut().chain(&mut self.vc_arbs) {
                a.reset();
            }
        }
    }

    /// Scalar wavefront switch allocator (scalar wavefront core + boxed
    /// pre-selection arbiters).
    pub struct WavefrontSwitchAllocator {
        ports: usize,
        vcs: usize,
        wavefront: wavefront::reference::WavefrontAllocator,
        presel: Vec<Box<dyn Arbiter + Send>>,
        port_reqs: BitMatrix,
        port_grants: BitMatrix,
    }

    impl WavefrontSwitchAllocator {
        /// Scalar counterpart of [`super::WavefrontSwitchAllocator::new`].
        pub fn new(ports: usize, vcs: usize) -> Self {
            WavefrontSwitchAllocator {
                ports,
                vcs,
                wavefront: wavefront::reference::WavefrontAllocator::new(ports, ports),
                presel: (0..ports * ports)
                    .map(|_| ArbiterKind::RoundRobin.build(vcs))
                    .collect(),
                port_reqs: BitMatrix::new(ports, ports),
                port_grants: BitMatrix::new(ports, ports),
            }
        }
    }

    impl SwitchAllocator for WavefrontSwitchAllocator {
        fn ports(&self) -> usize {
            self.ports
        }

        fn vcs(&self) -> usize {
            self.vcs
        }

        fn allocate(&mut self, requests: &SwitchRequests) -> Vec<SwitchGrant> {
            let mut grants = Vec::new();
            self.allocate_into(requests, &mut grants);
            grants
        }

        fn allocate_into(&mut self, requests: &SwitchRequests, out: &mut Vec<SwitchGrant>) {
            assert_eq!(requests.ports(), self.ports);
            assert_eq!(requests.vcs(), self.vcs);
            out.clear();
            if requests.is_empty() {
                return;
            }
            requests.port_matrix_into(&mut self.port_reqs);
            self.wavefront
                .allocate_into(&self.port_reqs, &mut self.port_grants);
            let ports = self.ports;
            let (port_grants, presel) = (&self.port_grants, &mut self.presel);
            for (i, o) in port_grants.iter_set() {
                let arb = &mut presel[i * ports + o];
                // The wavefront core only grants port pairs that requested.
                let Some(v) = arb.arbitrate(&requests.vcs_for_output(i, o)) else {
                    debug_assert!(false, "wavefront granted a port pair with no requesting VC");
                    continue;
                };
                arb.update(v);
                out.push(SwitchGrant {
                    in_port: i,
                    vc: v,
                    out_port: o,
                });
            }
        }

        fn reset(&mut self) {
            self.wavefront.reset();
            for a in &mut self.presel {
                a.reset();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn kinds() -> Vec<SwitchAllocatorKind> {
        vec![
            SwitchAllocatorKind::SepIf(ArbiterKind::RoundRobin),
            SwitchAllocatorKind::SepIf(ArbiterKind::Matrix),
            SwitchAllocatorKind::SepOf(ArbiterKind::RoundRobin),
            SwitchAllocatorKind::SepOf(ArbiterKind::Matrix),
            SwitchAllocatorKind::Wavefront,
        ]
    }

    fn random_requests(rng: &mut impl Rng, p: usize, v: usize, rate: f64) -> SwitchRequests {
        let mut r = SwitchRequests::new(p, v);
        for i in 0..p {
            for vc in 0..v {
                if rng.gen_bool(rate) {
                    r.request(i, vc, rng.gen_range(0..p));
                }
            }
        }
        r
    }

    #[test]
    fn grants_satisfy_structural_constraints() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for kind in kinds() {
            let mut a = kind.build(5, 4);
            for _ in 0..100 {
                let reqs = random_requests(&mut rng, 5, 4, 0.4);
                let grants = a.allocate(&reqs);
                validate_switch_grants(&reqs, &grants).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            }
        }
    }

    #[test]
    fn non_conflicting_port_requests_all_granted() {
        for kind in kinds() {
            let mut a = kind.build(4, 2);
            let mut reqs = SwitchRequests::new(4, 2);
            reqs.request(0, 0, 2);
            reqs.request(1, 1, 0);
            reqs.request(3, 0, 3);
            let grants = a.allocate(&reqs);
            assert_eq!(grants.len(), 3, "{kind:?}");
        }
    }

    #[test]
    fn single_grant_per_input_even_with_many_vcs() {
        for kind in kinds() {
            let mut a = kind.build(3, 4);
            let mut reqs = SwitchRequests::new(3, 4);
            // All four VCs at input 0 request distinct outputs.
            for vc in 0..3 {
                reqs.request(0, vc, vc);
            }
            let grants = a.allocate(&reqs);
            assert_eq!(grants.len(), 1, "{kind:?}: input port over-granted");
            assert_eq!(grants[0].in_port, 0);
        }
    }

    #[test]
    fn wavefront_switch_is_maximal_on_port_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut a = WavefrontSwitchAllocator::new(6, 3);
        for _ in 0..100 {
            let reqs = random_requests(&mut rng, 6, 3, 0.5);
            let grants = a.allocate(&reqs);
            let mut gm = BitMatrix::new(6, 6);
            for g in &grants {
                gm.set(g.in_port, g.out_port, true);
            }
            assert!(gm.is_maximal_for(&reqs.port_matrix()));
        }
    }

    #[test]
    fn sep_if_bottlenecked_by_single_stage1_winner() {
        // §5.3.2: sep_if "can only propagate a single request per input port
        // to its second arbitration stage". Two inputs each have VCs for
        // both outputs; sep_if with aligned priorities grants only one pair,
        // wavefront grants two.
        let mut sep = SepIfSwitchAllocator::new(2, 2, ArbiterKind::RoundRobin);
        let mut wf = WavefrontSwitchAllocator::new(2, 2);
        let mut reqs = SwitchRequests::new(2, 2);
        // Both inputs: VC0 -> out 0, VC1 -> out 1.
        for i in 0..2 {
            reqs.request(i, 0, 0);
            reqs.request(i, 1, 1);
        }
        // sep_if stage 1 picks VC0 at both inputs -> both forward to output
        // 0 -> single grant.
        let g = sep.allocate(&reqs);
        assert_eq!(g.len(), 1);
        let g = wf.allocate(&reqs);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn persistent_conflict_is_fair() {
        for kind in kinds() {
            let mut a = kind.build(2, 1);
            let mut reqs = SwitchRequests::new(2, 1);
            reqs.request(0, 0, 0);
            reqs.request(1, 0, 0);
            let mut counts = [0usize; 2];
            for _ in 0..20 {
                for g in a.allocate(&reqs) {
                    counts[g.in_port] += 1;
                }
            }
            assert!(
                counts[0] >= 8 && counts[1] >= 8,
                "{kind:?} unfair: {counts:?}"
            );
        }
    }

    #[test]
    fn empty_requests_produce_no_grants() {
        for kind in kinds() {
            let mut a = kind.build(5, 4);
            assert!(
                a.allocate(&SwitchRequests::new(5, 4)).is_empty(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn port_matrix_and_helpers() {
        let mut r = SwitchRequests::new(3, 2);
        r.request(0, 0, 1);
        r.request(0, 1, 2);
        r.request(2, 1, 1);
        let m = r.port_matrix();
        assert!(m.get(0, 1) && m.get(0, 2) && m.get(2, 1));
        assert_eq!(m.count_ones(), 3);
        assert!(r.input_active(0) && !r.input_active(1) && r.input_active(2));
        assert!(r.output_requested(1) && !r.output_requested(0));
        assert_eq!(
            r.vcs_for_output(0, 2).iter_set().collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(r.active_vcs_word(0), 0b11);
        assert_eq!(r.vcs_for_output_word(0, 2), 0b10);
        assert_eq!(r.vcs_for_output_word(1, 1), 0);
    }
}
