//! VC allocators (§4): dense and sparse implementations.
//!
//! The VC allocator matches `P*V` input VCs (requesters) to `P*V` output VCs
//! (resources), subject to the constraint that all output VCs requested by a
//! given input VC live at the single output port selected by the routing
//! function. §4.2's *sparse VC allocation* additionally exploits the static
//! structure of VC usage — the decomposition `V = M × R × C` into message
//! classes, resource classes and class banks — to shrink the allocator.

use crate::{Allocator, AllocatorKind, BitMatrix};

/// Describes how a router's VCs decompose into message classes (`M`),
/// resource classes (`R`) and VCs per class (`C`), with `V = M*R*C`
/// (§4.2), plus the legal resource-class transition relation.
///
/// VC index encoding: `vc = (msg * R + res) * C + bank`.
///
/// ```
/// use noc_core::VcAllocSpec;
///
/// // The paper's Figure 4 configuration: 96 of 256 transitions legal.
/// let spec = VcAllocSpec::fbfly(4);
/// assert_eq!(spec.total_vcs(), 16);
/// assert_eq!(spec.legal_transition_count(), 96);
/// assert_eq!(spec.label(), "2x2x4");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcAllocSpec {
    ports: usize,
    msg_classes: usize,
    resource_classes: usize,
    vcs_per_class: usize,
    /// `rc_succ[from][to]`: packets in resource class `from` may acquire a
    /// VC of resource class `to` at the next hop.
    rc_succ: Vec<Vec<bool>>,
}

/// Why a [`VcAllocSpec`] could not be constructed. Produced by
/// [`VcAllocSpec::try_new`]; static-analysis tooling (`noc check`) reports
/// these instead of aborting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// One of the `P`/`M`/`R`/`C` dimensions is zero.
    ZeroDimension {
        /// Name of the offending dimension (`ports`, `msg_classes`, ...).
        dimension: &'static str,
    },
    /// The transition relation is not `R × R`.
    TransitionShape {
        /// Rows supplied.
        rows: usize,
        /// Columns of the first short/long row, if the row count matched.
        bad_row: Option<(usize, usize)>,
        /// Expected side length (`R`).
        expected: usize,
    },
    /// A resource class has no successor, so packets holding it could
    /// never acquire a VC at the next hop.
    DeadEndClass {
        /// The successor-less resource class.
        class: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroDimension { dimension } => {
                write!(f, "spec dimension '{dimension}' must be nonzero")
            }
            SpecError::TransitionShape {
                rows,
                bad_row: Some((row, cols)),
                expected,
            } => write!(
                f,
                "rc_succ row {row} has {cols} entries, expected {expected} \
                 (relation must be {expected}x{expected}, got {rows} rows)"
            ),
            SpecError::TransitionShape { rows, expected, .. } => write!(
                f,
                "rc_succ has {rows} rows, expected {expected} \
                 (one row per resource class)"
            ),
            SpecError::DeadEndClass { class } => {
                write!(f, "resource class {class} has no successor")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl VcAllocSpec {
    /// Creates a spec with an explicit resource-class transition relation,
    /// reporting rather than panicking on invalid input: the dimensions
    /// must be nonzero, `rc_succ` must be `R × R`, and every class needs at
    /// least one successor (otherwise packets in it could never move).
    pub fn try_new(
        ports: usize,
        msg_classes: usize,
        resource_classes: usize,
        vcs_per_class: usize,
        rc_succ: Vec<Vec<bool>>,
    ) -> Result<Self, SpecError> {
        for (dimension, value) in [
            ("ports", ports),
            ("msg_classes", msg_classes),
            ("resource_classes", resource_classes),
            ("vcs_per_class", vcs_per_class),
        ] {
            if value == 0 {
                return Err(SpecError::ZeroDimension { dimension });
            }
        }
        if rc_succ.len() != resource_classes {
            return Err(SpecError::TransitionShape {
                rows: rc_succ.len(),
                bad_row: None,
                expected: resource_classes,
            });
        }
        for (from, row) in rc_succ.iter().enumerate() {
            if row.len() != resource_classes {
                return Err(SpecError::TransitionShape {
                    rows: rc_succ.len(),
                    bad_row: Some((from, row.len())),
                    expected: resource_classes,
                });
            }
            if !row.iter().any(|&b| b) {
                return Err(SpecError::DeadEndClass { class: from });
            }
        }
        Ok(VcAllocSpec {
            ports,
            msg_classes,
            resource_classes,
            vcs_per_class,
            rc_succ,
        })
    }

    /// Creates a spec with an explicit resource-class transition relation.
    ///
    /// Panicking wrapper around [`VcAllocSpec::try_new`] for call sites
    /// with statically valid configurations.
    pub fn new(
        ports: usize,
        msg_classes: usize,
        resource_classes: usize,
        vcs_per_class: usize,
        rc_succ: Vec<Vec<bool>>,
    ) -> Self {
        match Self::try_new(ports, msg_classes, resource_classes, vcs_per_class, rc_succ) {
            Ok(spec) => spec,
            Err(e) => panic!("invalid VcAllocSpec: {e}"),
        }
    }

    /// The paper's mesh design points: `M = 2` (request/reply), `R = 1`
    /// (dimension-order routing needs no resource classes), `C` VCs per
    /// class, on a `P = 5` router unless overridden.
    pub fn mesh(vcs_per_class: usize) -> Self {
        VcAllocSpec::new(5, 2, 1, vcs_per_class, vec![vec![true]])
    }

    /// The paper's flattened-butterfly design points: `M = 2`, `R = 2`
    /// (UGAL's non-minimal phase-1 class and minimal phase-2 class), `C` VCs
    /// per class, `P = 10`.
    ///
    /// Transition relation (Figure 4): non-minimal may stay non-minimal or
    /// drop to minimal (at the intermediate router); minimal must stay
    /// minimal. Class 0 is non-minimal, class 1 minimal.
    pub fn fbfly(vcs_per_class: usize) -> Self {
        VcAllocSpec::new(
            10,
            2,
            2,
            vcs_per_class,
            vec![vec![true, true], vec![false, true]],
        )
    }

    /// Torus design points (§4.2's dateline example): `M = 2`, `R = 2`
    /// (pre-/post-dateline), `C` VCs per class, `P = 5`.
    ///
    /// With dimension-order routing and a per-dimension dateline, packets
    /// move pre→post when they cross the wraparound edge and post→pre when
    /// they change dimensions, so — unlike the one-way fbfly relation —
    /// all four resource-class transitions must be supported in hardware.
    /// Sparse VC allocation then saves only the message-class split; the
    /// §4.2 resource-class restriction applies to networks whose class
    /// order is acyclic along every route (single rings, two-phase
    /// routing), not to multi-dimension datelines.
    pub fn torus(vcs_per_class: usize) -> Self {
        VcAllocSpec::new(
            5,
            2,
            2,
            vcs_per_class,
            vec![vec![true, true], vec![true, true]],
        )
    }

    /// Same class structure on a custom port count.
    pub fn with_ports(mut self, ports: usize) -> Self {
        assert!(ports > 0);
        self.ports = ports;
        self
    }

    /// Router port count `P`.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of message classes `M`.
    pub fn msg_classes(&self) -> usize {
        self.msg_classes
    }

    /// Number of resource classes `R`.
    pub fn resource_classes(&self) -> usize {
        self.resource_classes
    }

    /// VCs per class `C`.
    pub fn vcs_per_class(&self) -> usize {
        self.vcs_per_class
    }

    /// Total VCs per port, `V = M*R*C`.
    pub fn total_vcs(&self) -> usize {
        self.msg_classes * self.resource_classes * self.vcs_per_class
    }

    /// Design-point label in the paper's `MxRxC` notation, e.g. `2x2x4`.
    pub fn label(&self) -> String {
        format!(
            "{}x{}x{}",
            self.msg_classes, self.resource_classes, self.vcs_per_class
        )
    }

    /// First VC index of class `(msg, res)`.
    pub fn class_base(&self, msg: usize, res: usize) -> usize {
        assert!(msg < self.msg_classes && res < self.resource_classes);
        (msg * self.resource_classes + res) * self.vcs_per_class
    }

    /// Decomposes a VC index into `(msg, res, bank)`.
    pub fn vc_class(&self, vc: usize) -> (usize, usize, usize) {
        assert!(vc < self.total_vcs());
        let bank = vc % self.vcs_per_class;
        let cls = vc / self.vcs_per_class;
        (
            cls / self.resource_classes,
            cls % self.resource_classes,
            bank,
        )
    }

    /// True if a packet holding resource class `from` may acquire class `to`
    /// next hop.
    pub fn rc_legal(&self, from: usize, to: usize) -> bool {
        self.rc_succ[from][to]
    }

    /// Successor resource classes of `from`.
    pub fn rc_successors(&self, from: usize) -> Vec<usize> {
        (0..self.resource_classes)
            .filter(|&to| self.rc_succ[from][to])
            .collect()
    }

    /// The `V × V` VC-to-VC transition matrix of Figure 4: entry
    /// `(in_vc, out_vc)` is set iff the transition is legal (same message
    /// class, successor resource class; banks unconstrained).
    pub fn transition_matrix(&self) -> BitMatrix {
        let v = self.total_vcs();
        let mut m = BitMatrix::new(v, v);
        for iv in 0..v {
            let (im, ir, _) = self.vc_class(iv);
            for ov in 0..v {
                let (om, or, _) = self.vc_class(ov);
                if im == om && self.rc_legal(ir, or) {
                    m.set(iv, ov, true);
                }
            }
        }
        m
    }

    /// Number of legal VC-to-VC transitions (the "96 of 256" count quoted
    /// for the fbfly 2×2×4 configuration in §4.2).
    pub fn legal_transition_count(&self) -> usize {
        self.transition_matrix().count_ones()
    }
}

/// One input VC's VC-allocation request: the output port chosen by routing
/// and the candidate resource classes there (message class is implied by the
/// requesting VC — packets never change message class, §4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcRequest {
    /// Destination output port from the routing function.
    pub out_port: usize,
    /// Candidate resource classes at `out_port`; each must be a legal
    /// successor of the requesting VC's resource class. Per §4.2, requests
    /// are class-granular: a request covers *all* free VCs of the class.
    pub classes: Vec<usize>,
}

impl VcRequest {
    /// Request any free VC of one class at `out_port`.
    pub fn one_class(out_port: usize, class: usize) -> Self {
        VcRequest {
            out_port,
            classes: vec![class],
        }
    }
}

/// A granted output VC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutVc {
    /// Output port.
    pub port: usize,
    /// VC index at that port.
    pub vc: usize,
}

/// A VC allocator: matches requesting input VCs to free output VCs.
pub trait VcAllocator: Send {
    /// The class structure this allocator was built for.
    fn spec(&self) -> &VcAllocSpec;

    /// Performs one round of VC allocation.
    ///
    /// `requests[p * V + v]` is the request of input VC `v` at input port
    /// `p` (or `None` when idle); `free_out.get(p, v)` says whether output
    /// VC `v` at port `p` is currently unallocated. Returns, per input VC,
    /// the granted output VC if any.
    ///
    /// Guarantees: every grant satisfies the request (port, message class,
    /// legal class, free output VC) and no output VC is granted twice.
    fn allocate(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
    ) -> Vec<Option<OutVc>>;

    /// Allocation round writing grants into a caller-owned buffer so hot
    /// paths can reuse capacity across cycles. Must produce exactly the
    /// grants (and priority updates) of [`VcAllocator::allocate`].
    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        results.clear();
        results.extend(self.allocate(requests, free_out));
    }

    /// Restores power-on priority state.
    fn reset(&mut self);
}

fn validate_request(spec: &VcAllocSpec, in_vc_flat: usize, req: &VcRequest) {
    assert!(req.out_port < spec.ports(), "out port out of range");
    let (_, ir, _) = spec.vc_class(in_vc_flat % spec.total_vcs());
    assert!(!req.classes.is_empty(), "request with no candidate classes");
    for &rc in &req.classes {
        assert!(
            spec.rc_legal(ir, rc),
            "illegal resource-class transition {ir} -> {rc}"
        );
    }
}

/// Computes, for input VC `g`, the candidate output VCs (as a `V`-wide mask
/// over VC indices at the destination port): free output VCs in the
/// requested classes of the input VC's own message class.
fn candidate_mask(
    spec: &VcAllocSpec,
    g: usize,
    req: &VcRequest,
    free_out: &BitMatrix,
) -> noc_arbiter::Bits {
    let v = spec.total_vcs();
    let (im, _, _) = spec.vc_class(g % v);
    let mut mask = noc_arbiter::Bits::new(v);
    for &rc in &req.classes {
        let base = spec.class_base(im, rc);
        for bank in 0..spec.vcs_per_class() {
            let ov = base + bank;
            if free_out.get(req.out_port, ov) {
                mask.set(ov, true);
            }
        }
    }
    mask
}

/// [`candidate_mask`] as a kernel word over VC indices at the destination
/// port (`V <= 64`): free output VCs in the requested classes of the input
/// VC's own message class.
#[inline]
fn candidate_word(spec: &VcAllocSpec, g: usize, req: &VcRequest, free_out: &BitMatrix) -> u64 {
    let v = spec.total_vcs();
    debug_assert!(v <= 64);
    let (im, _, _) = spec.vc_class(g % v);
    let class_ones = noc_arbiter::bits::width_mask(spec.vcs_per_class());
    let mut class_bits = 0u64;
    for &rc in &req.classes {
        class_bits |= class_ones << spec.class_base(im, rc);
    }
    free_out.row(req.out_port).low_word() & class_bits
}

/// Separable VC allocator with the exact structure of Figures 3(a)/3(b).
///
/// * **Input-first** (Figure 3(a)): each input VC's `V:1` *input arbiter*
///   picks one candidate output VC at its destination port; each output
///   VC's `P*V:1` *output arbiter* (a tree arbiter in hardware) then selects
///   a winner among the input VCs that bid on it.
/// * **Output-first** (Figure 3(b)): each output VC's `P*V:1` arbiter picks
///   a winner among *all* requesting input VCs; since an input VC may win at
///   several output VCs, a final `V:1` arbitration per input VC selects the
///   granted VC.
///
/// Priority state advances only for grants that survive both stages (§2.1).
/// The input-side arbiters are `V` wide — they choose *which VC at the
/// destination port* to use — which is what makes input-first allocation
/// propagate more distinct requests into the wide second stage than
/// output-first (§4.3.2).
///
/// Implemented as a `u64` kernel over contiguous [`noc_arbiter::ArbiterBank`]
/// / [`noc_arbiter::TreeBank`] state whenever `P*V <= 64`; the boxed-arbiter
/// scalar predecessor lives in [`reference`](mod@reference) and handles wider instances.
pub struct SeparableVcAllocator {
    spec: VcAllocSpec,
    input_first: bool,
    inner: SepVcInner,
}

enum SepVcInner {
    Kernel {
        /// Per input VC (`P*V` of them): `V:1` arbiter over output-VC
        /// indices at the destination port.
        input: noc_arbiter::ArbiterBank,
        /// Per output VC (`P*V` of them): `P*V:1` *tree* arbiter over input
        /// VCs — `P` `V`-input leaves plus a `P`-input root, the structure
        /// §4.1 prescribes for these wide arbiters.
        output: noc_arbiter::TreeBank,
        /// Bid accumulator: `incoming[out_flat]` bit `g` set iff input VC
        /// `g` bids on output VC `out_flat`. All-zero between calls.
        incoming: Vec<u64>,
        /// Output-first stage-1 wins per input VC: `won[g]` bit `ov` set
        /// iff output VC `ov` at `g`'s port chose `g`. All-zero between
        /// calls.
        won: Vec<u64>,
    },
    Reference(reference::SeparableVcAllocator),
}

impl SeparableVcAllocator {
    /// Builds the Figure 3 structure with the given arbiter kind.
    pub fn new(spec: VcAllocSpec, input_first: bool, kind: noc_arbiter::ArbiterKind) -> Self {
        let v = spec.total_vcs();
        let n = spec.ports() * v;
        let inner = if n <= 64 {
            SepVcInner::Kernel {
                input: noc_arbiter::ArbiterBank::new(kind, n, v),
                output: noc_arbiter::TreeBank::new(kind, n, spec.ports(), v),
                incoming: vec![0; n],
                won: vec![0; n],
            }
        } else {
            SepVcInner::Reference(reference::SeparableVcAllocator::new(
                spec.clone(),
                input_first,
                kind,
            ))
        };
        SeparableVcAllocator {
            spec,
            input_first,
            inner,
        }
    }

    fn kernel_allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut [Option<OutVc>],
    ) {
        let SepVcInner::Kernel {
            input,
            output,
            incoming,
            won,
        } = &mut self.inner
        else {
            unreachable!()
        };
        let spec = &self.spec;
        let v = spec.total_vcs();
        let n = spec.ports() * v;

        if self.input_first {
            // Stage 1: each input VC picks one output VC at its port.
            let mut pending = 0u64; // output VCs with >= 1 bid
            for (g, req) in requests.iter().enumerate() {
                let Some(req) = req else { continue };
                validate_request(spec, g, req);
                let mask = candidate_word(spec, g, req, free_out);
                if let Some(ov) = input.arbitrate(g, mask) {
                    let out_flat = req.out_port * v + ov;
                    incoming[out_flat] |= 1 << g;
                    pending |= 1 << out_flat;
                }
            }
            // Stage 2: each bid-receiving output VC arbitrates, in the
            // same ascending out_flat order as the scalar reference's
            // sorted bid list.
            while pending != 0 {
                let out_flat = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let inc = incoming[out_flat];
                incoming[out_flat] = 0;
                if let Some(g) = output.arbitrate(out_flat, inc) {
                    results[g] = Some(OutVc {
                        port: out_flat / v,
                        vc: out_flat % v,
                    });
                    input.update(g, out_flat % v);
                    output.update(out_flat, g);
                }
            }
        } else {
            // Stage 1: each requested output VC arbitrates among all
            // requesting input VCs.
            let mut pending = 0u64; // output VCs with >= 1 bid
            for (g, req) in requests.iter().enumerate() {
                let Some(req) = req else { continue };
                validate_request(spec, g, req);
                let mut mask = candidate_word(spec, g, req, free_out);
                while mask != 0 {
                    let ov = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let out_flat = req.out_port * v + ov;
                    incoming[out_flat] |= 1 << g;
                    pending |= 1 << out_flat;
                }
            }
            let mut chosen = 0u64; // input VCs chosen by >= 1 output VC
            while pending != 0 {
                let out_flat = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let inc = incoming[out_flat];
                incoming[out_flat] = 0;
                if let Some(g) = output.arbitrate(out_flat, inc) {
                    // All of g's bids share its destination port, so the
                    // local VC index suffices.
                    won[g] |= 1 << (out_flat % v);
                    chosen |= 1 << g;
                }
            }
            // Stage 2: each chosen input VC picks among output VCs that
            // chose it (ascending g, like the scalar regrouped sweep).
            while chosen != 0 {
                let g = chosen.trailing_zeros() as usize;
                chosen &= chosen - 1;
                let wmask = won[g];
                won[g] = 0;
                // Stage-1 winners can only come from live requests.
                let Some(req) = requests[g].as_ref() else {
                    continue;
                };
                if let Some(ov) = input.arbitrate(g, wmask) {
                    let out_flat = req.out_port * v + ov;
                    results[g] = Some(OutVc {
                        port: req.out_port,
                        vc: ov,
                    });
                    input.update(g, ov);
                    output.update(out_flat, g);
                }
            }
        }
        debug_assert!(incoming.iter().all(|&w| w == 0) && won.iter().all(|&w| w == 0));
        debug_assert_eq!(results.len(), n);
    }
}

impl VcAllocator for SeparableVcAllocator {
    fn spec(&self) -> &VcAllocSpec {
        &self.spec
    }

    fn allocate(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
    ) -> Vec<Option<OutVc>> {
        let mut results = Vec::new();
        self.allocate_into(requests, free_out, &mut results);
        results
    }

    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        let n = self.spec.ports() * self.spec.total_vcs();
        assert_eq!(requests.len(), n, "one request slot per input VC");
        results.clear();
        results.resize(n, None);
        match &mut self.inner {
            SepVcInner::Kernel { .. } => self.kernel_allocate_into(requests, free_out, results),
            SepVcInner::Reference(r) => r.allocate_into(requests, free_out, results),
        }
    }

    fn reset(&mut self) {
        match &mut self.inner {
            SepVcInner::Kernel { input, output, .. } => {
                input.reset();
                output.reset();
            }
            SepVcInner::Reference(r) => r.reset(),
        }
    }
}

/// VC allocator built on a monolithic core allocator over the full
/// `P*V × P*V` request space — used for the wavefront implementation
/// (Figure 3(c)) and the maximum-size reference.
pub struct MatrixVcAllocator {
    spec: VcAllocSpec,
    inner: Box<dyn Allocator + Send>,
    /// Reusable `P*V × P*V` request matrix.
    matrix: BitMatrix,
    /// Reusable `P*V × P*V` grant matrix, filled via
    /// [`Allocator::allocate_into`] so kernel-backed cores stay zero-alloc.
    grants: BitMatrix,
}

impl MatrixVcAllocator {
    /// Wraps a core allocator architecture (meaningful for
    /// [`AllocatorKind::Wavefront`] and [`AllocatorKind::MaxSize`]).
    pub fn new(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        let n = spec.ports() * spec.total_vcs();
        MatrixVcAllocator {
            spec,
            inner: kind.build(n, n),
            matrix: BitMatrix::new(n, n),
            grants: BitMatrix::new(n, n),
        }
    }

    /// [`MatrixVcAllocator::new`] over the scalar-reference core allocator
    /// ([`AllocatorKind::build_reference`]) — for the differential tests.
    pub fn new_reference(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        let n = spec.ports() * spec.total_vcs();
        MatrixVcAllocator {
            spec,
            inner: kind.build_reference(n, n),
            matrix: BitMatrix::new(n, n),
            grants: BitMatrix::new(n, n),
        }
    }
}

impl VcAllocator for MatrixVcAllocator {
    fn spec(&self) -> &VcAllocSpec {
        &self.spec
    }

    fn allocate(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
    ) -> Vec<Option<OutVc>> {
        let mut results = Vec::new();
        self.allocate_into(requests, free_out, &mut results);
        results
    }

    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        let spec = &self.spec;
        let v = spec.total_vcs();
        let n = spec.ports() * v;
        assert_eq!(requests.len(), n, "one request slot per input VC");
        assert_eq!(free_out.num_rows(), spec.ports());
        assert_eq!(free_out.num_cols(), v);

        self.matrix.clear();
        for (g, req) in requests.iter().enumerate() {
            let Some(req) = req else { continue };
            validate_request(spec, g, req);
            let mask = candidate_mask(spec, g, req, free_out);
            for ov in mask.iter_set() {
                self.matrix.set(g, req.out_port * v + ov, true);
            }
        }
        self.inner.allocate_into(&self.matrix, &mut self.grants);
        let grants = &self.grants;
        results.clear();
        results.extend((0..n).map(|g| {
            grants.row(g).first_set().map(|col| OutVc {
                port: col / v,
                vc: col % v,
            })
        }));
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Conventional ("dense") VC allocator (§4.1): handles requests from any
/// input VC to the whole range of output VCs, with legality enforced by
/// runtime request masks. Dispatches to the Figure 3 structure appropriate
/// for the chosen core architecture.
pub struct DenseVcAllocator {
    kind: AllocatorKind,
    inner: Box<dyn VcAllocator + Send>,
}

impl DenseVcAllocator {
    /// Builds a dense VC allocator around the given core architecture.
    pub fn new(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        use noc_arbiter::ArbiterKind::{Matrix, RoundRobin};
        let inner: Box<dyn VcAllocator + Send> = match kind {
            AllocatorKind::SepIfMatrix => Box::new(SeparableVcAllocator::new(spec, true, Matrix)),
            AllocatorKind::SepIfRr => Box::new(SeparableVcAllocator::new(spec, true, RoundRobin)),
            AllocatorKind::SepOfMatrix => Box::new(SeparableVcAllocator::new(spec, false, Matrix)),
            AllocatorKind::SepOfRr => Box::new(SeparableVcAllocator::new(spec, false, RoundRobin)),
            AllocatorKind::Wavefront | AllocatorKind::MaxSize => {
                Box::new(MatrixVcAllocator::new(spec, kind))
            }
        };
        DenseVcAllocator { kind, inner }
    }

    /// [`DenseVcAllocator::new`] built entirely from scalar-reference
    /// implementations (sort-based separable stages, element-wise cores) —
    /// the oracle side of the differential test layer.
    pub fn new_reference(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        use noc_arbiter::ArbiterKind::{Matrix, RoundRobin};
        let inner: Box<dyn VcAllocator + Send> = match kind {
            AllocatorKind::SepIfMatrix => {
                Box::new(reference::SeparableVcAllocator::new(spec, true, Matrix))
            }
            AllocatorKind::SepIfRr => {
                Box::new(reference::SeparableVcAllocator::new(spec, true, RoundRobin))
            }
            AllocatorKind::SepOfMatrix => {
                Box::new(reference::SeparableVcAllocator::new(spec, false, Matrix))
            }
            AllocatorKind::SepOfRr => Box::new(reference::SeparableVcAllocator::new(
                spec, false, RoundRobin,
            )),
            AllocatorKind::Wavefront | AllocatorKind::MaxSize => {
                Box::new(MatrixVcAllocator::new_reference(spec, kind))
            }
        };
        DenseVcAllocator { kind, inner }
    }

    /// The core allocator architecture in use.
    pub fn kind(&self) -> AllocatorKind {
        self.kind
    }
}

impl VcAllocator for DenseVcAllocator {
    fn spec(&self) -> &VcAllocSpec {
        self.inner.spec()
    }

    fn allocate(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
    ) -> Vec<Option<OutVc>> {
        self.inner.allocate(requests, free_out)
    }

    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        self.inner.allocate_into(requests, free_out, results);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Sparse VC allocator (§4.2): exploits the static class structure.
///
/// Because packets never change message class, the allocator splits into `M`
/// completely independent sub-allocators, each over the `P*R*C` VCs of one
/// message class — for the wavefront implementation this is exactly the
/// replacement of the `P*V`-input block by `M` blocks of `P*V/M` inputs the
/// paper describes. (The further arbiter-width reductions from
/// resource-class transition sparsity are logic-level optimizations modeled
/// by the cost model in `noc-hw`; they do not change matching behaviour.)
pub struct SparseVcAllocator {
    spec: VcAllocSpec,
    /// Class structure of one message class, used by the sub-allocators.
    sub_spec: VcAllocSpec,
    /// One sub-allocator per message class.
    subs: Vec<DenseVcAllocator>,
    kind: AllocatorKind,
    /// Reusable per-class projection of `requests` (`P * V/M` slots); only
    /// the `touched` slots are live and must be returned to `spare` before
    /// the next projection.
    sub_reqs: Vec<Option<VcRequest>>,
    /// Indices of `sub_reqs` currently holding a projected request.
    touched: Vec<usize>,
    /// Recycled `VcRequest` values (keeps their `classes` allocations).
    spare: Vec<VcRequest>,
    /// Reusable per-class projection of `free_out`.
    sub_free: BitMatrix,
    /// Reusable sub-allocator grant buffer.
    sub_grants: Vec<Option<OutVc>>,
}

impl SparseVcAllocator {
    /// Builds a sparse VC allocator around the given core architecture.
    pub fn new(spec: VcAllocSpec, kind: AllocatorKind) -> Self {
        let sub_spec = VcAllocSpec::new(
            spec.ports(),
            1,
            spec.resource_classes(),
            spec.vcs_per_class(),
            spec.rc_succ.clone(),
        );
        let n_sub = spec.ports() * sub_spec.total_vcs();
        SparseVcAllocator {
            subs: (0..spec.msg_classes())
                .map(|_| DenseVcAllocator::new(sub_spec.clone(), kind))
                .collect(),
            sub_reqs: vec![None; n_sub],
            touched: Vec::with_capacity(n_sub),
            // Pre-primed pool: at most one projected request per sub-slot,
            // each requesting at most every resource class, so the
            // steady-state projection loop never allocates.
            spare: (0..n_sub)
                .map(|_| VcRequest {
                    out_port: 0,
                    classes: Vec::with_capacity(sub_spec.resource_classes()),
                })
                .collect(),
            sub_free: BitMatrix::new(spec.ports(), sub_spec.total_vcs()),
            sub_grants: Vec::new(),
            sub_spec,
            spec,
            kind,
        }
    }

    /// The core allocator architecture in use.
    pub fn kind(&self) -> AllocatorKind {
        self.kind
    }

    /// Width of each per-message-class sub-allocator.
    pub fn sub_width(&self) -> usize {
        self.spec.ports() * self.spec.resource_classes() * self.spec.vcs_per_class()
    }
}

impl VcAllocator for SparseVcAllocator {
    fn spec(&self) -> &VcAllocSpec {
        &self.spec
    }

    fn allocate(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
    ) -> Vec<Option<OutVc>> {
        let spec = &self.spec;
        let v = spec.total_vcs();
        let v_sub = self.sub_spec.total_vcs();
        let n = spec.ports() * v;
        assert_eq!(requests.len(), n, "one request slot per input VC");
        let mut results: Vec<Option<OutVc>> = vec![None; n];

        for (m, sub) in self.subs.iter_mut().enumerate() {
            // Project requests and availability onto message class m.
            let mut sub_reqs: Vec<Option<VcRequest>> = vec![None; spec.ports() * v_sub];
            for (g, req) in requests.iter().enumerate() {
                let Some(req) = req else { continue };
                let (im, ir, ibank) = spec.vc_class(g % v);
                if im != m {
                    continue;
                }
                validate_request(spec, g, req);
                let sub_vc = ir * spec.vcs_per_class() + ibank;
                sub_reqs[(g / v) * v_sub + sub_vc] = Some(req.clone());
            }
            let mut sub_free = BitMatrix::new(spec.ports(), v_sub);
            for p in 0..spec.ports() {
                for sv in 0..v_sub {
                    sub_free.set(p, sv, free_out.get(p, m * v_sub + sv));
                }
            }
            let sub_grants = sub.allocate(&sub_reqs, &sub_free);
            for (g, req) in requests.iter().enumerate() {
                if req.is_none() {
                    continue;
                }
                let (im, ir, ibank) = spec.vc_class(g % v);
                if im != m {
                    continue;
                }
                let sub_vc = ir * spec.vcs_per_class() + ibank;
                if let Some(grant) = sub_grants[(g / v) * v_sub + sub_vc] {
                    results[g] = Some(OutVc {
                        port: grant.port,
                        vc: m * v_sub + grant.vc,
                    });
                }
            }
        }
        results
    }

    /// Scratch-buffer fast path: identical matching behaviour to
    /// [`SparseVcAllocator::allocate`] (which is kept as the
    /// fresh-allocation reference for differential tests), but the per-class
    /// request/availability projections, recycled `VcRequest` values, and
    /// grant buffers are all reused across cycles, so steady-state operation
    /// performs no heap allocation at this level.
    fn allocate_into(
        &mut self,
        requests: &[Option<VcRequest>],
        free_out: &BitMatrix,
        results: &mut Vec<Option<OutVc>>,
    ) {
        let SparseVcAllocator {
            spec,
            sub_spec,
            subs,
            kind: _,
            sub_reqs,
            touched,
            spare,
            sub_free,
            sub_grants,
        } = self;
        let v = spec.total_vcs();
        let v_sub = sub_spec.total_vcs();
        let n = spec.ports() * v;
        assert_eq!(requests.len(), n, "one request slot per input VC");
        results.clear();
        results.resize(n, None);

        for (m, sub) in subs.iter_mut().enumerate() {
            // Project requests and availability onto message class m,
            // recycling the request slots populated for the previous class.
            for &i in touched.iter() {
                if let Some(r) = sub_reqs[i].take() {
                    spare.push(r);
                }
            }
            touched.clear();
            for (g, req) in requests.iter().enumerate() {
                let Some(req) = req else { continue };
                let (im, ir, ibank) = spec.vc_class(g % v);
                if im != m {
                    continue;
                }
                validate_request(spec, g, req);
                let sub_vc = ir * spec.vcs_per_class() + ibank;
                let idx = (g / v) * v_sub + sub_vc;
                let mut slot = spare.pop().unwrap_or_else(|| VcRequest {
                    out_port: 0,
                    classes: Vec::new(),
                });
                slot.out_port = req.out_port;
                slot.classes.clear();
                slot.classes.extend_from_slice(&req.classes);
                sub_reqs[idx] = Some(slot);
                touched.push(idx);
            }
            sub_free.clear();
            for p in 0..spec.ports() {
                for sv in 0..v_sub {
                    if free_out.get(p, m * v_sub + sv) {
                        sub_free.set(p, sv, true);
                    }
                }
            }
            sub.allocate_into(sub_reqs, sub_free, sub_grants);
            for (g, req) in requests.iter().enumerate() {
                if req.is_none() {
                    continue;
                }
                let (im, ir, ibank) = spec.vc_class(g % v);
                if im != m {
                    continue;
                }
                let sub_vc = ir * spec.vcs_per_class() + ibank;
                if let Some(grant) = sub_grants[(g / v) * v_sub + sub_vc] {
                    results[g] = Some(OutVc {
                        port: grant.port,
                        vc: m * v_sub + grant.vc,
                    });
                }
            }
        }
        // Return the final class's projections to the spare pool so stale
        // requests can never leak into the next allocation round.
        for &i in touched.iter() {
            if let Some(r) = sub_reqs[i].take() {
                spare.push(r);
            }
        }
        touched.clear();
    }

    fn reset(&mut self) {
        for s in &mut self.subs {
            s.reset();
        }
    }
}

/// Scalar predecessors of the bit-parallel VC-allocation kernels, kept
/// alive as differential-testing oracles (and as the wide-instance
/// fallback when `P*V > 64`). Element-wise `Bits` masks and sort-based
/// bid grouping instead of `u64` words and ctz sweeps.
pub mod reference {
    use super::{
        candidate_mask, validate_request, BitMatrix, OutVc, VcAllocSpec, VcAllocator, VcRequest,
    };

    /// Scalar separable VC allocator: boxed per-arbiter state and a sorted
    /// `(out_flat, g)` bid edge list where the kernel uses
    /// [`noc_arbiter::ArbiterBank`] words and a pending mask. Grant- and
    /// priority-identical to the kernel by construction: the sorted group
    /// sweep visits output VCs in ascending `out_flat` order, exactly the
    /// kernel's ctz pop order over its pending mask.
    pub struct SeparableVcAllocator {
        spec: VcAllocSpec,
        input_first: bool,
        /// Per input VC (`P*V`): `V:1` arbiter over output-VC indices at the
        /// destination port.
        input_arbs: Vec<Box<dyn noc_arbiter::Arbiter + Send>>,
        /// Per output VC (`P*V`): `P*V:1` *tree* arbiter over input VCs.
        output_arbs: Vec<Box<dyn noc_arbiter::Arbiter + Send>>,
        /// Reusable stage-1 bid edge list `(out_flat, g)`.
        bids: Vec<(usize, usize)>,
        /// Reusable output-first stage-1 winner list and its per-input
        /// regroup.
        stage1: Vec<(usize, usize)>,
        by_input: Vec<(usize, usize)>,
    }

    impl SeparableVcAllocator {
        /// Builds the Figure 3 structure with the given arbiter kind.
        pub fn new(spec: VcAllocSpec, input_first: bool, kind: noc_arbiter::ArbiterKind) -> Self {
            let v = spec.total_vcs();
            let n = spec.ports() * v;
            SeparableVcAllocator {
                input_first,
                input_arbs: (0..n).map(|_| kind.build(v)).collect(),
                output_arbs: (0..n)
                    .map(|_| {
                        Box::new(noc_arbiter::TreeArbiter::new(spec.ports(), v, kind))
                            as Box<dyn noc_arbiter::Arbiter + Send>
                    })
                    .collect(),
                spec,
                // One bid per input VC at most, so pre-sizing to `n` keeps
                // the per-cycle scratch lists allocation-free.
                bids: Vec::with_capacity(n),
                stage1: Vec::with_capacity(n),
                by_input: Vec::with_capacity(n),
            }
        }
    }

    impl VcAllocator for SeparableVcAllocator {
        fn spec(&self) -> &VcAllocSpec {
            &self.spec
        }

        fn allocate(
            &mut self,
            requests: &[Option<VcRequest>],
            free_out: &BitMatrix,
        ) -> Vec<Option<OutVc>> {
            let mut results = Vec::new();
            self.allocate_into(requests, free_out, &mut results);
            results
        }

        fn allocate_into(
            &mut self,
            requests: &[Option<VcRequest>],
            free_out: &BitMatrix,
            results: &mut Vec<Option<OutVc>>,
        ) {
            // Split borrows so the arbiters can be driven mutably while the
            // spec and scratch buffers are read.
            let SeparableVcAllocator {
                spec,
                input_first,
                input_arbs,
                output_arbs,
                bids,
                stage1,
                by_input,
            } = self;
            let v = spec.total_vcs();
            let n = spec.ports() * v;
            assert_eq!(requests.len(), n, "one request slot per input VC");
            results.clear();
            results.resize(n, None);

            // Sparse edge list `(out_flat, g)` of stage-1 bids — iterating
            // only requested outputs keeps work O(requests).
            bids.clear();

            if *input_first {
                // Stage 1: each input VC picks one output VC at its port.
                for (g, req) in requests.iter().enumerate() {
                    let Some(req) = req else { continue };
                    validate_request(spec, g, req);
                    let mask = candidate_mask(spec, g, req, free_out);
                    if let Some(ov) = input_arbs[g].arbitrate(&mask) {
                        bids.push((req.out_port * v + ov, g));
                    }
                }
                // Stage 2: each bid-receiving output VC arbitrates.
                bids.sort_unstable();
                let mut i = 0;
                while i < bids.len() {
                    let out_flat = bids[i].0;
                    let mut incoming = noc_arbiter::Bits::new(n);
                    let mut j = i;
                    while j < bids.len() && bids[j].0 == out_flat {
                        incoming.set(bids[j].1, true);
                        j += 1;
                    }
                    i = j;
                    if let Some(g) = output_arbs[out_flat].arbitrate(&incoming) {
                        results[g] = Some(OutVc {
                            port: out_flat / v,
                            vc: out_flat % v,
                        });
                        input_arbs[g].update(out_flat % v);
                        output_arbs[out_flat].update(g);
                    }
                }
            } else {
                // Stage 1: each requested output VC arbitrates among all
                // requesting input VCs.
                for (g, req) in requests.iter().enumerate() {
                    let Some(req) = req else { continue };
                    validate_request(spec, g, req);
                    let mask = candidate_mask(spec, g, req, free_out);
                    for ov in mask.iter_set() {
                        bids.push((req.out_port * v + ov, g));
                    }
                }
                bids.sort_unstable();
                stage1.clear(); // (out_flat, winner g)
                let mut i = 0;
                while i < bids.len() {
                    let out_flat = bids[i].0;
                    let mut incoming = noc_arbiter::Bits::new(n);
                    let mut j = i;
                    while j < bids.len() && bids[j].0 == out_flat {
                        incoming.set(bids[j].1, true);
                        j += 1;
                    }
                    i = j;
                    if let Some(g) = output_arbs[out_flat].arbitrate(&incoming) {
                        stage1.push((out_flat, g));
                    }
                }
                // Stage 2: each input VC picks among output VCs that chose
                // it.
                by_input.clear();
                by_input.extend(stage1.iter().map(|&(out_flat, g)| (g, out_flat)));
                by_input.sort_unstable();
                let mut i = 0;
                while i < by_input.len() {
                    let g = by_input[i].0;
                    let mut j = i;
                    while j < by_input.len() && by_input[j].0 == g {
                        j += 1;
                    }
                    // Stage-1 winners can only come from live requests.
                    let Some(req) = requests[g].as_ref() else {
                        i = j;
                        continue;
                    };
                    let mut won = noc_arbiter::Bits::new(v);
                    for k in i..j {
                        debug_assert_eq!(by_input[k].1 / v, req.out_port);
                        won.set(by_input[k].1 % v, true);
                    }
                    i = j;
                    if let Some(ov) = input_arbs[g].arbitrate(&won) {
                        let out_flat = req.out_port * v + ov;
                        results[g] = Some(OutVc {
                            port: req.out_port,
                            vc: ov,
                        });
                        input_arbs[g].update(ov);
                        output_arbs[out_flat].update(g);
                    }
                }
            }
        }

        fn reset(&mut self) {
            for a in self.input_arbs.iter_mut().chain(&mut self.output_arbs) {
                a.reset();
            }
        }
    }
}

/// Checks that a VC-allocation result is valid for the given requests and
/// availability — used by tests and debug assertions throughout the
/// workspace.
pub fn validate_vc_grants(
    spec: &VcAllocSpec,
    requests: &[Option<VcRequest>],
    free_out: &BitMatrix,
    grants: &[Option<OutVc>],
) -> Result<(), String> {
    let v = spec.total_vcs();
    // Runs per cycle under debug assertions; `Bits` keeps the dedup set
    // inline (no allocation) for realistic port/VC counts.
    let mut used = noc_arbiter::Bits::new(free_out.num_rows() * v);
    for (g, grant) in grants.iter().enumerate() {
        let Some(grant) = grant else { continue };
        let req = requests[g]
            .as_ref()
            .ok_or_else(|| format!("grant to idle input VC {g}"))?;
        if grant.port != req.out_port {
            return Err(format!("input VC {g}: granted wrong port"));
        }
        let (im, _, _) = spec.vc_class(g % v);
        let (om, or, _) = spec.vc_class(grant.vc);
        if om != im {
            return Err(format!("input VC {g}: message class changed"));
        }
        if !req.classes.contains(&or) {
            return Err(format!("input VC {g}: granted unrequested class {or}"));
        }
        if !free_out.get(grant.port, grant.vc) {
            return Err(format!("input VC {g}: granted busy output VC"));
        }
        let slot = grant.port * v + grant.vc;
        if used.get(slot) {
            return Err(format!(
                "output VC {}:{} granted twice",
                grant.port, grant.vc
            ));
        }
        used.set(slot, true);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn try_new_reports_descriptive_errors() {
        let ok = VcAllocSpec::try_new(5, 2, 1, 2, vec![vec![true]]);
        assert!(ok.is_ok());
        let e = VcAllocSpec::try_new(0, 2, 1, 2, vec![vec![true]]).unwrap_err();
        assert_eq!(e, SpecError::ZeroDimension { dimension: "ports" });
        assert!(e.to_string().contains("ports"));
        let e = VcAllocSpec::try_new(5, 2, 2, 2, vec![vec![true, true]]).unwrap_err();
        assert!(matches!(e, SpecError::TransitionShape { rows: 1, .. }));
        let e = VcAllocSpec::try_new(5, 2, 2, 2, vec![vec![true], vec![true, true]]).unwrap_err();
        assert!(
            matches!(
                e,
                SpecError::TransitionShape {
                    bad_row: Some((0, 1)),
                    ..
                }
            ),
            "{e}"
        );
        let e = VcAllocSpec::try_new(5, 2, 2, 2, vec![vec![true, true], vec![false, false]])
            .unwrap_err();
        assert_eq!(e, SpecError::DeadEndClass { class: 1 });
        assert_eq!(e.to_string(), "resource class 1 has no successor");
    }

    #[test]
    #[should_panic(expected = "resource class 0 has no successor")]
    fn new_panics_with_descriptive_message() {
        VcAllocSpec::new(5, 1, 1, 1, vec![vec![false]]);
    }

    #[test]
    fn spec_arithmetic() {
        let s = VcAllocSpec::fbfly(4);
        assert_eq!(s.total_vcs(), 16);
        assert_eq!(s.label(), "2x2x4");
        assert_eq!(s.class_base(0, 0), 0);
        assert_eq!(s.class_base(0, 1), 4);
        assert_eq!(s.class_base(1, 0), 8);
        assert_eq!(s.class_base(1, 1), 12);
        assert_eq!(s.vc_class(0), (0, 0, 0));
        assert_eq!(s.vc_class(7), (0, 1, 3));
        assert_eq!(s.vc_class(15), (1, 1, 3));
    }

    #[test]
    fn fig4_transition_count_is_96_of_256() {
        // §4.2: "only 96 of the 256 total possible VC-to-VC transitions are
        // actually legal" for fbfly with 2×2×4 VCs.
        let s = VcAllocSpec::fbfly(4);
        assert_eq!(s.total_vcs() * s.total_vcs(), 256);
        assert_eq!(s.legal_transition_count(), 96);
    }

    #[test]
    fn fig4_successor_bound() {
        // "any given VC is restricted to at most eight possible successor
        // and predecessor VCs, all confined to the same matrix quadrant".
        let s = VcAllocSpec::fbfly(4);
        let t = s.transition_matrix();
        for iv in 0..16 {
            assert!(t.row(iv).count_ones() <= 8, "vc {iv}");
            assert!(t.col(iv).count_ones() <= 8, "vc {iv}");
            let (im, _, _) = s.vc_class(iv);
            for ov in t.row(iv).iter_set() {
                let (om, _, _) = s.vc_class(ov);
                assert_eq!(im, om, "crossed quadrant");
            }
        }
    }

    #[test]
    fn mesh_transitions_stay_within_message_class() {
        let s = VcAllocSpec::mesh(2);
        // V=4; each message class block is 2x2, all legal within it.
        assert_eq!(s.legal_transition_count(), 8);
    }

    fn random_workload(
        spec: &VcAllocSpec,
        rng: &mut impl Rng,
        rate: f64,
    ) -> (Vec<Option<VcRequest>>, BitMatrix) {
        let v = spec.total_vcs();
        let n = spec.ports() * v;
        let reqs = (0..n)
            .map(|g| {
                if rng.gen_bool(rate) {
                    // Routing picks a single successor class per request
                    // (min vs non-minimal is a routing decision, not an
                    // allocation choice).
                    let (_, ir, _) = spec.vc_class(g % v);
                    let succ = spec.rc_successors(ir);
                    let class = succ[rng.gen_range(0..succ.len())];
                    Some(VcRequest::one_class(rng.gen_range(0..spec.ports()), class))
                } else {
                    None
                }
            })
            .collect();
        let mut free = BitMatrix::new(spec.ports(), v);
        for p in 0..spec.ports() {
            for ov in 0..v {
                if rng.gen_bool(0.8) {
                    free.set(p, ov, true);
                }
            }
        }
        (reqs, free)
    }

    #[test]
    fn dense_grants_are_valid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for spec in [VcAllocSpec::mesh(2), VcAllocSpec::fbfly(2)] {
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let mut a = DenseVcAllocator::new(spec.clone(), kind);
                for _ in 0..30 {
                    let (reqs, free) = random_workload(&spec, &mut rng, 0.5);
                    let grants = a.allocate(&reqs, &free);
                    validate_vc_grants(&spec, &reqs, &free, &grants).unwrap();
                }
            }
        }
    }

    #[test]
    fn sparse_grants_are_valid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for spec in [VcAllocSpec::mesh(2), VcAllocSpec::fbfly(2)] {
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let mut a = SparseVcAllocator::new(spec.clone(), kind);
                for _ in 0..30 {
                    let (reqs, free) = random_workload(&spec, &mut rng, 0.5);
                    let grants = a.allocate(&reqs, &free);
                    validate_vc_grants(&spec, &reqs, &free, &grants).unwrap();
                }
            }
        }
    }

    #[test]
    fn sparse_and_dense_grant_counts_match_for_wavefront_per_class() {
        // For C=1 both must produce maximum matchings (§4.3.2), so counts
        // agree exactly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let spec = VcAllocSpec::fbfly(1);
        let mut dense = DenseVcAllocator::new(spec.clone(), AllocatorKind::MaxSize);
        let mut sparse = SparseVcAllocator::new(spec.clone(), AllocatorKind::MaxSize);
        for _ in 0..50 {
            let (reqs, free) = random_workload(&spec, &mut rng, 0.6);
            let gd: usize = dense
                .allocate(&reqs, &free)
                .iter()
                .filter(|g| g.is_some())
                .count();
            let gs: usize = sparse
                .allocate(&reqs, &free)
                .iter()
                .filter(|g| g.is_some())
                .count();
            assert_eq!(gd, gs);
        }
    }

    #[test]
    fn single_vc_per_class_all_allocators_maximum() {
        // §4.3.2: with one VC per class, all three implementations have
        // matching quality 1 — check grant counts equal MaxSize's.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for spec in [VcAllocSpec::mesh(1), VcAllocSpec::fbfly(1)] {
            let mut reference = DenseVcAllocator::new(spec.clone(), AllocatorKind::MaxSize);
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let mut dense = DenseVcAllocator::new(spec.clone(), kind);
                let mut sparse = SparseVcAllocator::new(spec.clone(), kind);
                for _ in 0..25 {
                    let (reqs, free) = random_workload(&spec, &mut rng, 0.7);
                    let gmax = reference
                        .allocate(&reqs, &free)
                        .iter()
                        .filter(|g| g.is_some())
                        .count();
                    for (label, grants) in [
                        ("dense", dense.allocate(&reqs, &free)),
                        ("sparse", sparse.allocate(&reqs, &free)),
                    ] {
                        let got = grants.iter().filter(|g| g.is_some()).count();
                        assert_eq!(got, gmax, "{kind:?} {label} {}", spec.label());
                    }
                }
            }
        }
    }

    #[test]
    fn busy_output_vcs_never_granted() {
        let spec = VcAllocSpec::mesh(2);
        let v = spec.total_vcs();
        let mut a = DenseVcAllocator::new(spec.clone(), AllocatorKind::Wavefront);
        let mut reqs: Vec<Option<VcRequest>> = vec![None; spec.ports() * v];
        reqs[0] = Some(VcRequest::one_class(1, 0));
        // All output VCs busy -> no grant possible.
        let free = BitMatrix::new(spec.ports(), v);
        let grants = a.allocate(&reqs, &free);
        assert!(grants.iter().all(|g| g.is_none()));
    }

    #[test]
    #[should_panic(expected = "illegal resource-class transition")]
    fn illegal_class_transition_rejected() {
        let spec = VcAllocSpec::fbfly(1);
        let v = spec.total_vcs();
        let mut a = SparseVcAllocator::new(spec.clone(), AllocatorKind::SepIfRr);
        let mut reqs: Vec<Option<VcRequest>> = vec![None; spec.ports() * v];
        // Input VC 1 is (msg 0, res 1 = minimal); requesting non-minimal
        // (class 0) is illegal.
        reqs[1] = Some(VcRequest::one_class(0, 0));
        let free = BitMatrix::new(spec.ports(), v);
        a.allocate(&reqs, &free);
    }
}
