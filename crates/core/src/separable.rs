//! Separable input-first and output-first allocators (§2.1).
//!
//! Both allocators are implemented twice: a `u64` mask-and-ctz kernel over
//! [`ArbiterBank`] state (the fast path whenever both dimensions fit the
//! 64-bit kernel word) and the element-wise scalar predecessor in
//! [`reference`](mod@reference), which also serves as the fallback for wider instances.
//! The differential test layer drives the two on identical request streams
//! and asserts grant-identical behaviour, including priority state across
//! multi-round sequences.

use crate::{Allocator, BitMatrix};
use noc_arbiter::bits::width_mask;
use noc_arbiter::{ArbiterBank, ArbiterKind};

/// Separable input-first allocator (`sep_if`, Figure 1(a)).
///
/// Stage 1: each requester's *input arbiter* picks one resource among those
/// it requests. Stage 2: each resource's *output arbiter* picks one winner
/// among the requesters whose stage-1 choice landed on it. A grant is issued
/// where both stages agree.
///
/// Priority state in either stage advances only for grants that succeed in
/// *both* stages (the iSLIP rule from §2.1), which prevents traffic-pattern-
/// dependent starvation.
pub struct SeparableInputFirst {
    requesters: usize,
    resources: usize,
    /// Number of decoupled stage-1/stage-2 passes; 1 is the single-cycle
    /// configuration the paper evaluates, >1 models iterative refinement
    /// (mentioned and rejected for NoCs in §2.1 — kept here for ablations).
    iterations: usize,
    inner: SepIfInner,
}

enum SepIfInner {
    Kernel {
        /// One `resources`-wide arbiter per requester.
        input: ArbiterBank,
        /// One `requesters`-wide arbiter per resource.
        output: ArbiterBank,
        /// Stage-1 pick accumulator: `incoming[c]` bit `r` set iff requester
        /// `r` chose resource `c`. All-zero between calls (stage 2 clears
        /// exactly the slots stage 1 set), so steady state never allocates.
        incoming: Vec<u64>,
    },
    Reference(reference::SeparableInputFirst),
}

impl SeparableInputFirst {
    /// Single-iteration separable input-first allocator.
    pub fn new(requesters: usize, resources: usize, kind: ArbiterKind) -> Self {
        Self::with_iterations(requesters, resources, kind, 1)
    }

    /// Multi-iteration variant: after each pass, matched rows and columns
    /// are removed and the stages re-run on the residual requests.
    pub fn with_iterations(
        requesters: usize,
        resources: usize,
        kind: ArbiterKind,
        iterations: usize,
    ) -> Self {
        assert!(iterations >= 1);
        assert!(requesters > 0 && resources > 0);
        let inner = if requesters <= 64 && resources <= 64 {
            SepIfInner::Kernel {
                input: ArbiterBank::new(kind, requesters, resources),
                output: ArbiterBank::new(kind, resources, requesters),
                incoming: vec![0; resources],
            }
        } else {
            SepIfInner::Reference(reference::SeparableInputFirst::with_iterations(
                requesters, resources, kind, iterations,
            ))
        };
        SeparableInputFirst {
            requesters,
            resources,
            iterations,
            inner,
        }
    }

    fn kernel_allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix) {
        let SepIfInner::Kernel {
            input,
            output,
            incoming,
        } = &mut self.inner
        else {
            unreachable!()
        };
        let (nr, nc) = (self.requesters, self.resources);
        let mut row_free = width_mask(nr);
        let mut col_free = width_mask(nc);
        for _ in 0..self.iterations {
            // Stage 1: each free requester picks one free resource.
            let mut pending = 0u64; // columns with at least one incoming pick
            let mut rf = row_free;
            while rf != 0 {
                let r = rf.trailing_zeros() as usize;
                rf &= rf - 1;
                let reqs = requests.row(r).low_word() & col_free;
                if let Some(c) = input.arbitrate(r, reqs) {
                    incoming[c] |= 1 << r;
                    pending |= 1 << c;
                }
            }
            // Stage 2: each resource arbitrates among incoming stage-1
            // picks. Popping `pending` in ctz order visits exactly the
            // free columns with contenders, in the same ascending order
            // as the scalar reference's free-column sweep.
            let mut any = false;
            while pending != 0 {
                let c = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let inc = incoming[c];
                incoming[c] = 0;
                if let Some(w) = output.arbitrate(c, inc) {
                    grants.set(w, c, true);
                    row_free &= !(1u64 << w);
                    col_free &= !(1u64 << c);
                    // Both stages succeeded: commit priority updates.
                    input.update(w, c);
                    output.update(c, w);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }
}

impl Allocator for SeparableInputFirst {
    fn num_requesters(&self) -> usize {
        self.requesters
    }

    fn num_resources(&self) -> usize {
        self.resources
    }

    fn allocate(&mut self, requests: &BitMatrix) -> BitMatrix {
        let mut grants = BitMatrix::new(self.requesters, self.resources);
        self.allocate_into(requests, &mut grants);
        grants
    }

    fn allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix) {
        assert_eq!(requests.num_rows(), self.requesters);
        assert_eq!(requests.num_cols(), self.resources);
        assert_eq!(grants.num_rows(), self.requesters);
        assert_eq!(grants.num_cols(), self.resources);
        grants.clear();
        match &mut self.inner {
            SepIfInner::Kernel { .. } => self.kernel_allocate_into(requests, grants),
            SepIfInner::Reference(r) => r.allocate_into(requests, grants),
        }
    }

    fn reset(&mut self) {
        match &mut self.inner {
            SepIfInner::Kernel { input, output, .. } => {
                input.reset();
                output.reset();
            }
            SepIfInner::Reference(r) => r.reset(),
        }
    }
}

/// Separable output-first allocator (`sep_of`, Figure 1(b)).
///
/// Stage 1: every requester eagerly forwards *all* its requests; each
/// resource's arbiter picks one requester among all incoming requests.
/// Stage 2: each requester that won at one or more resources picks a single
/// one with its input arbiter. Priority updates again apply only to grants
/// surviving both stages.
pub struct SeparableOutputFirst {
    requesters: usize,
    resources: usize,
    iterations: usize,
    inner: SepOfInner,
}

enum SepOfInner {
    Kernel {
        /// One `requesters`-wide arbiter per resource.
        output: ArbiterBank,
        /// One `resources`-wide arbiter per requester.
        input: ArbiterBank,
        /// Column scatter scratch: `colw[c]` bit `r` set iff free requester
        /// `r` requests resource `c`. All-zero between calls.
        colw: Vec<u64>,
        /// Stage-1 win accumulator: `won[r]` bit `c` set iff resource `c`
        /// chose requester `r`. All-zero between calls.
        won: Vec<u64>,
    },
    Reference(reference::SeparableOutputFirst),
}

impl SeparableOutputFirst {
    /// Single-iteration separable output-first allocator.
    pub fn new(requesters: usize, resources: usize, kind: ArbiterKind) -> Self {
        Self::with_iterations(requesters, resources, kind, 1)
    }

    /// Multi-iteration variant (see [`SeparableInputFirst::with_iterations`]).
    pub fn with_iterations(
        requesters: usize,
        resources: usize,
        kind: ArbiterKind,
        iterations: usize,
    ) -> Self {
        assert!(iterations >= 1);
        assert!(requesters > 0 && resources > 0);
        let inner = if requesters <= 64 && resources <= 64 {
            SepOfInner::Kernel {
                output: ArbiterBank::new(kind, resources, requesters),
                input: ArbiterBank::new(kind, requesters, resources),
                colw: vec![0; resources],
                won: vec![0; requesters],
            }
        } else {
            SepOfInner::Reference(reference::SeparableOutputFirst::with_iterations(
                requesters, resources, kind, iterations,
            ))
        };
        SeparableOutputFirst {
            requesters,
            resources,
            iterations,
            inner,
        }
    }

    fn kernel_allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix) {
        let SepOfInner::Kernel {
            output,
            input,
            colw,
            won,
        } = &mut self.inner
        else {
            unreachable!()
        };
        let (nr, nc) = (self.requesters, self.resources);
        let mut row_free = width_mask(nr);
        let mut col_free = width_mask(nc);
        for _ in 0..self.iterations {
            // Scatter the free rows into column words (a bit transpose of
            // the residual request matrix).
            let mut active = 0u64; // columns with at least one request
            let mut rf = row_free;
            while rf != 0 {
                let r = rf.trailing_zeros() as usize;
                rf &= rf - 1;
                let mut w = requests.row(r).low_word();
                while w != 0 {
                    let c = w.trailing_zeros() as usize;
                    w &= w - 1;
                    colw[c] |= 1 << r;
                    active |= 1 << c;
                }
            }
            // Stage 1: arbitration at each free resource over free
            // requesters. Columns outside `col_free` still have their
            // scratch cleared so the all-zero invariant holds.
            let mut pending = 0u64; // requesters chosen by >= 1 resource
            while active != 0 {
                let c = active.trailing_zeros() as usize;
                active &= active - 1;
                let inc = colw[c];
                colw[c] = 0;
                if col_free >> c & 1 != 0 {
                    if let Some(w) = output.arbitrate(c, inc) {
                        won[w] |= 1 << c;
                        pending |= 1 << w;
                    }
                }
            }
            // Stage 2: each chosen requester picks among resources that
            // chose it, ascending like the scalar free-row sweep.
            let mut any = false;
            while pending != 0 {
                let r = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let wmask = won[r];
                won[r] = 0;
                if let Some(c) = input.arbitrate(r, wmask) {
                    grants.set(r, c, true);
                    row_free &= !(1u64 << r);
                    col_free &= !(1u64 << c);
                    output.update(c, r);
                    input.update(r, c);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }
}

impl Allocator for SeparableOutputFirst {
    fn num_requesters(&self) -> usize {
        self.requesters
    }

    fn num_resources(&self) -> usize {
        self.resources
    }

    fn allocate(&mut self, requests: &BitMatrix) -> BitMatrix {
        let mut grants = BitMatrix::new(self.requesters, self.resources);
        self.allocate_into(requests, &mut grants);
        grants
    }

    fn allocate_into(&mut self, requests: &BitMatrix, grants: &mut BitMatrix) {
        assert_eq!(requests.num_rows(), self.requesters);
        assert_eq!(requests.num_cols(), self.resources);
        assert_eq!(grants.num_rows(), self.requesters);
        assert_eq!(grants.num_cols(), self.resources);
        grants.clear();
        match &mut self.inner {
            SepOfInner::Kernel { .. } => self.kernel_allocate_into(requests, grants),
            SepOfInner::Reference(r) => r.allocate_into(requests, grants),
        }
    }

    fn reset(&mut self) {
        match &mut self.inner {
            SepOfInner::Kernel { output, input, .. } => {
                output.reset();
                input.reset();
            }
            SepOfInner::Reference(r) => r.reset(),
        }
    }
}

/// The scalar predecessors of the separable kernels: one boxed [`Arbiter`](noc_arbiter::Arbiter)
/// per port, element-wise stage sweeps. Kept alive for differential testing
/// and as the fallback for instances wider than the 64-bit kernel word.
pub mod reference {
    use crate::{Allocator, BitMatrix};
    use noc_arbiter::{Arbiter, ArbiterKind, Bits};

    /// Scalar separable input-first allocator (`sep_if`).
    pub struct SeparableInputFirst {
        input_arbs: Vec<Box<dyn Arbiter + Send>>,
        output_arbs: Vec<Box<dyn Arbiter + Send>>,
        iterations: usize,
    }

    impl SeparableInputFirst {
        /// Scalar counterpart of [`super::SeparableInputFirst::new`].
        pub fn new(requesters: usize, resources: usize, kind: ArbiterKind) -> Self {
            Self::with_iterations(requesters, resources, kind, 1)
        }

        /// Scalar counterpart of
        /// [`super::SeparableInputFirst::with_iterations`].
        pub fn with_iterations(
            requesters: usize,
            resources: usize,
            kind: ArbiterKind,
            iterations: usize,
        ) -> Self {
            assert!(iterations >= 1);
            SeparableInputFirst {
                input_arbs: (0..requesters).map(|_| kind.build(resources)).collect(),
                output_arbs: (0..resources).map(|_| kind.build(requesters)).collect(),
                iterations,
            }
        }
    }

    impl Allocator for SeparableInputFirst {
        fn num_requesters(&self) -> usize {
            self.input_arbs.len()
        }

        fn num_resources(&self) -> usize {
            self.output_arbs.len()
        }

        fn allocate(&mut self, requests: &BitMatrix) -> BitMatrix {
            assert_eq!(requests.num_rows(), self.num_requesters());
            assert_eq!(requests.num_cols(), self.num_resources());
            let (nr, nc) = (self.num_requesters(), self.num_resources());
            let mut grants = BitMatrix::new(nr, nc);
            let mut row_free = Bits::ones(nr);
            let mut col_free = Bits::ones(nc);

            for _ in 0..self.iterations {
                // Stage 1: each free requester picks one free resource.
                let mut choice: Vec<Option<usize>> = vec![None; nr];
                for r in row_free.iter_set() {
                    let mut reqs = requests.row(r).clone();
                    reqs.intersect_with(&col_free);
                    choice[r] = self.input_arbs[r].arbitrate(&reqs);
                }
                // Stage 2: each resource arbitrates among incoming picks.
                let mut any = false;
                for c in col_free.clone().iter_set() {
                    let mut incoming = Bits::new(nr);
                    for r in 0..nr {
                        if choice[r] == Some(c) {
                            incoming.set(r, true);
                        }
                    }
                    if let Some(w) = self.output_arbs[c].arbitrate(&incoming) {
                        grants.set(w, c, true);
                        row_free.set(w, false);
                        col_free.set(c, false);
                        // Both stages succeeded: commit priority updates.
                        self.input_arbs[w].update(c);
                        self.output_arbs[c].update(w);
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }
            grants
        }

        fn reset(&mut self) {
            for a in &mut self.input_arbs {
                a.reset();
            }
            for a in &mut self.output_arbs {
                a.reset();
            }
        }
    }

    /// Scalar separable output-first allocator (`sep_of`).
    pub struct SeparableOutputFirst {
        output_arbs: Vec<Box<dyn Arbiter + Send>>,
        input_arbs: Vec<Box<dyn Arbiter + Send>>,
        iterations: usize,
    }

    impl SeparableOutputFirst {
        /// Scalar counterpart of [`super::SeparableOutputFirst::new`].
        pub fn new(requesters: usize, resources: usize, kind: ArbiterKind) -> Self {
            Self::with_iterations(requesters, resources, kind, 1)
        }

        /// Scalar counterpart of
        /// [`super::SeparableOutputFirst::with_iterations`].
        pub fn with_iterations(
            requesters: usize,
            resources: usize,
            kind: ArbiterKind,
            iterations: usize,
        ) -> Self {
            assert!(iterations >= 1);
            SeparableOutputFirst {
                output_arbs: (0..resources).map(|_| kind.build(requesters)).collect(),
                input_arbs: (0..requesters).map(|_| kind.build(resources)).collect(),
                iterations,
            }
        }
    }

    impl Allocator for SeparableOutputFirst {
        fn num_requesters(&self) -> usize {
            self.input_arbs.len()
        }

        fn num_resources(&self) -> usize {
            self.output_arbs.len()
        }

        fn allocate(&mut self, requests: &BitMatrix) -> BitMatrix {
            assert_eq!(requests.num_rows(), self.num_requesters());
            assert_eq!(requests.num_cols(), self.num_resources());
            let (nr, nc) = (self.num_requesters(), self.num_resources());
            let mut grants = BitMatrix::new(nr, nc);
            let mut row_free = Bits::ones(nr);
            let mut col_free = Bits::ones(nc);

            for _ in 0..self.iterations {
                // Stage 1: arbitration at each free resource over free
                // requesters.
                let mut stage1: Vec<Option<usize>> = vec![None; nc];
                for c in col_free.iter_set() {
                    let mut incoming = requests.col(c);
                    incoming.intersect_with(&row_free);
                    stage1[c] = self.output_arbs[c].arbitrate(&incoming);
                }
                // Stage 2: each requester picks among resources that chose
                // it.
                let mut any = false;
                for r in row_free.clone().iter_set() {
                    let mut won = Bits::new(nc);
                    for c in 0..nc {
                        if stage1[c] == Some(r) {
                            won.set(c, true);
                        }
                    }
                    if let Some(c) = self.input_arbs[r].arbitrate(&won) {
                        grants.set(r, c, true);
                        row_free.set(r, false);
                        col_free.set(c, false);
                        self.output_arbs[c].update(r);
                        self.input_arbs[r].update(c);
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }
            grants
        }

        fn reset(&mut self) {
            for a in &mut self.output_arbs {
                a.reset();
            }
            for a in &mut self.input_arbs {
                a.reset();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocatorKind;

    fn kinds() -> Vec<AllocatorKind> {
        vec![
            AllocatorKind::SepIfRr,
            AllocatorKind::SepIfMatrix,
            AllocatorKind::SepOfRr,
            AllocatorKind::SepOfMatrix,
        ]
    }

    #[test]
    fn grants_are_matchings() {
        for k in kinds() {
            let mut a = k.build(4, 4);
            let req = BitMatrix::from_entries(
                4,
                4,
                [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)],
            );
            for _ in 0..20 {
                let g = a.allocate(&req);
                assert!(g.is_matching_for(&req), "{k:?}\n{g:?}");
            }
        }
    }

    #[test]
    fn non_conflicting_requests_all_granted() {
        // §4.3.2: "all three allocator types are guaranteed to grant
        // non-conflicting requests".
        for k in kinds() {
            let mut a = k.build(4, 4);
            let req = BitMatrix::from_entries(4, 4, [(0, 2), (1, 0), (2, 3), (3, 1)]);
            let g = a.allocate(&req);
            assert_eq!(g, req, "{k:?}");
        }
    }

    #[test]
    fn input_first_can_miss_maximal_matching() {
        // The classic sep_if lockout from §4.3.2: requesters 0 and 1 both
        // want {0, 1}; with identical input-arbiter state both pick resource
        // 0 in stage 1, leaving resource 1 idle.
        let mut a = SeparableInputFirst::new(2, 2, ArbiterKind::RoundRobin);
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        let g = a.allocate(&req);
        assert_eq!(g.count_ones(), 1, "expected stage-1 collision\n{g:?}");
    }

    #[test]
    fn output_first_can_miss_maximal_matching() {
        // Dual situation for sep_of: resources 0 and 1 both pick requester 0
        // in stage 1; requester 1 gets nothing although resource 1 was free.
        let mut a = SeparableOutputFirst::new(2, 2, ArbiterKind::RoundRobin);
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        let g = a.allocate(&req);
        assert_eq!(g.count_ones(), 1, "expected stage-1 collision\n{g:?}");
    }

    #[test]
    fn second_iteration_repairs_lockout() {
        for (label, mut a) in [
            (
                "if",
                Box::new(SeparableInputFirst::with_iterations(
                    2,
                    2,
                    ArbiterKind::RoundRobin,
                    2,
                )) as Box<dyn Allocator>,
            ),
            (
                "of",
                Box::new(SeparableOutputFirst::with_iterations(
                    2,
                    2,
                    ArbiterKind::RoundRobin,
                    2,
                )),
            ),
        ] {
            let req = BitMatrix::from_entries(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]);
            let g = a.allocate(&req);
            assert_eq!(g.count_ones(), 2, "sep_{label} with 2 iterations");
        }
    }

    #[test]
    fn persistent_conflict_rotates_fairly() {
        for k in kinds() {
            let mut a = k.build(2, 1);
            let req = BitMatrix::from_entries(2, 1, [(0, 0), (1, 0)]);
            let mut counts = [0usize; 2];
            for _ in 0..10 {
                let g = a.allocate(&req);
                assert_eq!(g.count_ones(), 1);
                let (r, _) = g.iter_set().next().unwrap();
                counts[r] += 1;
            }
            assert_eq!(counts, [5, 5], "{k:?} unfair: {counts:?}");
        }
    }

    #[test]
    fn losing_stage1_winner_retains_priority() {
        // iSLIP rule consequence: a requester whose stage-1 pick loses stage
        // 2 keeps requesting the same resource and eventually wins it.
        let mut a = SeparableInputFirst::new(2, 2, ArbiterKind::RoundRobin);
        // Requester 0 wants only resource 0; requester 1 wants {0,1}.
        let req = BitMatrix::from_entries(2, 2, [(0, 0), (1, 0), (1, 1)]);
        let mut got_each = [false; 2];
        for _ in 0..6 {
            let g = a.allocate(&req);
            for (r, _) in g.iter_set() {
                got_each[r] = true;
            }
        }
        assert!(got_each[0] && got_each[1], "starvation: {got_each:?}");
    }

    #[test]
    fn rectangular_shapes_supported() {
        for k in kinds() {
            let mut a = k.build(3, 5);
            let req = BitMatrix::from_entries(3, 5, [(0, 4), (1, 4), (2, 0)]);
            let g = a.allocate(&req);
            assert!(g.is_matching_for(&req), "{k:?}");
            assert_eq!(g.count_ones(), 2);
        }
    }

    #[test]
    fn multi_iteration_kernel_matches_reference() {
        // The iterative-refinement ablation path must stay grant-identical
        // too: drive kernel and scalar with 3 iterations on a fixed stream.
        for kind in [ArbiterKind::RoundRobin, ArbiterKind::Matrix] {
            let mut kif = SeparableInputFirst::with_iterations(5, 5, kind, 3);
            let mut rif = reference::SeparableInputFirst::with_iterations(5, 5, kind, 3);
            let mut kof = SeparableOutputFirst::with_iterations(5, 5, kind, 3);
            let mut rof = reference::SeparableOutputFirst::with_iterations(5, 5, kind, 3);
            let mut x = 0x2545f4914f6cdd1du64;
            for t in 0..200 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bits = x >> 20;
                let req = BitMatrix::from_entries(
                    5,
                    5,
                    (0..25)
                        .filter(|i| bits >> i & 1 != 0)
                        .map(|i| (i / 5, i % 5)),
                );
                assert_eq!(
                    kif.allocate(&req),
                    rif.allocate(&req),
                    "sep_if {kind:?} t={t}"
                );
                assert_eq!(
                    kof.allocate(&req),
                    rof.allocate(&req),
                    "sep_of {kind:?} t={t}"
                );
            }
        }
    }
}
