//! Output checks written independently of the code under test: a content
//! hash, the values recorded for the default seed, and maximum-matching
//! oracles for the allocator grant counts.

use noc_core::{OutVc, SwitchGrant, SwitchRequests, VcAllocSpec, VcRequest};

/// Values recorded for [`crate::DEFAULT_SEED`]: `key value` per line.
const EXPECTED: &str = include_str!("../expected.txt");

/// 64-bit FNV-1a of a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Whether `value` matches the value recorded under `key` for the default
/// seed. A mismatch is printed as a `check: KEY = VALUE` line on standard
/// error, from which `expected.txt` is re-recorded.
pub fn matches_recorded(key: &str, value: u64) -> bool {
    let recorded = EXPECTED.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == key).then(|| v.trim().parse::<u64>().ok())?
    });
    if recorded != Some(value) {
        eprintln!("check: {key} = {value}, recorded {recorded:?}");
    }
    recorded == Some(value)
}

/// Size of a maximum bipartite matching; `adj[l]` lists the right-hand
/// vertices left vertex `l` may take (Kuhn's augmenting paths).
pub fn max_matching(adj: &[Vec<usize>], right: usize) -> usize {
    fn augment(
        l: usize,
        adj: &[Vec<usize>],
        seen: &mut [bool],
        owner: &mut [Option<usize>],
    ) -> bool {
        for &r in &adj[l] {
            if !seen[r] {
                seen[r] = true;
                if owner[r].is_none_or(|o| augment(o, adj, seen, owner)) {
                    owner[r] = Some(l);
                    return true;
                }
            }
        }
        false
    }
    let mut owner = vec![None; right];
    (0..adj.len())
        .filter(|&l| augment(l, adj, &mut vec![false; right], &mut owner))
        .count()
}

/// Output VCs (flattened `port * V + vc`) that input VC `g`'s request may
/// take when every output VC is free: same message class, one of the
/// requested resource classes. The VC index layout is
/// `(msg * R + res) * C + bank`.
fn vc_candidates(spec: &VcAllocSpec, g: usize, req: &VcRequest) -> Vec<usize> {
    let (r, c, v) = (
        spec.resource_classes(),
        spec.vcs_per_class(),
        spec.total_vcs(),
    );
    let msg = (g % v) / c / r;
    let mut out = Vec::new();
    for &rc in &req.classes {
        for bank in 0..c {
            out.push(req.out_port * v + (msg * r + rc) * c + bank);
        }
    }
    out
}

/// Checks one open-loop VC allocation (all output VCs free): every grant
/// answers a request with a legal output VC and no output VC is granted
/// twice. Returns the grant count, or `None` when a grant is invalid.
pub fn vc_grants(
    spec: &VcAllocSpec,
    reqs: &[Option<VcRequest>],
    grants: &[Option<OutVc>],
) -> Option<usize> {
    let v = spec.total_vcs();
    if grants.len() != reqs.len() {
        return None;
    }
    let mut taken = vec![false; spec.ports() * v];
    let mut n = 0;
    for (g, grant) in grants.iter().enumerate() {
        let Some(out) = grant else { continue };
        let req = reqs[g].as_ref()?;
        let flat = out.port * v + out.vc;
        if out.vc >= v || !vc_candidates(spec, g, req).contains(&flat) || taken[flat] {
            return None;
        }
        taken[flat] = true;
        n += 1;
    }
    Some(n)
}

/// Maximum number of VC grants for one open-loop request set.
pub fn vc_max(spec: &VcAllocSpec, reqs: &[Option<VcRequest>]) -> usize {
    let adj: Vec<Vec<usize>> = reqs
        .iter()
        .enumerate()
        .map(|(g, r)| r.as_ref().map_or(Vec::new(), |r| vc_candidates(spec, g, r)))
        .collect();
    max_matching(&adj, spec.ports() * spec.total_vcs())
}

/// Checks one switch allocation: every grant answers its VC's request and
/// no input or output port is granted twice. Returns the grant count, or
/// `None` when a grant is invalid.
pub fn sw_grants(reqs: &SwitchRequests, grants: &[SwitchGrant]) -> Option<usize> {
    let p = reqs.ports();
    let (mut ins, mut outs) = (vec![false; p], vec![false; p]);
    for g in grants {
        if g.in_port >= p || g.out_port >= p || g.vc >= reqs.vcs() {
            return None;
        }
        if reqs.get(g.in_port, g.vc) != Some(g.out_port) || ins[g.in_port] || outs[g.out_port] {
            return None;
        }
        ins[g.in_port] = true;
        outs[g.out_port] = true;
    }
    Some(grants.len())
}

/// Maximum number of switch grants: a port-level maximum matching, since
/// at most one VC per input port can win.
pub fn sw_max(reqs: &SwitchRequests) -> usize {
    let adj: Vec<Vec<usize>> = (0..reqs.ports())
        .map(|i| {
            let mut outs: Vec<usize> = (0..reqs.vcs()).filter_map(|v| reqs.get(i, v)).collect();
            outs.sort_unstable();
            outs.dedup();
            outs
        })
        .collect();
    max_matching(&adj, reqs.ports())
}
