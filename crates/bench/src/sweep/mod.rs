//! Resumable experiment sweeps (`noc sweep`).
//!
//! A sweep is a declarative grid over simulator configurations —
//! topology × allocator × speculation × traffic × rate × seed — that runs
//! with bounded parallelism, caches every point by content digest, and
//! journals completions so an interrupted sweep resumes with **zero
//! recomputation**. The figure binaries (`fig13`, `fig14`, the
//! simulation ablations) are thin wrappers over the same machinery, so a
//! preset sweep and a legacy binary produce bit-identical stdout.
//!
//! Layering:
//!
//! - [`spec`]: the sweep grammar — [`SweepSpec`] / [`SweepGrid`] with a
//!   deterministic cartesian [`SweepSpec::expand`], JSON parsing, and a
//!   spec-level content digest.
//! - [`cache`]: the content-addressed result store. One JSON file per
//!   point, keyed by `SimConfig::digest` (config + run window + schema),
//!   written atomically, round-tripping [`SimResult`](noc_sim::SimResult) bit-exactly.
//! - [`journal`]: the crash-safe completion log — an append-only JSONL
//!   file, fsynced per record, validated against the spec digest on
//!   resume.
//! - [`runner`]: [`run_sweep`] — journal-skip / cache-hit / compute
//!   accounting, `run_many` parallelism, progress + ETA on stderr, and a
//!   manifest export; plus [`cached_runner`]/[`env_runner`] which give the
//!   figure renderers a cache-backed point runner.
//! - [`presets`]: the in-repo sweeps covering the simulation figures and
//!   ablations, plus a CI-sized `smoke` preset.
//! - [`render`]: exact stdout reproductions of the legacy figure
//!   binaries, parameterized by runner.
//! - [`serve`]: sweep-as-a-service — the `noc serve` daemon deduplicating
//!   concurrent clients' overlapping grids against the same cache and
//!   journal.

pub mod cache;
pub mod journal;
pub mod presets;
pub mod render;
pub mod runner;
pub mod serve;
pub mod spec;

pub use cache::ResultCache;
pub use journal::{Journal, JournalHeader};
pub use presets::{preset, preset_names, preset_windows};
pub use runner::{cached_runner, env_runner, run_sweep, SweepOptions, SweepOutcome};
pub use spec::{SweepGrid, SweepPoint, SweepSpec};

/// Cache/journal schema version. Participates in every point digest, so
/// bumping it invalidates all cached results and journals at once — do
/// that whenever simulator semantics or the result format change.
pub const SWEEP_SCHEMA: &str = "noc-sweep/v1";
