//! Golden-run checkpointing and the predecoded quiescent fast path.
//!
//! A fault-injection trial is bit-identical to the fault-free profiling run
//! up to its dynamic injection index (the campaign engine's determinism
//! invariant): the injection RNG is consumed only when the fault fires, so
//! the *quiescent prefix* of every trial re-executes exactly the same
//! instruction stream the profiling run already executed. This module lets
//! the profiling run snapshot full machine state every K retired
//! instructions into an immutable [`CheckpointStore`] (shared across
//! workers alongside the instrumented binary in the artifact cache); trials
//! then restore the latest snapshot whose FI-event count is still below
//! their injection target and interpret only the suffix — O(N) per-trial
//! cost becomes O(N/K + suffix).
//!
//! Memory is captured as *dirty pages*: fixed-size word runs that differ
//! from the baseline image (the binary's data segment, an all-zero stack),
//! so restore cost is proportional to the state the program actually
//! touched, and clean pages are shared implicitly through the baseline.
//!
//! The companion [`Predecoded`] stream backs the monomorphized
//! "no-FI-until-index" interpreter loop (`Machine::run_quiescent_calls` /
//! `Machine::run_quiescent_probed`): per-pc instruction copies with their
//! cycle cost and PINFI-target flag precomputed, so the quiescent region
//! skips the `&mut dyn FiRuntime` virtual call and probe bookkeeping.

use crate::binary::Binary;
use crate::digest::{BaselineHashes, StateDigest};
use crate::isa::{fi_outputs, MInstr};
use crate::machine::OutEvent;

/// Dirty-page granularity in 8-byte words (512-byte pages).
pub const PAGE_WORDS: usize = 64;

/// A memory page (run of [`PAGE_WORDS`] words, the last page of a segment
/// may be shorter) that differs from the baseline image.
#[derive(Debug, Clone, PartialEq)]
pub struct DirtyPage {
    /// Page number within the segment (word offset / [`PAGE_WORDS`]).
    pub index: u32,
    /// The page's content at snapshot time.
    pub words: Box<[u64]>,
}

/// Diff a memory segment against its baseline (`None` = all zeros) from
/// page `first_page` on, returning the pages that changed. Pages below
/// `first_page` must be known clean (the caller's contract).
pub fn diff_pages(cur: &[u64], baseline: Option<&[u64]>, first_page: usize) -> Vec<DirtyPage> {
    let mut out = Vec::new();
    let from = (first_page * PAGE_WORDS).min(cur.len());
    for (i, chunk) in cur[from..].chunks(PAGE_WORDS).enumerate() {
        let i = first_page + i;
        let start = i * PAGE_WORDS;
        let clean = match baseline {
            Some(b) => chunk == &b[start..start + chunk.len()],
            None => chunk.iter().all(|&w| w == 0),
        };
        if !clean {
            out.push(DirtyPage { index: i as u32, words: chunk.into() });
        }
    }
    out
}

/// Overwrite `dst` with the captured pages (inverse of [`diff_pages`],
/// given that `dst` currently equals the baseline).
pub fn apply_pages(pages: &[DirtyPage], dst: &mut [u64]) {
    for p in pages {
        let start = p.index as usize * PAGE_WORDS;
        dst[start..start + p.words.len()].copy_from_slice(&p.words);
    }
}

/// A full architectural snapshot of one point of the profiling run,
/// restorable by [`crate::Machine::resume`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// General-purpose register file.
    pub regs: [u64; 16],
    /// Floating-point register file (raw bits).
    pub fregs: [u64; 16],
    /// FLAGS register.
    pub flags: u8,
    /// Program counter of the next instruction to execute.
    pub pc: u32,
    /// Simulated cycles consumed so far.
    pub cycles: u64,
    /// Dynamic instructions retired so far.
    pub retired: u64,
    /// FI population events counted so far (the `selInstr`/`injectFault`
    /// call count for REFINE/LLFI, the probed-target count for PINFI). A
    /// trial with injection target `t` may restore this snapshot iff
    /// `fi_count < t`.
    pub fi_count: u64,
    /// Output events emitted so far.
    pub output: Vec<OutEvent>,
    /// Data-segment pages differing from `binary.data`.
    pub data_pages: Vec<DirtyPage>,
    /// Stack pages differing from the all-zero initial stack.
    pub stack_pages: Vec<DirtyPage>,
    /// Incremental state digest at this boundary, stamped by
    /// [`CheckpointBuilder::push`]; trials compare against it at the same
    /// `(fi_count, pc)` point to detect golden convergence.
    pub digest: StateDigest,
}

impl Checkpoint {
    /// Words of captured page memory (diagnostics).
    pub fn memory_words(&self) -> usize {
        self.data_pages.iter().chain(&self.stack_pages).map(|p| p.words.len()).sum()
    }
}

/// Snapshot-capture knobs for [`crate::Machine::run_checkpointed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Snapshot every this many retired instructions.
    pub interval: u64,
    /// Snapshot count cap: reaching it drops every other snapshot and
    /// doubles the interval, bounding memory for long runs.
    pub max_checkpoints: usize,
    /// Data-segment word range `(start, count)` excluded from convergence
    /// digests — instrumentation scratch that a fired trial writes but the
    /// golden run never does, and that no golden-reachable pc ever reads
    /// before rewriting (see [`crate::BaselineHashes::exempt`]). `(0, 0)`
    /// exempts nothing.
    pub exempt_data_words: (u32, u32),
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { interval: 2048, max_checkpoints: 128, exempt_data_words: (0, 0) }
    }
}

/// Accumulates snapshots during a profiling run, thinning when the cap is
/// hit; [`CheckpointBuilder::finish`] seals the immutable store.
#[derive(Debug)]
pub struct CheckpointBuilder {
    max: usize,
    interval: u64,
    checkpoints: Vec<Checkpoint>,
    baseline: BaselineHashes,
}

impl CheckpointBuilder {
    /// Empty builder with `cfg`'s interval and cap (both clamped to >= 1).
    /// `baseline` is the precomputed hash table of the run's initial
    /// memory image, used to stamp each snapshot's convergence digest.
    pub fn new(cfg: &CheckpointConfig, baseline: BaselineHashes) -> Self {
        CheckpointBuilder {
            max: cfg.max_checkpoints.max(1),
            interval: cfg.interval.max(1),
            checkpoints: Vec::new(),
            baseline,
        }
    }

    /// Should a snapshot be captured after `retired` instructions?
    #[inline]
    pub fn due(&self, retired: u64) -> bool {
        retired > 0 && retired.is_multiple_of(self.interval)
    }

    /// The first retired count after `retired` at which a snapshot is due
    /// (under the current interval).
    #[inline]
    pub fn next_due(&self, retired: u64) -> u64 {
        (retired / self.interval + 1) * self.interval
    }

    /// Record a snapshot. When the cap is reached, every other snapshot is
    /// dropped and the interval doubles; survivors (even multiples of the
    /// old interval) stay aligned to the new one, and `ck` itself is kept
    /// only if it is too.
    pub fn push(&mut self, mut ck: Checkpoint) {
        ck.digest = self.baseline.checkpoint_digest(
            &ck.regs,
            &ck.fregs,
            ck.flags,
            ck.pc,
            ck.fi_count,
            &ck.output,
            &ck.data_pages,
            &ck.stack_pages,
        );
        if self.checkpoints.len() >= self.max {
            let mut nth = 0usize;
            self.checkpoints.retain(|_| {
                nth += 1;
                nth.is_multiple_of(2)
            });
            self.interval *= 2;
            if !ck.retired.is_multiple_of(self.interval) {
                return;
            }
        }
        debug_assert!(
            self.checkpoints.last().is_none_or(|p| p.fi_count <= ck.fi_count),
            "FI-event counts must be monotone across snapshots"
        );
        self.checkpoints.push(ck);
    }

    /// Seal the store. `stack_words` records the stack geometry the
    /// profiling run used; restoring requires the same.
    pub fn finish(self, stack_words: usize) -> CheckpointStore {
        CheckpointStore {
            interval: self.interval,
            stack_words,
            checkpoints: self.checkpoints,
            baseline: self.baseline,
        }
    }
}

/// The immutable snapshot collection of one profiling run, held in the
/// artifact cache alongside the instrumented binary and shared (read-only)
/// by all campaign workers.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    /// Final snapshot interval (thinning may have raised the configured one).
    pub interval: u64,
    /// Stack size in words used by the profiling run.
    pub stack_words: usize,
    /// Snapshots in capture order (retired and `fi_count` both monotone).
    pub checkpoints: Vec<Checkpoint>,
    /// Baseline memory hashes shared by the snapshot digests; trials seed
    /// their incremental convergence hasher from these.
    pub baseline: BaselineHashes,
}

impl CheckpointStore {
    /// The latest checkpoint a trial targeting FI event `target` (1-based)
    /// may restore: its `fi_count` must still be strictly below `target`
    /// so the target event itself executes under the real injector.
    pub fn nearest_below(&self, target: u64) -> Option<&Checkpoint> {
        let n = self.checkpoints.partition_point(|c| c.fi_count < target);
        n.checked_sub(1).map(|i| &self.checkpoints[i])
    }

    /// Number of snapshots held.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// True when no snapshots were captured (run shorter than one interval).
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Words of captured page memory across all snapshots (diagnostics).
    pub fn memory_words(&self) -> usize {
        self.checkpoints.iter().map(Checkpoint::memory_words).sum()
    }
}

/// One predecoded instruction slot: the instruction copy plus everything
/// the quiescent inner loop needs without re-deriving it per iteration.
#[derive(Debug, Clone, Copy)]
pub struct PredecodedEntry {
    /// The instruction at this pc.
    pub instr: MInstr,
    /// Its cycle cost ([`MInstr::cycles`]).
    pub cost: u64,
    /// Does PINFI count it (it has FI output operands)?
    pub is_target: bool,
}

/// A flattened, predecoded rendering of a binary's text section for the
/// quiescent fast path.
#[derive(Debug, Clone)]
pub struct Predecoded {
    entries: Vec<PredecodedEntry>,
}

impl Predecoded {
    /// Predecode `binary`'s text section.
    pub fn new(binary: &Binary) -> Self {
        let entries = binary
            .text
            .iter()
            .map(|i| PredecodedEntry {
                instr: *i,
                cost: i.cycles(),
                is_target: !fi_outputs(i).is_empty(),
            })
            .collect();
        Predecoded { entries }
    }

    /// The slot for `pc`, or `None` past the end of text (bad pc).
    #[inline]
    pub fn entry(&self, pc: u32) -> Option<&PredecodedEntry> {
        self.entries.get(pc as usize)
    }

    /// Number of instruction slots (== text length).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True for an empty text section.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ck(retired: u64, fi_count: u64) -> Checkpoint {
        Checkpoint {
            regs: [0; 16],
            fregs: [0; 16],
            flags: 0,
            pc: 0,
            cycles: retired,
            retired,
            fi_count,
            output: Vec::new(),
            data_pages: Vec::new(),
            stack_pages: Vec::new(),
            digest: StateDigest::ZERO,
        }
    }

    fn builder(cfg: &CheckpointConfig) -> CheckpointBuilder {
        CheckpointBuilder::new(cfg, BaselineHashes::new(&[], 0, (0, 0)))
    }

    #[test]
    fn diff_and_apply_roundtrip() {
        let baseline: Vec<u64> = (0..200).collect();
        let mut cur = baseline.clone();
        cur[3] = 999; // page 0
        cur[130] = 7; // page 2
        cur[199] = 1; // page 3 (partial)
        let pages = diff_pages(&cur, Some(&baseline), 0);
        assert_eq!(pages.iter().map(|p| p.index).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(pages[2].words.len(), 200 - 3 * PAGE_WORDS);
        let mut restored = baseline.clone();
        apply_pages(&pages, &mut restored);
        assert_eq!(restored, cur);
    }

    #[test]
    fn zero_baseline_diffs_against_zeros() {
        let mut cur = vec![0u64; 3 * PAGE_WORDS];
        assert!(diff_pages(&cur, None, 0).is_empty());
        cur[PAGE_WORDS] = 5;
        let pages = diff_pages(&cur, None, 0);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].index, 1);
        // Starting at or below the lowest dirty page loses nothing; past
        // the segment end finds nothing.
        assert_eq!(diff_pages(&cur, None, 1), pages);
        assert!(diff_pages(&cur, None, 2).is_empty());
        assert!(diff_pages(&cur, None, 9).is_empty());
        let mut restored = vec![0u64; 3 * PAGE_WORDS];
        apply_pages(&pages, &mut restored);
        assert_eq!(restored, cur);
    }

    #[test]
    fn nearest_below_is_strict() {
        let mut b = builder(&CheckpointConfig { interval: 10, max_checkpoints: 64, ..Default::default() });
        for i in 1..=5u64 {
            b.push(ck(i * 10, i * 3)); // fi_counts 3, 6, 9, 12, 15
        }
        let store = b.finish(64);
        assert!(store.nearest_below(1).is_none());
        assert!(store.nearest_below(3).is_none(), "fi_count 3 is not < 3");
        assert_eq!(store.nearest_below(4).unwrap().fi_count, 3);
        assert_eq!(store.nearest_below(10).unwrap().fi_count, 9);
        assert_eq!(store.nearest_below(u64::MAX).unwrap().fi_count, 15);
    }

    #[test]
    fn builder_thins_and_doubles_on_cap() {
        let cfg = CheckpointConfig { interval: 10, max_checkpoints: 4, ..Default::default() };
        let mut b = builder(&cfg);
        let mut retired = 0;
        let mut pushed = 0u64;
        while pushed < 12 {
            retired += 10;
            if b.due(retired) {
                pushed += 1;
                b.push(ck(retired, retired / 10));
            }
        }
        let store = b.finish(64);
        assert!(store.len() <= cfg.max_checkpoints);
        assert!(store.interval > cfg.interval);
        for c in &store.checkpoints {
            assert!(c.retired.is_multiple_of(store.interval), "{} % {}", c.retired, store.interval);
        }
        // Still ordered and strictly usable for lookup.
        let counts: Vec<u64> = store.checkpoints.iter().map(|c| c.fi_count).collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(counts, sorted);
    }

    #[test]
    fn due_respects_interval() {
        let b = builder(&CheckpointConfig { interval: 100, max_checkpoints: 8, ..Default::default() });
        assert!(!b.due(0));
        assert!(!b.due(99));
        assert!(b.due(100));
        assert!(b.due(700));
    }
}
