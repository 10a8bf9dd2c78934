//! Incremental state digests for post-injection golden-convergence
//! detection.
//!
//! A fault-injection trial whose full architectural state (registers,
//! flags, pc, memory, emitted output, FI-event counter) equals the golden
//! profiling run's state at the *same `(fi_count, pc)` point* has a
//! deterministic remainder identical to the golden run's — its verdict is
//! decidable without executing the suffix. This module provides the digest
//! the two sides compare:
//!
//! * the golden side stamps every [`crate::Checkpoint`] with a
//!   [`StateDigest`] computed from the snapshot's dirty pages against
//!   precomputed [`BaselineHashes`] — O(dirty pages) per interval on top of
//!   the page diff the snapshot already performs;
//! * the trial side maintains a [`ConvHasher`]: per-page hash tables seeded
//!   by one baseline scan at the first checkpoint boundary after the fault
//!   fires, then updated incrementally from the write-tracking dirty list —
//!   O(pages written since the last boundary) per comparison.
//!
//! Memory hashing is additive (an AdHash-style commutative aggregate of
//! per-page hashes, each binding its page index), which is what makes both
//! incremental maintenance and the checkpoint-side dirty-page shortcut
//! exact rather than approximate. The digest carries two independently
//! seeded 64-bit lanes; a false convergence requires a simultaneous
//! collision in both (probability ~2^-128 per comparison, vastly below the
//! fault-sampling noise floor of a 1068-trial campaign).
//!
//! A data-segment word range can be *exempted* from the digest (hashed as
//! zero on both sides): REFINE's trigger-path scratch slot is written only
//! by the fired trial's taken injection branch and is dead from every pc
//! the golden run can reach, so its stale content must not block an
//! otherwise exact state match. See
//! [`crate::CheckpointConfig::exempt_data_words`].

use crate::checkpoint::{DirtyPage, PAGE_WORDS};
use crate::machine::OutEvent;

/// Independent lane count of the digest (128 bits total).
pub const LANES: usize = 2;

/// Per-lane seeds (pi digits).
const LANE_SEED: [u64; LANES] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];
/// Per-lane odd multipliers (golden-ratio and xxHash primes).
const LANE_MUL: [u64; LANES] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];

/// splitmix64 finalizer: diffuses every input bit across the word.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash one page's content for one lane. Page hashes enter the memory
/// aggregate by wrapping addition, so each must bind its page index (two
/// pages swapping contents must change the aggregate).
#[inline]
pub fn page_hash(lane: usize, index: u32, words: &[u64]) -> u64 {
    let m = LANE_MUL[lane];
    let mut h = LANE_SEED[lane] ^ (index as u64 + 1).wrapping_mul(m);
    for &w in words {
        h = (h ^ w).wrapping_mul(m);
        h ^= h >> 29;
    }
    mix(h)
}

/// [`page_hash`] with the words of `exempt` (a `(start word, count)` range
/// in segment word indices) substituted by zero, so digest-exempt scratch
/// slots hash identically no matter what they hold. Both the golden and the
/// trial side must apply the same exemption for digests to be comparable.
#[inline]
fn page_hash_exempt(exempt: (u32, u32), lane: usize, index: u32, words: &[u64]) -> u64 {
    let (start, len) = (exempt.0 as usize, exempt.1 as usize);
    let page_start = index as usize * PAGE_WORDS;
    let lo = start.max(page_start);
    let hi = (start + len).min(page_start + words.len());
    if len == 0 || lo >= hi {
        return page_hash(lane, index, words);
    }
    let mut buf = [0u64; PAGE_WORDS];
    buf[..words.len()].copy_from_slice(words);
    buf[lo - page_start..hi - page_start].fill(0);
    page_hash(lane, index, &buf[..words.len()])
}

/// A two-lane state digest. Equality means "architectural state, output
/// stream and FI counter are (with ~2^-128 collision probability)
/// bit-identical".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDigest(pub [u64; LANES]);

impl StateDigest {
    /// Placeholder for snapshots whose digest has not been stamped yet
    /// (the builder overwrites it at push time).
    pub const ZERO: StateDigest = StateDigest([0; LANES]);
}

/// Sequential two-lane absorber for the output-event stream. Both the
/// golden and the trial side must absorb the identical event sequence to
/// produce equal states.
#[derive(Debug, Clone, Copy)]
pub struct OutputHasher {
    h: [u64; LANES],
}

impl Default for OutputHasher {
    fn default() -> Self {
        OutputHasher { h: LANE_SEED }
    }
}

impl OutputHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        for (h, &m) in self.h.iter_mut().zip(&LANE_MUL) {
            *h = (*h ^ w).wrapping_mul(m);
            *h ^= *h >> 29;
        }
    }

    /// Absorb one output event (tag + raw payload bits; `f64` by bit
    /// pattern, so the digest is stricter than any formatted comparison).
    pub fn absorb(&mut self, ev: &OutEvent) {
        match ev {
            OutEvent::I64(v) => {
                self.word(1);
                self.word(*v as u64);
            }
            OutEvent::F64(v) => {
                self.word(2);
                self.word(v.to_bits());
            }
            OutEvent::Str(s) => {
                self.word(3);
                self.word(s.len() as u64);
                for chunk in s.as_bytes().chunks(8) {
                    let mut buf = [0u8; 8];
                    buf[..chunk.len()].copy_from_slice(chunk);
                    self.word(u64::from_le_bytes(buf));
                }
            }
        }
    }
}

/// Combine the architectural scalars, the output stream and the memory
/// aggregate into the final digest. Shared verbatim by the golden
/// (checkpoint) and trial (incremental) sides.
#[allow(clippy::too_many_arguments)]
pub fn combine_digest(
    regs: &[u64; 16],
    fregs: &[u64; 16],
    flags: u8,
    pc: u32,
    fi_count: u64,
    out_len: usize,
    out: &OutputHasher,
    mem_agg: [u64; LANES],
) -> StateDigest {
    let mut d = [0u64; LANES];
    for l in 0..LANES {
        let m = LANE_MUL[l];
        let mut h = LANE_SEED[l];
        let mut absorb = |w: u64| {
            h = (h ^ w).wrapping_mul(m);
            h ^= h >> 29;
        };
        for &r in regs {
            absorb(r);
        }
        for &f in fregs {
            absorb(f);
        }
        absorb((flags as u64) << 32 | pc as u64);
        absorb(fi_count);
        absorb(out_len as u64);
        absorb(out.h[l]);
        absorb(mem_agg[l]);
        d[l] = mix(h);
    }
    StateDigest(d)
}

/// Precomputed per-page hashes of the baseline memory image (the binary's
/// data segment and the all-zero stack) plus their additive aggregate.
/// Built once per profiling run and shared read-only with every trial.
#[derive(Debug, Clone)]
pub struct BaselineHashes {
    /// Per-lane per-page hashes of the data-segment baseline.
    pub data: [Vec<u64>; LANES],
    /// Per-lane per-page hashes of the zeroed stack.
    pub stack: [Vec<u64>; LANES],
    /// Per-lane wrapping sum over all baseline pages (data + stack).
    pub agg: [u64; LANES],
    /// Data-segment word range `(start, count)` excluded from the digest
    /// (instrumentation scratch written only on the taken injection branch,
    /// dead from every pc the golden run can reach). `(0, 0)` = none.
    pub exempt: (u32, u32),
}

impl BaselineHashes {
    /// Hash the baseline image: `data` is the binary's data segment,
    /// `stack_words` the stack geometry of the runs to be digested, and
    /// `exempt` a data-segment word range to exclude from every digest.
    pub fn new(data: &[u64], stack_words: usize, exempt: (u32, u32)) -> BaselineHashes {
        let zeros = [0u64; PAGE_WORDS];
        let mut b = BaselineHashes {
            data: [Vec::new(), Vec::new()],
            stack: [Vec::new(), Vec::new()],
            agg: [0; LANES],
            exempt,
        };
        for l in 0..LANES {
            for (i, chunk) in data.chunks(PAGE_WORDS).enumerate() {
                let h = page_hash_exempt(exempt, l, i as u32, chunk);
                b.agg[l] = b.agg[l].wrapping_add(h);
                b.data[l].push(h);
            }
            let mut left = stack_words;
            let mut i = 0u32;
            while left > 0 {
                let n = left.min(PAGE_WORDS);
                let h = page_hash(l, i, &zeros[..n]);
                b.agg[l] = b.agg[l].wrapping_add(h);
                b.stack[l].push(h);
                left -= n;
                i += 1;
            }
        }
        b
    }

    /// Digest of a golden-run snapshot directly from its dirty-page diff:
    /// start from the baseline aggregate and swap in the hash of each page
    /// the snapshot captured — O(dirty pages).
    #[allow(clippy::too_many_arguments)]
    pub fn checkpoint_digest(
        &self,
        regs: &[u64; 16],
        fregs: &[u64; 16],
        flags: u8,
        pc: u32,
        fi_count: u64,
        output: &[OutEvent],
        data_pages: &[DirtyPage],
        stack_pages: &[DirtyPage],
    ) -> StateDigest {
        let mut agg = self.agg;
        for (l, a) in agg.iter_mut().enumerate() {
            for p in data_pages {
                let h = page_hash_exempt(self.exempt, l, p.index, &p.words);
                *a = a.wrapping_sub(self.data[l][p.index as usize]).wrapping_add(h);
            }
            for p in stack_pages {
                let h = page_hash(l, p.index, &p.words);
                *a = a.wrapping_sub(self.stack[l][p.index as usize]).wrapping_add(h);
            }
        }
        let mut out = OutputHasher::default();
        for ev in output {
            out.absorb(ev);
        }
        combine_digest(regs, fregs, flags, pc, fi_count, output.len(), &out, agg)
    }
}

/// The trial side's incremental memory/output hasher, owned by the machine
/// while its convergence loop runs. Seeded by one full baseline scan at
/// the first checkpoint boundary after the fault fired; thereafter the
/// tracked interpreter marks written pages and [`ConvHasher::refresh`]
/// rehashes only those.
#[derive(Debug)]
pub struct ConvHasher {
    data: [Vec<u64>; LANES],
    stack: [Vec<u64>; LANES],
    agg: [u64; LANES],
    exempt: (u32, u32),
    data_bits: Vec<u64>,
    stack_bits: Vec<u64>,
    data_dirty: Vec<u32>,
    stack_dirty: Vec<u32>,
    out: OutputHasher,
    out_done: usize,
}

impl ConvHasher {
    /// Build the hasher from the current machine memory by scanning it
    /// against the baseline: clean pages reuse the precomputed baseline
    /// hash (a page-sized compare), touched pages are rehashed. Stack
    /// pages below `stack_first_page` must be all zero (the machine's
    /// stack low-water mark guarantees it) and keep their baseline hash
    /// unscanned. Also absorbs the output emitted so far.
    pub fn scan(
        base: &BaselineHashes,
        data: &[u64],
        data_baseline: &[u64],
        stack: &[u64],
        stack_first_page: usize,
        output: &[OutEvent],
    ) -> ConvHasher {
        let mut h = ConvHasher {
            data: base.data.clone(),
            stack: base.stack.clone(),
            agg: base.agg,
            exempt: base.exempt,
            data_bits: vec![0; base.data[0].len().div_ceil(64)],
            stack_bits: vec![0; base.stack[0].len().div_ceil(64)],
            data_dirty: Vec::new(),
            stack_dirty: Vec::new(),
            out: OutputHasher::default(),
            out_done: output.len(),
        };
        debug_assert_eq!(data.len(), data_baseline.len());
        for (i, chunk) in data.chunks(PAGE_WORDS).enumerate() {
            let start = i * PAGE_WORDS;
            if chunk != &data_baseline[start..start + chunk.len()] {
                h.rehash(i as u32, chunk, Seg::Data);
            }
        }
        let from = (stack_first_page * PAGE_WORDS).min(stack.len());
        for (i, chunk) in stack[from..].chunks(PAGE_WORDS).enumerate() {
            if chunk.iter().any(|&w| w != 0) {
                h.rehash((stack_first_page + i) as u32, chunk, Seg::Stack);
            }
        }
        for ev in output {
            h.out.absorb(ev);
        }
        h
    }

    #[inline]
    fn rehash(&mut self, index: u32, words: &[u64], seg: Seg) {
        for l in 0..LANES {
            let slot = match seg {
                Seg::Data => &mut self.data[l][index as usize],
                Seg::Stack => &mut self.stack[l][index as usize],
            };
            let old = *slot;
            let new = match seg {
                Seg::Data => page_hash_exempt(self.exempt, l, index, words),
                Seg::Stack => page_hash(l, index, words),
            };
            *slot = new;
            self.agg[l] = self.agg[l].wrapping_sub(old).wrapping_add(new);
        }
    }

    /// Mark a data-segment page as written since the last refresh.
    #[inline]
    pub fn mark_data(&mut self, page: u32) {
        let (w, b) = (page as usize / 64, page % 64);
        if self.data_bits[w] & (1 << b) == 0 {
            self.data_bits[w] |= 1 << b;
            self.data_dirty.push(page);
        }
    }

    /// Mark a stack page as written since the last refresh.
    #[inline]
    pub fn mark_stack(&mut self, page: u32) {
        let (w, b) = (page as usize / 64, page % 64);
        if self.stack_bits[w] & (1 << b) == 0 {
            self.stack_bits[w] |= 1 << b;
            self.stack_dirty.push(page);
        }
    }

    /// Bring the page hashes and output absorber up to date with the
    /// machine's current memory and output — O(pages written + events
    /// emitted since the last refresh).
    pub fn refresh(&mut self, data: &[u64], stack: &[u64], output: &[OutEvent]) {
        let mut dirty = std::mem::take(&mut self.data_dirty);
        for &p in &dirty {
            let start = p as usize * PAGE_WORDS;
            let end = (start + PAGE_WORDS).min(data.len());
            self.rehash(p, &data[start..end], Seg::Data);
            self.data_bits[p as usize / 64] &= !(1 << (p % 64));
        }
        dirty.clear();
        self.data_dirty = dirty;
        let mut dirty = std::mem::take(&mut self.stack_dirty);
        for &p in &dirty {
            let start = p as usize * PAGE_WORDS;
            let end = (start + PAGE_WORDS).min(stack.len());
            self.rehash(p, &stack[start..end], Seg::Stack);
            self.stack_bits[p as usize / 64] &= !(1 << (p % 64));
        }
        dirty.clear();
        self.stack_dirty = dirty;
        for ev in &output[self.out_done..] {
            self.out.absorb(ev);
        }
        self.out_done = output.len();
    }

    /// Final digest over the refreshed state plus the architectural
    /// scalars. Call [`ConvHasher::refresh`] first.
    pub fn digest(
        &self,
        regs: &[u64; 16],
        fregs: &[u64; 16],
        flags: u8,
        pc: u32,
        fi_count: u64,
    ) -> StateDigest {
        combine_digest(regs, fregs, flags, pc, fi_count, self.out_done, &self.out, self.agg)
    }
}

#[derive(Clone, Copy)]
enum Seg {
    Data,
    Stack,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(
        base: &BaselineHashes,
        data: &[u64],
        data_baseline: &[u64],
        stack: &[u64],
        output: &[OutEvent],
    ) -> StateDigest {
        let h = ConvHasher::scan(base, data, data_baseline, stack, 0, output);
        h.digest(&[0; 16], &[0; 16], 0, 0, 0)
    }

    #[test]
    fn scan_of_baseline_matches_aggregate() {
        let data: Vec<u64> = (0..300).collect();
        let base = BaselineHashes::new(&data, 200, (0, 0));
        let stack = vec![0u64; 200];
        let h = ConvHasher::scan(&base, &data, &data, &stack, 0, &[]);
        assert_eq!(h.agg, base.agg);
    }

    #[test]
    fn incremental_refresh_equals_full_scan() {
        let baseline: Vec<u64> = (0..300).map(|i| i * 7).collect();
        let base = BaselineHashes::new(&baseline, 200, (0, 0));
        let mut data = baseline.clone();
        let mut stack = vec![0u64; 200];
        let mut h = ConvHasher::scan(&base, &data, &baseline, &stack, 0, &[]);

        // Mutate a few words across pages, marking as the machine would.
        data[3] = 111;
        h.mark_data(3 / PAGE_WORDS as u32);
        data[130] = 222;
        h.mark_data((130 / PAGE_WORDS) as u32);
        stack[70] = 333;
        h.mark_stack((70 / PAGE_WORDS) as u32);
        let out = vec![OutEvent::I64(9), OutEvent::Str("x".into())];
        h.refresh(&data, &stack, &out);

        let want = digest_of(&base, &data, &baseline, &stack, &out);
        assert_eq!(h.digest(&[0; 16], &[0; 16], 0, 0, 0), want);
    }

    #[test]
    fn scan_from_the_stack_low_water_page_matches_full_scan() {
        let baseline: Vec<u64> = (0..100).collect();
        let base = BaselineHashes::new(&baseline, 5 * PAGE_WORDS, (0, 0));
        let mut data = baseline.clone();
        data[7] = 1;
        let mut stack = vec![0u64; 5 * PAGE_WORDS];
        stack[2 * PAGE_WORDS + 5] = 9;
        stack[5 * PAGE_WORDS - 1] = 4;
        let out = vec![OutEvent::I64(3)];
        let regs = [6u64; 16];
        let full = ConvHasher::scan(&base, &data, &baseline, &stack, 0, &out);
        let want = full.digest(&regs, &[0; 16], 1, 2, 3);
        for first in 1..=2 {
            let h = ConvHasher::scan(&base, &data, &baseline, &stack, first, &out);
            assert_eq!(h.digest(&regs, &[0; 16], 1, 2, 3), want, "first page {first}");
        }
        // The skipped pages really are unscanned: starting above a dirty
        // page drops it from the digest.
        let h = ConvHasher::scan(&base, &data, &baseline, &stack, 3, &out);
        assert_ne!(h.digest(&regs, &[0; 16], 1, 2, 3), want);
    }

    #[test]
    fn double_mark_and_revert_stay_consistent() {
        let baseline: Vec<u64> = vec![5; 2 * PAGE_WORDS];
        let base = BaselineHashes::new(&baseline, PAGE_WORDS, (0, 0));
        let mut data = baseline.clone();
        let stack = vec![0u64; PAGE_WORDS];
        let mut h = ConvHasher::scan(&base, &data, &baseline, &stack, 0, &[]);
        // Write and write back: page hash must return to baseline.
        data[0] = 99;
        h.mark_data(0);
        h.mark_data(0); // duplicate marks must not double-count
        h.refresh(&data, &stack, &[]);
        data[0] = 5;
        h.mark_data(0);
        h.refresh(&data, &stack, &[]);
        assert_eq!(h.agg, base.agg);
    }

    #[test]
    fn checkpoint_digest_matches_trial_scan() {
        let baseline: Vec<u64> = (0..256).map(|i| i ^ 42).collect();
        let base = BaselineHashes::new(&baseline, 150, (0, 0));
        let mut data = baseline.clone();
        let mut stack = vec![0u64; 150];
        data[65] = 7;
        stack[149] = 8;
        let out = vec![OutEvent::F64(1.5)];
        let regs = [3u64; 16];
        let fregs = [4u64; 16];

        let data_pages = crate::checkpoint::diff_pages(&data, Some(&baseline), 0);
        let stack_pages = crate::checkpoint::diff_pages(&stack, None, 0);
        let golden = base.checkpoint_digest(
            &regs, &fregs, 2, 17, 5, &out, &data_pages, &stack_pages,
        );
        let h = ConvHasher::scan(&base, &data, &baseline, &stack, 0, &out);
        assert_eq!(h.digest(&regs, &fregs, 2, 17, 5), golden);
    }

    #[test]
    fn digest_distinguishes_each_component() {
        let baseline: Vec<u64> = vec![0; PAGE_WORDS];
        let base = BaselineHashes::new(&baseline, PAGE_WORDS, (0, 0));
        let stack = vec![0u64; PAGE_WORDS];
        let d0 = digest_of(&base, &baseline, &baseline, &stack, &[]);

        let mut regs = [0u64; 16];
        regs[7] = 1;
        let h = ConvHasher::scan(&base, &baseline, &baseline, &stack, 0, &[]);
        assert_ne!(h.digest(&regs, &[0; 16], 0, 0, 0), d0, "regs");
        assert_ne!(h.digest(&[0; 16], &[0; 16], 1, 0, 0), d0, "flags");
        assert_ne!(h.digest(&[0; 16], &[0; 16], 0, 1, 0), d0, "pc");
        assert_ne!(h.digest(&[0; 16], &[0; 16], 0, 0, 1), d0, "fi_count");

        let mut data = baseline.clone();
        data[9] = 1;
        assert_ne!(digest_of(&base, &data, &baseline, &stack, &[]), d0, "memory");
        let out = vec![OutEvent::I64(0)];
        assert_ne!(digest_of(&base, &baseline, &baseline, &stack, &out), d0, "output");
        // f64 payloads are compared by bit pattern: 0.0 != -0.0.
        let a = vec![OutEvent::F64(0.0)];
        let b = vec![OutEvent::F64(-0.0)];
        assert_ne!(
            digest_of(&base, &baseline, &baseline, &stack, &a),
            digest_of(&base, &baseline, &baseline, &stack, &b),
            "f64 bits"
        );
    }

    #[test]
    fn exempt_words_do_not_affect_digest() {
        let baseline: Vec<u64> = vec![0; 2 * PAGE_WORDS];
        let exempt = (PAGE_WORDS as u32 + 3, 1);
        let base = BaselineHashes::new(&baseline, PAGE_WORDS, exempt);
        let stack = vec![0u64; PAGE_WORDS];
        let d0 = digest_of(&base, &baseline, &baseline, &stack, &[]);

        // Writing the exempt word must not change the digest, on either
        // the full-scan or the incremental path.
        let mut data = baseline.clone();
        data[PAGE_WORDS + 3] = 0xDEAD_BEEF;
        assert_eq!(digest_of(&base, &data, &baseline, &stack, &[]), d0, "scan path");
        let mut h = ConvHasher::scan(&base, &baseline, &baseline, &stack, 0, &[]);
        h.mark_data(1);
        h.refresh(&data, &stack, &[]);
        assert_eq!(h.digest(&[0; 16], &[0; 16], 0, 0, 0), d0, "incremental path");

        // ... and the golden (checkpoint) side must agree.
        let pages = crate::checkpoint::diff_pages(&data, Some(&baseline), 0);
        let golden = base.checkpoint_digest(
            &[0; 16], &[0; 16], 0, 0, 0, &[], &pages, &[],
        );
        assert_eq!(golden, d0, "checkpoint path");

        // A neighbouring (non-exempt) word still changes it.
        let mut data = baseline.clone();
        data[PAGE_WORDS + 4] = 1;
        assert_ne!(digest_of(&base, &data, &baseline, &stack, &[]), d0);
    }

    #[test]
    fn page_hash_binds_index() {
        let words = [7u64; PAGE_WORDS];
        assert_ne!(page_hash(0, 0, &words), page_hash(0, 1, &words));
        assert_ne!(page_hash(0, 0, &words), page_hash(1, 0, &words));
    }
}
