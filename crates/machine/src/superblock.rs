//! Superblock-fused direct-threaded execution engine.
//!
//! The exact interpreter ([`Machine::step_t`](crate::machine::Machine)) pays
//! a 31-arm `match` decode, branchy `Option<base>/Option<index>` effective
//! addresses, and per-instruction cycle/retired/pc bookkeeping for every
//! executed instruction. This module predecodes the text section once into a
//! flat µop array whose operand offsets are fully resolved (the memory-shape
//! `Option`s are burned into the function pointer via const generics), fuses
//! straight-line runs into *superblocks*, and dispatches each block through
//! direct-threaded fn-pointer calls with one cycles/retired/pc update per
//! block.
//!
//! Every µop carries the pc of the next µop, so a superblock is a *chain*:
//! normally `pc + 1`, but a non-firing REFINE site collapses into one µop
//! whose successor is the site's resume point. The site idiom (emitted by
//! REFINE's backend pass, matched here as a pure ISA pattern) is
//!
//! ```text
//!   pc:    st [S0], r0 ; rdflags r0 ; st [SF], r0 ; call selInstr
//!          cmp r0, 0   ; jne setup  ; jmp post
//!   post:  ld r0, [SF] ; wrflags r0 ; ld r0, [S0]      -> post + 3
//! ```
//!
//! with `S0 != SF` absolute, 8-byte aligned and inside the data segment.
//! When `selInstr` returns 0 its net effect is `[S0] = r0`, `[SF] = flags`,
//! `flags &= 0xf` and one FI event, which the collapsed µop performs while
//! the block charges the ten instructions' summed cycles and retired count.
//! `CallRt injectFault` (LLFI) likewise lowers to a µop that counts one
//! event and leaves the value unchanged. Per-chain suffix sums (cycle cost,
//! retired instructions, PINFI targets, FI events) are kept as `u32`.
//!
//! Fusion boundaries: a superblock ends at any control transfer (`Jmp`,
//! `Jcc`, `Call`, `Ret`) outside a collapsed site, at every other `CallRt`
//! (`setupFI`, an unmatched `selInstr`, output and math calls must see
//! exact per-call dispatch), at `Halt`, and before a µop whose successor
//! would leave the text section (so the strict fallthrough pc-bounds trap
//! is always raised by the exact step). Instructions that can trap
//! mid-block (memory, divide, push/pop) *are* fused: [`Machine::exec_fused`]
//! materializes the exact architectural state at the trapping µop — same
//! cycles (cost of the trapping instruction included, as the exact loop
//! adds cost before stepping), same retired count (trapping instruction not
//! retired), same FI count, and `pc` left on the trapping instruction.
//!
//! The fused loops ([`Machine::run_sb_calls`], [`Machine::run_sb_probed`],
//! [`Machine::run_sb_converging_calls`] /
//! [`Machine::run_sb_converging_probed`], and the profiling run
//! [`Machine::run_sb_checkpointed`]) mirror their exact counterparts'
//! accounting bit-for-bit and fall back to single exact steps whenever a
//! block could cross a semantic boundary the exact loop observes
//! per-instruction: the FI-event stop count, the cycle budget, a golden
//! snapshot's `(fi_count, pc)` match point, or a due profiling snapshot.
//! A block with `E > 0` FI events is fused only while no event inside it
//! can matter: in the quiescent loops when `count + E < stop`, in the
//! convergence loop when the cursor snapshot's FI count exceeds
//! `count + E`. Fused events reach the runtime through
//! [`FiRuntime::count_fused_events`].

use crate::binary::Binary;
use crate::checkpoint::{
    CheckpointBuilder, CheckpointConfig, CheckpointStore, Predecoded, PAGE_WORDS,
};
use crate::digest::BaselineHashes;
use crate::isa::{AluOp, Cc, CvtKind, FAluOp, MInstr, Mem, RtFunc};
use crate::machine::{
    ConvStats, GoldenEnd, Machine, RunConfig, RunOutcome, RunResult, Step, Trap, GLOBAL_BASE,
};
use crate::rt::{FiRuntime, NoFi};

/// A µop handler: executes one fused instruction's data side effects.
/// Never touches `pc`, `cycles` or `instrs_retired` — the block dispatcher
/// accounts for those in bulk.
type UopFn = fn(&mut Machine<'_>, &Uop) -> Result<(), Trap>;

/// One predecoded instruction with fully resolved operand offsets. The
/// field meaning is per-handler; for memory ops `a`/`b`/`c` are base
/// register / index register / scale, `d` the data register, and `imm` the
/// displacement. `next` is the pc of the µop that follows in a chain.
#[derive(Debug, Clone, Copy)]
struct Uop {
    exec: UopFn,
    a: u8,
    b: u8,
    c: u8,
    d: u8,
    next: u32,
    imm: u64,
}

/// Dispatch counters for the superblock engine, reported through
/// `TrialFastStats` and the telemetry registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct SbStats {
    /// Fused block dispatches (including blocks cut short by a trap).
    pub dispatches: u64,
    /// Instructions retired through fused dispatch.
    pub fused_instrs: u64,
    /// Instructions retired through exact single-step fallback inside the
    /// superblock loops.
    pub stepped_instrs: u64,
}

impl SbStats {
    /// Total instructions retired under superblock loops (fused + stepped).
    pub fn total_instrs(&self) -> u64 {
        self.fused_instrs + self.stepped_instrs
    }
}

/// The predecoded, superblock-fused form of one binary's text section.
///
/// Built once per prepared artifact (like [`Predecoded`], which it embeds
/// for the exact-step fallback) and shared read-only across trial threads.
/// The `fused_*` suffix sums follow each pc's chain: for µops `pc` and `k`
/// of one chain, `fused_x[pc] - fused_x[k]` is the sum over the µops from
/// `pc` up to (excluding) `k`, and `fused_x[pc]` alone is the whole
/// block's sum when `pc` heads a block.
#[derive(Debug)]
pub struct SuperblockProgram {
    /// One µop per text instruction; terminator slots hold a placeholder
    /// that is never dispatched (their `fused_len` is 0).
    uops: Vec<Uop>,
    /// `fused_len[pc]` = number of µops in the chain headed at `pc` (0 when
    /// `pc` starts no block and must be stepped exactly).
    fused_len: Vec<u32>,
    /// Suffix-sum cycle costs.
    fused_cost: Vec<u32>,
    /// Suffix-sum retired instructions (a collapsed site retires ten).
    fused_retired: Vec<u32>,
    /// Suffix-sum FI-target counts (PINFI accounting).
    fused_targets: Vec<u32>,
    /// Suffix-sum FI events (collapsed sites, LLFI inject calls).
    fused_events: Vec<u32>,
    /// Number of REFINE sites collapsed into one µop.
    collapsed_sites: usize,
    /// The plain predecoded stream for exact-step fallback, so superblock
    /// callers don't also need a separate [`Predecoded`].
    pre: Predecoded,
}

impl SuperblockProgram {
    /// Predecode and fuse `binary`'s text section.
    pub fn new(binary: &Binary) -> Self {
        let text = &binary.text;
        let n = text.len();
        let pre = Predecoded::new(binary);
        let mut uops: Vec<Uop> = text.iter().enumerate().map(|(pc, i)| lower(pc, i)).collect();
        let mut fused_len = vec![0u32; n];
        let mut fused_cost = vec![0u32; n];
        let mut fused_retired = vec![0u32; n];
        let mut fused_targets = vec![0u32; n];
        let mut fused_events = vec![0u32; n];
        let mut collapsed_sites = 0;
        let entry = |pc: usize| pre.entry(pc as u32).expect("pc in range");
        // Reverse scan: a µop's successor is summed before the µop itself
        // whenever the successor lies later in the text, which holds for
        // `pc + 1` and for every site the REFINE pass lays out.
        for pc in (0..n).rev() {
            // Own (cost, retired, targets, events) of the µop at `pc`.
            let own = if let Some(site) = match_site(binary, pc) {
                uops[pc] = site;
                collapsed_sites += 1;
                let post = site.next as usize - 3;
                (pc..pc + 7).chain(post..post + 3).fold((0, 10, 0, 1), |(c, r, t, e), k| {
                    (c + entry(k).cost, r, t + u64::from(entry(k).is_target), e)
                })
            } else if is_terminator(&text[pc]) {
                continue;
            } else {
                let e = entry(pc);
                (e.cost, 1, u64::from(e.is_target), u64::from(is_llfi_inject(&text[pc])))
            };
            let next = uops[pc].next as usize;
            // A µop whose successor leaves the text is left to the exact
            // step's pc-bounds trap.
            if next >= n {
                continue;
            }
            // Link the successor's chain when it is already summed;
            // otherwise the chain ends after this µop.
            let tail = |v: &[u32]| if next > pc { u64::from(v[next]) } else { 0 };
            // Cycle costs are positive, so the cost sum bounds the others.
            let Ok(cost) = u32::try_from(own.0 + tail(&fused_cost)) else { continue };
            fused_cost[pc] = cost;
            fused_retired[pc] = (own.1 + tail(&fused_retired)) as u32;
            fused_targets[pc] = (own.2 + tail(&fused_targets)) as u32;
            fused_events[pc] = (own.3 + tail(&fused_events)) as u32;
            fused_len[pc] = (1 + tail(&fused_len)) as u32;
        }
        SuperblockProgram {
            uops,
            fused_len,
            fused_cost,
            fused_retired,
            fused_targets,
            fused_events,
            collapsed_sites,
            pre,
        }
    }

    /// The embedded exact-step predecoded stream.
    pub fn pre(&self) -> &Predecoded {
        &self.pre
    }

    /// Number of predecoded instructions (== text length).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the text section is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Number of superblock heads (distinct fused blocks a run can enter).
    pub fn block_count(&self) -> usize {
        (0..self.uops.len())
            .filter(|&pc| self.fused_len[pc] > 0 && (pc == 0 || self.fused_len[pc - 1] == 0))
            .count()
    }

    /// Number of REFINE sites collapsed into a single µop.
    pub fn collapsed_sites(&self) -> usize {
        self.collapsed_sites
    }

    /// PINFI targets the block headed at `pc` fetched: all of them, or
    /// those before the trapping µop `trap` plus the trapping one.
    #[inline]
    fn fetched_targets(&self, pc: usize, trap: Option<usize>) -> u64 {
        match trap {
            None => u64::from(self.fused_targets[pc]),
            Some(k) => {
                let e = self.pre.entry(k as u32).expect("pc in range");
                u64::from(self.fused_targets[pc] - self.fused_targets[k]) + u64::from(e.is_target)
            }
        }
    }

    /// Cycles, retired instructions and FI events the µops of the chain
    /// headed at `pc` before `k` account for (`k` on that chain).
    #[inline]
    fn prefix(&self, pc: usize, k: usize) -> (u64, u64, u64) {
        (
            u64::from(self.fused_cost[pc] - self.fused_cost[k]),
            u64::from(self.fused_retired[pc] - self.fused_retired[k]),
            u64::from(self.fused_events[pc] - self.fused_events[k]),
        )
    }
}

fn is_terminator(i: &MInstr) -> bool {
    match i {
        MInstr::Jmp { .. }
        | MInstr::Jcc { .. }
        | MInstr::Call { .. }
        | MInstr::Ret
        | MInstr::Halt => true,
        MInstr::CallRt { .. } => !is_llfi_inject(i),
        _ => false,
    }
}

/// `CallRt injectFault`: under a runtime that cannot fire it counts one
/// event and returns its value unchanged, so it fuses as a counting µop.
fn is_llfi_inject(i: &MInstr) -> bool {
    matches!(i, MInstr::CallRt { func: RtFunc::LlfiInjectI | RtFunc::LlfiInjectF, .. })
}

/// Match the non-firing REFINE site idiom (see the module docs) headed at
/// `pc` and return its collapsed µop, whose `next` is `post + 3`. Both
/// save slots must be distinct aligned absolute data words, so the µop
/// cannot trap; anything else is left to ordinary fusion.
fn match_site(binary: &Binary, pc: usize) -> Option<Uop> {
    let text = &binary.text;
    // The save slot's data-word index, when `mem` is an aligned absolute
    // address inside the data segment.
    let slot = |mem: &Mem| -> Option<u32> {
        if mem.base.is_some() || mem.index.is_some() {
            return None;
        }
        let off = (mem.disp as u64).checked_sub(GLOBAL_BASE)?;
        let w = off / 8;
        (off % 8 == 0 && w < binary.data.len() as u64).then_some(w).and_then(|w| w.try_into().ok())
    };
    // selInstr returns in r0, so the idiom saves and restores r0.
    let [MInstr::St { rs: 0, mem: s0 }, MInstr::RdFlags { rd: 0 }, MInstr::St { rs: 0, mem: sf }, MInstr::CallRt { func: RtFunc::FiSelInstr, .. }, MInstr::CmpI { ra: 0, imm: 0 }, MInstr::Jcc { cc: Cc::Ne, .. }, MInstr::Jmp { target: post }] =
        text.get(pc..pc + 7)?
    else {
        return None;
    };
    let post = *post as usize;
    let [MInstr::Ld { rd: 0, mem: lf }, MInstr::WrFlags { rs: 0 }, MInstr::Ld { rd: 0, mem: l0 }] =
        text.get(post..post + 3)?
    else {
        return None;
    };
    let (w0, wf) = (slot(s0)?, slot(sf)?);
    if w0 == wf || lf != sf || l0 != s0 {
        return None;
    }
    Some(Uop {
        exec: u_site,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        next: (post + 3) as u32,
        imm: u64::from(w0) | u64::from(wf) << 32,
    })
}

impl<'a> Machine<'a> {
    /// Superblock variant of [`Machine::run_checkpointed`] for call-hook
    /// binaries (no probe): the same run, result and snapshots, with
    /// straight-line runs dispatched fused. A block is fused only when it
    /// ends before the next snapshot is due, so every snapshot is taken
    /// after the same exactly stepped instruction as on the exact loop.
    pub fn run_sb_checkpointed<R: FiRuntime + ?Sized>(
        binary: &'a Binary,
        cfg: &RunConfig,
        sb: &SuperblockProgram,
        rt: &mut R,
        ckpt: &CheckpointConfig,
    ) -> (RunResult, CheckpointStore) {
        let baseline = BaselineHashes::new(&binary.data, cfg.stack_words, ckpt.exempt_data_words);
        let mut builder = CheckpointBuilder::new(ckpt, baseline);
        let mut m = Machine::new(binary, cfg);
        let mut stats = SbStats::default();
        let outcome = m
            .sb_calls_core(sb, rt, u64::MAX, cfg.max_cycles, &mut stats, Some(&mut builder))
            .expect("cycle-bounded run terminates");
        (m.into_result(outcome), builder.finish(cfg.stack_words))
    }

    /// Execute the superblock headed at `pc` (`n = fused_len[pc] > 0`
    /// guaranteed by the caller), reporting its FI events to `rt`. On
    /// success `pc` lands on the chain's successor of its last µop; on a
    /// trap the architectural state and FI count are exactly what the
    /// per-instruction loop would have left.
    #[inline]
    fn exec_fused<R: FiRuntime + ?Sized>(
        &mut self,
        sb: &SuperblockProgram,
        pc: usize,
        n: u32,
        rt: &mut R,
        stats: &mut SbStats,
    ) -> Result<(), Trap> {
        let mut k = pc;
        for _ in 0..n {
            let u = &sb.uops[k];
            if let Err(t) = (u.exec)(self, u) {
                // The exact loop adds the trapping instruction's cost
                // before stepping but does not retire it, and leaves pc on
                // the trapping instruction. A collapsed site cannot trap,
                // so `k` is a plain instruction.
                let (cycles, retired, events) = sb.prefix(pc, k);
                self.cycles += cycles + sb.pre.entry(k as u32).expect("pc in range").cost;
                self.instrs_retired += retired;
                rt.count_fused_events(events);
                self.pc = k as u32;
                stats.dispatches += 1;
                stats.fused_instrs += retired;
                return Err(t);
            }
            k = u.next as usize;
        }
        let retired = u64::from(sb.fused_retired[pc]);
        self.cycles += u64::from(sb.fused_cost[pc]);
        self.instrs_retired += retired;
        rt.count_fused_events(u64::from(sb.fused_events[pc]));
        self.pc = k as u32;
        stats.dispatches += 1;
        stats.fused_instrs += retired;
        Ok(())
    }

    /// Superblock variant of [`Machine::run_quiescent_calls`]: identical
    /// return contract and accounting, with straight-line runs dispatched
    /// fused. Generic over the runtime so post-fire run-to-end can reuse it
    /// with the live injector (`stop = u64::MAX`); `rt` must not be able to
    /// fire at any event below `stop`.
    pub fn run_sb_calls<R: FiRuntime + ?Sized>(
        &mut self,
        sb: &SuperblockProgram,
        rt: &mut R,
        stop: u64,
        max_cycles: u64,
        stats: &mut SbStats,
    ) -> Option<RunOutcome> {
        self.sb_calls_core(sb, rt, stop, max_cycles, stats, None)
    }

    /// [`Machine::run_sb_calls`], optionally capturing profiling snapshots
    /// into `builder` exactly where the exact loop does (after the
    /// instruction whose retirement makes one due).
    #[inline(always)]
    fn sb_calls_core<R: FiRuntime + ?Sized>(
        &mut self,
        sb: &SuperblockProgram,
        rt: &mut R,
        stop: u64,
        max_cycles: u64,
        stats: &mut SbStats,
        mut builder: Option<&mut CheckpointBuilder>,
    ) -> Option<RunOutcome> {
        debug_assert_eq!(sb.len(), self.binary.text.len());
        let mut next_due = builder.as_deref().map_or(u64::MAX, |b| b.next_due(self.instrs_retired));
        while rt.fi_count() < stop {
            if self.cycles >= max_cycles {
                return Some(RunOutcome::Timeout);
            }
            let pc = self.pc as usize;
            let n = sb.fused_len.get(pc).copied().unwrap_or(0);
            // Strict `<`: block-final cycles below budget implies no
            // interior per-instruction timeout check could have fired
            // (cycle costs are positive, so prefixes are strictly
            // smaller). The events rule keeps the count below `stop` at
            // every point inside the block, so the loop-top stop check
            // stays exact; likewise no snapshot falls due inside it.
            if n > 0
                && self.cycles + u64::from(sb.fused_cost[pc]) < max_cycles
                && rt.fi_count() + u64::from(sb.fused_events[pc]) < stop
                && self.instrs_retired + u64::from(sb.fused_retired[pc]) < next_due
            {
                match self.exec_fused(sb, pc, n, rt, stats) {
                    Ok(()) => continue,
                    Err(t) => return Some(RunOutcome::Trap(t)),
                }
            }
            let Some(e) = sb.pre.entry(self.pc) else {
                return Some(RunOutcome::Trap(Trap::BadPc(self.pc as u64)));
            };
            self.cycles += e.cost;
            match self.step(&e.instr, rt) {
                Ok(Step::Continue) => {
                    self.instrs_retired += 1;
                    stats.stepped_instrs += 1;
                    if let Some(b) = builder.as_deref_mut() {
                        if b.due(self.instrs_retired) {
                            b.push(self.snapshot(rt.fi_count()));
                        }
                        next_due = b.next_due(self.instrs_retired);
                    }
                }
                Ok(Step::Halt(code)) => return Some(RunOutcome::Exit(code)),
                Err(t) => return Some(RunOutcome::Trap(t)),
            }
        }
        None
    }

    /// Superblock variant of [`Machine::run_quiescent_probed`]: identical
    /// return contract and attached-probe accounting (`overhead` cycles and
    /// FI-target tally per fetched instruction, both charged even for the
    /// trapping instruction).
    pub fn run_sb_probed(
        &mut self,
        sb: &SuperblockProgram,
        overhead: u64,
        count: &mut u64,
        stop: u64,
        max_cycles: u64,
        stats: &mut SbStats,
    ) -> Option<RunOutcome> {
        debug_assert_eq!(sb.len(), self.binary.text.len());
        let mut rt = NoFi;
        while *count < stop {
            if self.cycles >= max_cycles {
                return Some(RunOutcome::Timeout);
            }
            let pc = self.pc as usize;
            let n = sb.fused_len.get(pc).copied().unwrap_or(0);
            // Strict `<` on the target count: if the block could reach
            // `stop` at or before its end, fall back to exact stepping so
            // the boundary instruction is the last one executed — exactly
            // as the per-instruction loop stops.
            if n > 0
                && *count + u64::from(sb.fused_targets[pc]) < stop
                && self.cycles
                    + u64::from(sb.fused_cost[pc])
                    + u64::from(sb.fused_retired[pc]) * overhead
                    < max_cycles
            {
                let before = self.instrs_retired;
                let fused = self.exec_fused(sb, pc, n, &mut rt, stats);
                *count += sb.fetched_targets(pc, fused.is_err().then_some(self.pc as usize));
                // Every retired instruction was fetched; so was a trapping one.
                let fetched = self.instrs_retired - before + u64::from(fused.is_err());
                self.cycles += fetched * overhead;
                match fused {
                    Ok(()) => continue,
                    Err(t) => return Some(RunOutcome::Trap(t)),
                }
            }
            let Some(e) = sb.pre.entry(self.pc) else {
                return Some(RunOutcome::Trap(Trap::BadPc(self.pc as u64)));
            };
            self.cycles += overhead + e.cost;
            if e.is_target {
                *count += 1;
            }
            match self.step(&e.instr, &mut rt) {
                Ok(Step::Continue) => {
                    self.instrs_retired += 1;
                    stats.stepped_instrs += 1;
                }
                Ok(Step::Halt(code)) => return Some(RunOutcome::Exit(code)),
                Err(t) => return Some(RunOutcome::Trap(t)),
            }
        }
        None
    }

    /// Superblock variant of [`Machine::run_converging_calls`]: same
    /// snapshot-matching and splice semantics, with fused dispatch between
    /// match points. Runs post-fire with the live injector, so a re-entered
    /// `setupFI` draws and logs exactly as on the exact interpreter.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sb_converging_calls<R: FiRuntime + ?Sized>(
        &mut self,
        sb: &SuperblockProgram,
        rt: &mut R,
        store: &CheckpointStore,
        golden: GoldenEnd<'_>,
        max_cycles: u64,
        stats: &mut ConvStats,
        sb_stats: &mut SbStats,
    ) -> RunOutcome {
        self.sb_converge_core::<R, false>(
            sb, rt, &mut 0, store, golden, max_cycles, stats, sb_stats,
        )
    }

    /// Superblock variant of [`Machine::run_converging_probed`]: detached
    /// execution with fetch-time FI-target tallying, fused between snapshot
    /// match points.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sb_converging_probed(
        &mut self,
        sb: &SuperblockProgram,
        count: &mut u64,
        store: &CheckpointStore,
        golden: GoldenEnd<'_>,
        max_cycles: u64,
        stats: &mut ConvStats,
        sb_stats: &mut SbStats,
    ) -> RunOutcome {
        let mut rt = NoFi;
        self.sb_converge_core::<NoFi, true>(
            sb, &mut rt, count, store, golden, max_cycles, stats, sb_stats,
        )
    }

    /// Shared fused convergence loop; see [`Machine`]'s exact
    /// `converge_core` for the snapshot-matching discipline it replicates.
    /// A block is fused only when no golden snapshot `(fi_count, pc)` match
    /// point can fall strictly inside it:
    ///
    /// * call-hook tools, block without FI events: the FI count is constant
    ///   across the block and its pcs are contiguous, so only the cursor
    ///   snapshot could match, and only at a pc strictly inside the block —
    ///   excluded explicitly;
    /// * call-hook tools, block with `E` FI events: fuse only when the
    ///   cursor snapshot's FI count exceeds `count + E`, the count at the
    ///   block's end;
    /// * probed tool: the count advances at fetches inside the block, so
    ///   fuse only when the cursor snapshot's window starts strictly after
    ///   the whole block's final count.
    #[allow(clippy::too_many_arguments)]
    fn sb_converge_core<R: FiRuntime + ?Sized, const PROBED: bool>(
        &mut self,
        sb: &SuperblockProgram,
        rt: &mut R,
        count: &mut u64,
        store: &CheckpointStore,
        golden: GoldenEnd<'_>,
        max_cycles: u64,
        stats: &mut ConvStats,
        sb_stats: &mut SbStats,
    ) -> RunOutcome {
        debug_assert_eq!(sb.len(), self.binary.text.len());
        let entry_retired = self.instrs_retired;
        let fi_entry = if PROBED { *count } else { rt.fi_count() };
        let mut cursor = store.checkpoints.partition_point(|c| c.fi_count < fi_entry);
        let mut inited = false;
        let outcome = 'run: loop {
            let fi = if PROBED { *count } else { rt.fi_count() };
            while store.checkpoints.get(cursor).is_some_and(|c| c.fi_count < fi) {
                cursor += 1;
            }
            if let Some(ck) = store.checkpoints.get(cursor) {
                if ck.fi_count == fi && ck.pc == self.pc {
                    if !inited {
                        self.conv_seed(&store.baseline);
                        inited = true;
                    }
                    let digest = self.conv_refresh(fi);
                    if digest == ck.digest {
                        let suffix_retired = golden.retired - ck.retired;
                        let suffix_fetches = suffix_retired + 1;
                        let suffix_cycles = (golden.cycles - ck.cycles)
                            - golden.probe_overhead * suffix_fetches;
                        let final_cycles = self.cycles + suffix_cycles;
                        if final_cycles < max_cycles {
                            stats.converged = true;
                            stats.checked_instrs = self.instrs_retired - entry_retired;
                            stats.saved_instrs = suffix_retired;
                            self.cycles = final_cycles;
                            self.instrs_retired += suffix_retired;
                            self.output.clear();
                            self.output.extend_from_slice(golden.output);
                            break 'run RunOutcome::Exit(golden.exit_code);
                        }
                    }
                }
            }
            if self.cycles >= max_cycles {
                break 'run RunOutcome::Timeout;
            }
            let pc = self.pc as usize;
            let n = sb.fused_len.get(pc).copied().unwrap_or(0);
            if n > 0 && self.cycles + u64::from(sb.fused_cost[pc]) < max_cycles {
                let fusable = match store.checkpoints.get(cursor) {
                    None => true,
                    Some(ck) if PROBED => ck.fi_count > *count + u64::from(sb.fused_targets[pc]),
                    Some(ck) => match sb.fused_events[pc] {
                        0 => {
                            ck.fi_count != fi
                                || (ck.pc as usize) <= pc
                                || (ck.pc as usize) >= pc + n as usize
                        }
                        e => ck.fi_count > fi + u64::from(e),
                    },
                };
                if fusable {
                    let fused = self.exec_fused(sb, pc, n, rt, sb_stats);
                    if PROBED {
                        *count +=
                            sb.fetched_targets(pc, fused.is_err().then_some(self.pc as usize));
                    }
                    match fused {
                        Ok(()) => continue,
                        Err(t) => break 'run RunOutcome::Trap(t),
                    }
                }
            }
            let Some(e) = sb.pre.entry(self.pc) else {
                break 'run RunOutcome::Trap(Trap::BadPc(self.pc as u64));
            };
            self.cycles += e.cost;
            if PROBED && e.is_target {
                *count += 1;
            }
            // TRACK=true is a no-op until the hasher is live, so a single
            // monomorphization covers both phases without semantic drift.
            match self.step_t::<R, true>(&e.instr, rt) {
                Ok(Step::Continue) => {
                    self.instrs_retired += 1;
                    sb_stats.stepped_instrs += 1;
                }
                Ok(Step::Halt(code)) => break 'run RunOutcome::Exit(code),
                Err(t) => break 'run RunOutcome::Trap(t),
            }
        };
        self.conv = None;
        if !stats.converged {
            stats.checked_instrs = self.instrs_retired - entry_retired;
        }
        outcome
    }
}

// --- µop handlers -----------------------------------------------------------
//
// Each handler mirrors one `step_t` arm's data side effects exactly. Stores
// always use `mem_write_t::<true>` / `push_t::<true>`: page tracking is a
// no-op while no convergence hasher is live, and required when one is.

fn u_nop(_m: &mut Machine<'_>, _u: &Uop) -> Result<(), Trap> {
    Ok(())
}

fn u_term(_m: &mut Machine<'_>, _u: &Uop) -> Result<(), Trap> {
    unreachable!("terminator µop is never dispatched fused")
}

fn u_mov_rr(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.a as usize] = m.regs[u.b as usize];
    Ok(())
}

fn u_mov_ri(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.a as usize] = u.imm;
    Ok(())
}

fn u_fmov_rr(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.fregs[u.a as usize] = m.fregs[u.b as usize];
    Ok(())
}

fn u_fmov_ri(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.fregs[u.a as usize] = u.imm;
    Ok(())
}

const ALU_OPS: [AluOp; 11] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::LShr,
    AluOp::AShr,
];

fn u_alu_rr<const OP: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let r = m.alu(
        ALU_OPS[OP],
        m.regs[u.b as usize] as i64,
        m.regs[u.c as usize] as i64,
    )?;
    m.regs[u.a as usize] = r as u64;
    Ok(())
}

fn u_alu_ri<const OP: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let r = m.alu(ALU_OPS[OP], m.regs[u.b as usize] as i64, u.imm as i64)?;
    m.regs[u.a as usize] = r as u64;
    Ok(())
}

fn alu_rr_fn(op: AluOp) -> UopFn {
    match op {
        AluOp::Add => u_alu_rr::<0>,
        AluOp::Sub => u_alu_rr::<1>,
        AluOp::Mul => u_alu_rr::<2>,
        AluOp::Div => u_alu_rr::<3>,
        AluOp::Rem => u_alu_rr::<4>,
        AluOp::And => u_alu_rr::<5>,
        AluOp::Or => u_alu_rr::<6>,
        AluOp::Xor => u_alu_rr::<7>,
        AluOp::Shl => u_alu_rr::<8>,
        AluOp::LShr => u_alu_rr::<9>,
        AluOp::AShr => u_alu_rr::<10>,
    }
}

fn alu_ri_fn(op: AluOp) -> UopFn {
    match op {
        AluOp::Add => u_alu_ri::<0>,
        AluOp::Sub => u_alu_ri::<1>,
        AluOp::Mul => u_alu_ri::<2>,
        AluOp::Div => u_alu_ri::<3>,
        AluOp::Rem => u_alu_ri::<4>,
        AluOp::And => u_alu_ri::<5>,
        AluOp::Or => u_alu_ri::<6>,
        AluOp::Xor => u_alu_ri::<7>,
        AluOp::Shl => u_alu_ri::<8>,
        AluOp::LShr => u_alu_ri::<9>,
        AluOp::AShr => u_alu_ri::<10>,
    }
}

fn u_cmp(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.cmp_flags(m.regs[u.a as usize] as i64, m.regs[u.b as usize] as i64);
    Ok(())
}

fn u_cmp_i(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.cmp_flags(m.regs[u.a as usize] as i64, u.imm as i64);
    Ok(())
}

const CCS: [Cc; 6] = [Cc::E, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge];

fn u_setcc<const C: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.a as usize] = CCS[C].eval(m.flags) as u64;
    Ok(())
}

fn setcc_fn(cc: Cc) -> UopFn {
    match cc {
        Cc::E => u_setcc::<0>,
        Cc::Ne => u_setcc::<1>,
        Cc::Lt => u_setcc::<2>,
        Cc::Le => u_setcc::<3>,
        Cc::Gt => u_setcc::<4>,
        Cc::Ge => u_setcc::<5>,
    }
}

fn u_falu<const OP: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let (a, b) = (m.f(u.b), m.f(u.c));
    let r = match OP {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a / b,
        4 => a.min(b),
        _ => a.max(b),
    };
    m.set_f(u.a, r);
    Ok(())
}

fn falu_fn(op: FAluOp) -> UopFn {
    match op {
        FAluOp::Add => u_falu::<0>,
        FAluOp::Sub => u_falu::<1>,
        FAluOp::Mul => u_falu::<2>,
        FAluOp::Div => u_falu::<3>,
        FAluOp::Min => u_falu::<4>,
        FAluOp::Max => u_falu::<5>,
    }
}

fn u_fcmp(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let (a, b) = (m.f(u.a), m.f(u.b));
    m.fcmp_flags(a, b);
    Ok(())
}

fn u_cvt<const K: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    match K {
        0 => {
            let v = m.regs[u.b as usize] as i64 as f64;
            m.set_f(u.a, v);
        }
        1 => m.regs[u.a as usize] = (m.f(u.b) as i64) as u64,
        2 => m.fregs[u.a as usize] = m.regs[u.b as usize],
        _ => m.regs[u.a as usize] = m.fregs[u.b as usize],
    }
    Ok(())
}

fn cvt_fn(kind: CvtKind) -> UopFn {
    match kind {
        CvtKind::SiToF => u_cvt::<0>,
        CvtKind::FToSi => u_cvt::<1>,
        CvtKind::BitsToF => u_cvt::<2>,
        CvtKind::FToBits => u_cvt::<3>,
    }
}

/// Effective address with the memory shape burned in as const generics, so
/// the fused path has no `Option` branches.
#[inline(always)]
fn uop_addr<const BASE: bool, const INDEX: bool>(m: &Machine<'_>, u: &Uop) -> u64 {
    let mut a = u.imm;
    if BASE {
        a = a.wrapping_add(m.regs[u.a as usize]);
    }
    if INDEX {
        a = a.wrapping_add(m.regs[u.b as usize].wrapping_mul(u.c as u64));
    }
    a
}

fn u_ld<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.regs[u.d as usize] = m.mem_read(a)?;
    Ok(())
}

fn u_st<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.mem_write_t::<true>(a, m.regs[u.d as usize])
}

fn u_fld<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.fregs[u.d as usize] = m.mem_read(a)?;
    Ok(())
}

fn u_fst<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let a = uop_addr::<BASE, INDEX>(m, u);
    m.mem_write_t::<true>(a, m.fregs[u.d as usize])
}

fn u_lea<const BASE: bool, const INDEX: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.d as usize] = uop_addr::<BASE, INDEX>(m, u);
    Ok(())
}

fn u_push(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.push_t::<true>(m.regs[u.a as usize])
}

fn u_pop(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let v = m.pop()?;
    m.regs[u.a as usize] = v;
    Ok(())
}

fn u_rdflags(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.regs[u.a as usize] = m.flags as u64;
    Ok(())
}

fn u_wrflags(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.flags = (m.regs[u.a as usize] & 0xf) as u8;
    Ok(())
}

fn u_fxori(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.fregs[u.a as usize] ^= u.imm;
    Ok(())
}

/// A collapsed non-firing REFINE site: `imm` packs the r0 and FLAGS save
/// slots' data-word indices (low and high 32 bits), validated at build
/// time, so the stores cannot trap.
fn u_site(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let (s0, sf) = (u.imm as u32 as usize, (u.imm >> 32) as usize);
    m.data[s0] = m.regs[0];
    m.data[sf] = u64::from(m.flags);
    m.flags &= 0xf;
    if let Some(c) = m.conv.as_mut() {
        c.mark_data((s0 / PAGE_WORDS) as u32);
        c.mark_data((sf / PAGE_WORDS) as u32);
    }
    Ok(())
}

/// Select the memory-shape instantiation of a base/index const-generic
/// handler for `$mem` and build its µop (a = base, b = index, c = scale,
/// d = data register, imm = displacement).
macro_rules! mem_uop {
    ($f:ident, $mem:expr, $data:expr, $next:expr) => {{
        let mem: &Mem = $mem;
        let exec: UopFn = match (mem.base.is_some(), mem.index.is_some()) {
            (false, false) => $f::<false, false>,
            (true, false) => $f::<true, false>,
            (false, true) => $f::<false, true>,
            (true, true) => $f::<true, true>,
        };
        let (ix, scale) = mem.index.unwrap_or((0, 0));
        Uop {
            exec,
            a: mem.base.unwrap_or(0),
            b: ix,
            c: scale,
            d: $data,
            next: $next,
            imm: mem.disp as u64,
        }
    }};
}

/// Lower the instruction at `pc` to its µop (successor `pc + 1`).
/// Terminators get a placeholder that is never dispatched (their
/// `fused_len` is always 0); `injectFault` lowers to a no-op whose event
/// the block counts.
fn lower(pc: usize, instr: &MInstr) -> Uop {
    let next = pc as u32 + 1;
    let simple =
        |exec: UopFn, a: u8, b: u8, c: u8, imm: u64| Uop { exec, a, b, c, d: 0, next, imm };
    match *instr {
        MInstr::Nop => simple(u_nop, 0, 0, 0, 0),
        MInstr::MovRR { rd, ra } => simple(u_mov_rr, rd, ra, 0, 0),
        MInstr::MovRI { rd, imm } => simple(u_mov_ri, rd, 0, 0, imm as u64),
        MInstr::FMovRR { fd, fa } => simple(u_fmov_rr, fd, fa, 0, 0),
        MInstr::FMovRI { fd, imm } => simple(u_fmov_ri, fd, 0, 0, imm),
        MInstr::Alu { op, rd, ra, rb } => simple(alu_rr_fn(op), rd, ra, rb, 0),
        MInstr::AluI { op, rd, ra, imm } => simple(alu_ri_fn(op), rd, ra, 0, imm as u64),
        MInstr::Cmp { ra, rb } => simple(u_cmp, ra, rb, 0, 0),
        MInstr::CmpI { ra, imm } => simple(u_cmp_i, ra, 0, 0, imm as u64),
        MInstr::SetCc { cc, rd } => simple(setcc_fn(cc), rd, 0, 0, 0),
        MInstr::FAlu { op, fd, fa, fb } => simple(falu_fn(op), fd, fa, fb, 0),
        MInstr::FCmp { fa, fb } => simple(u_fcmp, fa, fb, 0, 0),
        MInstr::Cvt { kind, dst, src } => simple(cvt_fn(kind), dst, src, 0, 0),
        MInstr::Ld { rd, ref mem } => mem_uop!(u_ld, mem, rd, next),
        MInstr::St { rs, ref mem } => mem_uop!(u_st, mem, rs, next),
        MInstr::FLd { fd, ref mem } => mem_uop!(u_fld, mem, fd, next),
        MInstr::FSt { fs, ref mem } => mem_uop!(u_fst, mem, fs, next),
        MInstr::Push { rs } => simple(u_push, rs, 0, 0, 0),
        MInstr::Pop { rd } => simple(u_pop, rd, 0, 0, 0),
        MInstr::RdFlags { rd } => simple(u_rdflags, rd, 0, 0, 0),
        MInstr::WrFlags { rs } => simple(u_wrflags, rs, 0, 0, 0),
        MInstr::FXorI { fd, imm } => simple(u_fxori, fd, 0, 0, imm),
        MInstr::Lea { rd, ref mem } => mem_uop!(u_lea, mem, rd, next),
        MInstr::CallRt { func: RtFunc::LlfiInjectI | RtFunc::LlfiInjectF, .. } => {
            simple(u_nop, 0, 0, 0, 0)
        }
        MInstr::Jmp { .. }
        | MInstr::Jcc { .. }
        | MInstr::Call { .. }
        | MInstr::Ret
        | MInstr::CallRt { .. }
        | MInstr::Halt => simple(u_term, 0, 0, 0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{Binary, Symbol};
    use crate::checkpoint::CheckpointConfig;
    use crate::machine::RunConfig;
    use crate::rt::QuiescentRt;

    fn bin(text: Vec<MInstr>) -> Binary {
        let end = text.len() as u32;
        Binary {
            text,
            data: vec![0; 8],
            symbols: vec![Symbol { name: "main".into(), entry: 0, end }],
            strings: vec!["hello".into()],
            entry: 0,
        }
    }

    /// Drive a full run through `run_sb_calls` with a NoFi runtime (stop
    /// never reached) and return (outcome, cycles, retired).
    fn run_sb(b: &Binary) -> (RunOutcome, u64, u64, SbStats) {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let mut m = Machine::new(b, &cfg);
        let mut stats = SbStats::default();
        let out = m
            .run_sb_calls(&sb, &mut NoFi, u64::MAX, cfg.max_cycles, &mut stats)
            .expect("bounded run terminates");
        (out, m.cycles, m.instrs_retired, stats)
    }

    fn run_exact(b: &Binary) -> (RunOutcome, u64, u64) {
        let r = Machine::run(b, &RunConfig::default(), &mut NoFi, None);
        (r.outcome, r.cycles, r.instrs_retired)
    }

    #[test]
    fn straight_line_block_matches_exact() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 6 },
            MInstr::MovRI { rd: 2, imm: 7 },
            MInstr::Alu { op: AluOp::Mul, rd: 0, ra: 1, rb: 2 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 42 },
            MInstr::Halt,
        ]);
        let (out, cycles, retired, stats) = run_sb(&b);
        assert_eq!((out, cycles, retired), run_exact(&b));
        assert_eq!(out, RunOutcome::Exit(0));
        assert_eq!(stats.dispatches, 1);
        assert_eq!(stats.fused_instrs, 4);
        // Halt ends the run without retiring, exactly like the exact loop.
        assert_eq!(stats.stepped_instrs, 0);
    }

    #[test]
    fn mid_block_trap_materializes_exact_state() {
        // Block: two movs, a div-by-zero (traps), then a mov that must not
        // execute.
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 0 },
            MInstr::Alu { op: AluOp::Div, rd: 0, ra: 1, rb: 2 },
            MInstr::MovRI { rd: 3, imm: 9 },
            MInstr::Halt,
        ]);
        let (out, cycles, retired, _) = run_sb(&b);
        let (eo, ec, er) = run_exact(&b);
        assert_eq!(out, RunOutcome::Trap(Trap::DivFault));
        assert_eq!((out, cycles, retired), (eo, ec, er));
    }

    #[test]
    fn loops_and_branches_match_exact() {
        // Sum 1..=10 with a backward branch: alternating fused bodies and
        // exact-stepped terminators.
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 0 },  // acc
            MInstr::MovRI { rd: 2, imm: 10 }, // i
            MInstr::Alu { op: AluOp::Add, rd: 1, ra: 1, rb: 2 }, // loop head
            MInstr::AluI { op: AluOp::Sub, rd: 2, ra: 2, imm: 1 },
            MInstr::CmpI { ra: 2, imm: 0 },
            MInstr::Jcc { cc: Cc::Gt, target: 2 },
            MInstr::Alu { op: AluOp::Sub, rd: 0, ra: 1, rb: 0 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 55 },
            MInstr::Halt,
        ]);
        let (out, cycles, retired, stats) = run_sb(&b);
        assert_eq!((out, cycles, retired), run_exact(&b));
        assert_eq!(out, RunOutcome::Exit(0));
        assert!(stats.dispatches >= 10);
        assert!(stats.fused_instrs > stats.stepped_instrs);
    }

    #[test]
    fn memory_shapes_resolve_without_options() {
        // abs, base+disp, and base+index*scale addressing in one block.
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 0x0001_0000 }, // GLOBAL_BASE
            MInstr::MovRI { rd: 2, imm: 2 },
            MInstr::MovRI { rd: 3, imm: 77 },
            MInstr::St { rs: 3, mem: Mem { base: Some(1), index: Some((2, 8)), disp: 0 } },
            MInstr::Ld { rd: 4, mem: Mem { base: None, index: None, disp: 0x0001_0010 } },
            MInstr::Alu { op: AluOp::Sub, rd: 0, ra: 4, rb: 3 },
            MInstr::Halt,
        ]);
        let (out, cycles, retired, _) = run_sb(&b);
        assert_eq!((out, cycles, retired), run_exact(&b));
        assert_eq!(out, RunOutcome::Exit(0));
    }

    #[test]
    fn last_instruction_is_never_fused() {
        let b = bin(vec![MInstr::MovRI { rd: 0, imm: 1 }, MInstr::Nop]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.fused_len[1], 0);
        let (out, cycles, retired, _) = run_sb(&b);
        assert_eq!((out, cycles, retired), run_exact(&b));
        assert_eq!(out, RunOutcome::Trap(Trap::BadPc(2)));
    }

    // --- Collapsed REFINE sites -------------------------------------------

    /// Save slots of the test site idiom: FLAGS at data word 0, r0 at 1.
    const SF: i64 = GLOBAL_BASE as i64;
    const S0: i64 = GLOBAL_BASE as i64 + 8;

    /// The PreFI block of a site at `pc`: its `jne` goes to a two-instr
    /// setup stub at `pc + 7`, its `jmp` to `post = pc + 9`.
    fn pre_fi(pc: u32, s0: i64, sf: i64) -> Vec<MInstr> {
        vec![
            MInstr::St { rs: 0, mem: Mem::abs(s0) },
            MInstr::RdFlags { rd: 0 },
            MInstr::St { rs: 0, mem: Mem::abs(sf) },
            MInstr::CallRt { func: RtFunc::FiSelInstr, imm: u64::from(pc) },
            MInstr::CmpI { ra: 0, imm: 0 },
            MInstr::Jcc { cc: Cc::Ne, target: pc + 7 },
            MInstr::Jmp { target: pc + 9 },
            MInstr::MovRI { rd: 0, imm: 99 },
            MInstr::Halt,
        ]
    }

    fn post_fi(s0: i64, sf: i64) -> Vec<MInstr> {
        vec![
            MInstr::Ld { rd: 0, mem: Mem::abs(sf) },
            MInstr::WrFlags { rs: 0 },
            MInstr::Ld { rd: 0, mem: Mem::abs(s0) },
        ]
    }

    /// A three-iteration loop with two instrumented sites per iteration:
    /// site A at pc 3 (post 12, resume 15) and site B at pc 16 (post 25,
    /// resume 28). `after_a` is the instruction at the resume point of A.
    fn site_loop(a_pre: Vec<MInstr>, a_post: Vec<MInstr>, after_a: MInstr) -> Binary {
        let mut t = vec![
            MInstr::MovRI { rd: 2, imm: 3 },
            MInstr::MovRI { rd: 0, imm: 5 },
            MInstr::AluI { op: AluOp::Sub, rd: 2, ra: 2, imm: 1 }, // loop head
        ];
        t.extend(a_pre);
        t.extend(a_post);
        t.push(after_a);
        t.extend(pre_fi(16, S0, SF));
        t.extend(post_fi(S0, SF));
        t.extend([
            MInstr::CmpI { ra: 2, imm: 0 },
            MInstr::Jcc { cc: Cc::Gt, target: 2 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 0, imm: 8 },
            MInstr::Halt,
        ]);
        bin(t)
    }

    fn two_sites() -> Binary {
        let add = MInstr::AluI { op: AluOp::Add, rd: 0, ra: 0, imm: 1 };
        site_loop(pre_fi(3, S0, SF), post_fi(S0, SF), add)
    }

    /// Architectural state compared between engines.
    fn state(m: &Machine<'_>) -> (u64, u64, u32, [u64; 16], u8, Vec<u64>) {
        (m.cycles, m.instrs_retired, m.pc, m.regs, m.flags, m.data.clone())
    }

    /// Run `b` to the end fused and exactly under fresh `R` runtimes and
    /// require identical outcome, state and FI count.
    fn assert_fused_matches_exact<R: FiRuntime + Default>(b: &Binary) -> SbStats {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let (mut fused, mut exact) = (Machine::new(b, &cfg), Machine::new(b, &cfg));
        let (mut rf, mut re) = (R::default(), R::default());
        let mut stats = SbStats::default();
        let out = fused.run_sb_calls(&sb, &mut rf, u64::MAX, cfg.max_cycles, &mut stats);
        let ref_out = exact.run_exact_until_fired(cfg.max_cycles, &mut re, None);
        assert_eq!(out, ref_out);
        assert_eq!(state(&fused), state(&exact));
        assert_eq!(rf.fi_count(), re.fi_count());
        stats
    }

    #[test]
    fn collapsed_sites_match_exact_under_quiescent_and_nofi() {
        let b = two_sites();
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.collapsed_sites(), 2);
        // Block at the loop head: head, site A (10), resume add, site B
        // (10), cmp — two events, one dispatch.
        assert_eq!((sb.fused_len[2], sb.fused_retired[2], sb.fused_events[2]), (5, 23, 2));
        let stats = assert_fused_matches_exact::<QuiescentRt>(&b);
        assert_eq!(stats.stepped_instrs, 3, "only the loop branch is stepped");
        assert_fused_matches_exact::<NoFi>(&b);
        let (out, ..) = run_sb(&b);
        assert_eq!(out, RunOutcome::Exit(0));
    }

    #[test]
    fn stop_inside_a_chain_reaches_the_exact_boundary() {
        let b = two_sites();
        let sb = SuperblockProgram::new(&b);
        let cfg = RunConfig::default();
        for stop in 1..=6 {
            let (mut fused, mut exact) = (Machine::new(&b, &cfg), Machine::new(&b, &cfg));
            let (mut qf, mut qe) = (QuiescentRt::default(), QuiescentRt::default());
            let mut stats = SbStats::default();
            assert_eq!(fused.run_sb_calls(&sb, &mut qf, stop, cfg.max_cycles, &mut stats), None);
            assert_eq!(exact.run_quiescent_calls(sb.pre(), &mut qe, stop, cfg.max_cycles), None);
            assert_eq!((qf.count, fused.pc), (qe.count, exact.pc), "stop {stop}");
            assert_eq!(state(&fused), state(&exact), "stop {stop}");
        }
    }

    #[test]
    fn trap_after_a_collapsed_site_materializes_exact_state() {
        // A misaligned load right at site A's resume point.
        let ld = MInstr::Ld { rd: 3, mem: Mem::abs(S0 + 4) };
        let b = site_loop(pre_fi(3, S0, SF), post_fi(S0, SF), ld);
        assert_eq!(SuperblockProgram::new(&b).collapsed_sites(), 2);
        let stats = assert_fused_matches_exact::<QuiescentRt>(&b);
        assert_eq!(stats.fused_instrs, 13, "two movs, the head and site A");
    }

    #[test]
    fn snapshots_inside_chains_still_match_in_the_convergence_loop() {
        let b = two_sites();
        let sb = SuperblockProgram::new(&b);
        let cfg = RunConfig::default();
        // A snapshot after every retired instruction, so some lie inside
        // collapsed sites and inside chains.
        let ck = CheckpointConfig { interval: 1, max_checkpoints: 1024, ..Default::default() };
        let (golden, store) =
            Machine::run_checkpointed(&b, &cfg, &mut QuiescentRt::default(), None, &ck);
        let end = GoldenEnd {
            exit_code: 0,
            output: &golden.output,
            cycles: golden.cycles,
            retired: golden.instrs_retired,
            probe_overhead: 0,
        };
        assert!(store.checkpoints.len() > 60);
        // With only snapshots j.. left, an unfaulted run must converge at
        // snapshot j exactly: a fused block may not jump over it.
        for j in 0..store.checkpoints.len() {
            let mut tail = store.clone();
            tail.checkpoints.drain(..j);
            let mut m = Machine::new(&b, &cfg);
            let (mut conv, mut stats) = (ConvStats::default(), SbStats::default());
            let mut q = QuiescentRt::default();
            let max = cfg.max_cycles;
            let out =
                m.run_sb_converging_calls(&sb, &mut q, &tail, end, max, &mut conv, &mut stats);
            assert_eq!(out, RunOutcome::Exit(0));
            assert!(conv.converged, "snapshot {j}");
            assert_eq!(conv.checked_instrs, store.checkpoints[j].retired, "snapshot {j}");
            assert_eq!((m.cycles, m.instrs_retired), (golden.cycles, golden.instrs_retired));
        }
    }

    #[test]
    fn fused_profiling_takes_the_exact_snapshots() {
        let b = two_sites();
        let sb = SuperblockProgram::new(&b);
        let cfg = RunConfig::default();
        // A tiny cap forces thinning, which doubles the interval mid-run.
        for (interval, cap) in [(1, 1024), (3, 4), (5, 1024)] {
            let ck = CheckpointConfig { interval, max_checkpoints: cap, ..Default::default() };
            let (mut qf, mut qe) = (QuiescentRt::default(), QuiescentRt::default());
            let (rf, sf) = Machine::run_sb_checkpointed(&b, &cfg, &sb, &mut qf, &ck);
            let (re, se) = Machine::run_checkpointed(&b, &cfg, &mut qe, None, &ck);
            assert_eq!((rf.outcome, rf.cycles), (re.outcome, re.cycles));
            assert_eq!(rf.instrs_retired, re.instrs_retired);
            assert_eq!(sf.interval, se.interval);
            let keys = |s: &CheckpointStore| -> Vec<_> {
                s.checkpoints
                    .iter()
                    .map(|c| (c.retired, c.pc, c.cycles, c.fi_count, c.digest))
                    .collect()
            };
            assert_eq!(keys(&sf), keys(&se), "interval {interval}, cap {cap}");
        }
    }

    #[test]
    fn near_miss_idioms_fall_back_to_plain_fusion() {
        let add = MInstr::AluI { op: AluOp::Add, rd: 0, ra: 0, imm: 1 };
        let mut wrong_reg = pre_fi(3, S0, SF);
        wrong_reg[1] = MInstr::RdFlags { rd: 1 };
        let variants = [
            // Post restores r0, or FLAGS, from another slot than PreFI
            // saved it to.
            (pre_fi(3, S0, SF), post_fi(S0 + 8, SF)),
            (pre_fi(3, S0, SF), post_fi(S0, SF + 16)),
            // One slot for both r0 and FLAGS.
            (pre_fi(3, S0, S0), post_fi(S0, S0)),
            // A save slot outside the data segment (here: on the stack).
            (pre_fi(3, 0x7fff_fff8, SF), post_fi(0x7fff_fff8, SF)),
            // FLAGS read through another register.
            (wrong_reg, post_fi(S0, SF)),
        ];
        for (i, (pre, post)) in variants.into_iter().enumerate() {
            let b = site_loop(pre, post, add);
            assert_eq!(SuperblockProgram::new(&b).collapsed_sites(), 1, "variant {i}");
            assert_fused_matches_exact::<QuiescentRt>(&b);
        }
    }

    #[test]
    fn block_metadata_identities_hold() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::MovRI { rd: 2, imm: 2 },
            MInstr::Jmp { target: 0 },
            MInstr::Halt,
        ]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.fused_len, vec![2, 1, 0, 0]);
        assert_eq!(sb.fused_cost[0], 2); // two 1-cycle movs
        assert_eq!(sb.block_count(), 1);
        assert_eq!(sb.len(), 4);
    }
}
