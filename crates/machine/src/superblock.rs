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
//! normally `pc + 1`, but a collapsed idiom's successor is the pc after
//! the instructions it stands for. Two idioms collapse, both matched as
//! pure ISA patterns. A non-firing REFINE site (emitted by REFINE's
//! backend pass) is
//!
//! ```text
//!   pc:    st [S0], r0 ; rdflags r0 ; st [SF], r0 ; call selInstr
//!          cmp r0, 0   ; jne setup  ; jmp post
//!   post:  ld r0, [SF] ; wrflags r0 ; ld r0, [S0]      -> post + 3
//! ```
//!
//! with `S0 != SF` absolute, 8-byte aligned and inside the data segment.
//! When `selInstr` returns 0 its net effect is `[S0] = r0`, `[SF] = flags`,
//! `flags &= 0xf` and one FI event. LLFI's inject idiom is
//!
//! ```text
//!   pc:    mov r0, rX ; call injectFaultI ; mov rY, r0   -> pc + 3
//! ```
//!
//! or its `fmov`/`injectFaultF` form, with or without the trailing move
//! (then `-> pc + 2`). A non-firing `injectFault` returns its argument, so
//! the net effect is `r0 = rX`, `rY = r0` and one FI event. Each idiom
//! collapses into one µop that performs that effect while the block
//! charges the instructions' summed cycles and retired count and one FI
//! event. An `injectFault` outside the idiom lowers to a µop that counts
//! one event and leaves the value unchanged. Per-chain suffix sums (cycle
//! cost, retired instructions, PINFI targets, FI events) are kept as `u32`.
//!
//! Control transfers (`Jmp`, `Jcc`, `Call`, `Ret`) fuse as the last µop of
//! their chain. Their handlers set `pc` themselves (their `next` is a
//! sentinel), `Call` pushes through the same tracked store as `step_t`, and
//! the chain's dynamic successor is decided at the next loop top. Fusion
//! boundaries: a chain ends after a control transfer, at every `CallRt`
//! but `injectFault` (`setupFI`, an unmatched `selInstr`, output and math
//! calls must see exact per-call dispatch), at `Halt`, and before a µop
//! whose successor would leave the text section. A `Jmp` or `Call` whose
//! target, or a `Jcc` whose target or fall-through, lies outside the text
//! stays stepped: `step_t` moves `pc` onto the bad target before trapping.
//! So every pc-bounds trap on a static successor is raised by the exact
//! step. Instructions that can trap mid-block (memory, divide, push/pop,
//! `Call`, `Ret` to a bad address) *are* fused: the block dispatcher
//! materializes the exact architectural state at the trapping µop — same
//! cycles (cost of the trapping instruction included, as the exact loop
//! adds cost before stepping), same retired count (trapping instruction not
//! retired), same FI count, and `pc` left on the trapping instruction.
//!
//! The trial loops are [`Machine::run_until_count`] (quiescent prefix, and
//! run to the end) and [`Machine::run_to_convergence`] (post-fire), plus
//! the profiling run [`Machine::run_sb_checkpointed`]. They are generic
//! over an [`FiCounter`], which counts FI events through the runtime hooks
//! (REFINE, LLFI) or at fetch with probe overhead (PINFI), and over
//! `const FUSE: bool`. With fusion off every instruction goes through the
//! exact `step_t`, which is the step engine and cross-checks every µop
//! handler. With it on they mirror that accounting bit-for-bit and fall
//! back to single exact steps whenever a block could cross a semantic
//! boundary the exact loop observes per-instruction: the FI-event stop
//! count, the cycle budget, a golden snapshot's `(fi_count, pc)` match
//! point, or a due profiling snapshot. A block with `E > 0` FI events is
//! fused only while no event inside it can matter: before the stop when
//! `count + E < stop`, in the convergence loop when the cursor snapshot's
//! FI count exceeds `count + E`. Fused events reach the runtime through
//! [`FiRuntime::count_fused_events`](crate::FiRuntime::count_fused_events).

use crate::binary::Binary;
use crate::checkpoint::{
    CheckpointBuilder, CheckpointConfig, CheckpointStore, Predecoded, PAGE_WORDS,
};
use crate::digest::BaselineHashes;
use crate::isa::{AluOp, Cc, CvtKind, FAluOp, MInstr, Mem, RtFunc};
use crate::machine::{
    ConvStats, GoldenEnd, Machine, RunConfig, RunOutcome, RunResult, Step, Trap, GLOBAL_BASE,
};
use crate::rt::FiCounter;
use std::ops::Range;

/// A µop handler: executes one fused instruction's data side effects.
/// Never touches `cycles` or `instrs_retired` — the block dispatcher
/// accounts for those in bulk — and only a control transfer, the last µop
/// of its chain, sets `pc`.
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

/// The `next` of a control-transfer µop: its handler sets `pc`, and it is
/// always the last µop of its chain.
const PC_SET: u32 = u32::MAX;

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
    /// One µop per text instruction; unfusable slots hold a placeholder
    /// that is never dispatched (their `fused_len` is 0).
    uops: Vec<Uop>,
    /// `fused_len[pc]` = number of µops in the chain headed at `pc` (0 when
    /// `pc` starts no block and must be stepped exactly).
    fused_len: Vec<u32>,
    /// Suffix-sum cycle costs.
    fused_cost: Vec<u32>,
    /// Suffix-sum retired instructions (a collapsed REFINE site retires
    /// ten, an LLFI inject idiom two or three).
    fused_retired: Vec<u32>,
    /// Suffix-sum FI-target counts (PINFI accounting).
    fused_targets: Vec<u32>,
    /// Suffix-sum FI events (collapsed sites and idioms, LLFI inject calls).
    fused_events: Vec<u32>,
    /// Number of REFINE sites and LLFI inject idioms collapsed into one µop.
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
        // Summed cycle cost and FI targets of the instructions in `r`.
        let span = |r: Range<usize>| {
            r.fold((0, 0), |(c, t), k| (c + entry(k).cost, t + u64::from(entry(k).is_target)))
        };
        // Reverse scan: a µop's successor is summed before the µop itself
        // whenever the successor lies later in the text, which holds for
        // `pc + 1` and for every site the REFINE pass lays out.
        for pc in (0..n).rev() {
            // Own (cost, retired, targets, events) of the µop at `pc`.
            let own = if let Some(site) = match_site(binary, pc) {
                uops[pc] = site;
                collapsed_sites += 1;
                let post = site.next as usize - 3;
                let ((c0, t0), (c1, t1)) = (span(pc..pc + 7), span(post..post + 3));
                (c0 + c1, 10, t0 + t1, 1)
            } else if let Some(idiom) = match_llfi_inject(text, pc) {
                uops[pc] = idiom;
                collapsed_sites += 1;
                let end = idiom.next as usize;
                let (c, t) = span(pc..end);
                (c, (end - pc) as u64, t, 1)
            } else if is_unfusable(pc, &text[pc], n) {
                continue;
            } else {
                let e = entry(pc);
                (e.cost, 1, u64::from(e.is_target), u64::from(is_llfi_inject(&text[pc])))
            };
            // The successor: none after a control transfer, whose handler
            // sets `pc` and which therefore ends its chain. A µop whose
            // successor leaves the text is left to the exact step's
            // pc-bounds trap.
            let next = match uops[pc].next {
                PC_SET => None,
                k if (k as usize) < n => Some(k as usize),
                _ => continue,
            };
            // Link the successor's chain when it is already summed;
            // otherwise the chain ends after this µop.
            let tail = |v: &[u32]| match next {
                Some(k) if k > pc => u64::from(v[k]),
                _ => 0,
            };
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

    /// Number of predecoded instructions (== text length).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the text section is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Number of REFINE sites and LLFI inject idioms collapsed into a
    /// single µop (a binary holds only one kind).
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

    /// FI events the block headed at `pc` counts under `C`'s discipline:
    /// fetched targets or runtime events.
    #[inline]
    fn block_events<C: FiCounter + ?Sized>(&self, pc: usize) -> u64 {
        u64::from(if C::AT_FETCH { self.fused_targets[pc] } else { self.fused_events[pc] })
    }

    /// Cycles the block headed at `pc` charges when it runs to its end,
    /// including `c`'s probe overhead per fetch.
    #[inline]
    fn block_cycles<C: FiCounter + ?Sized>(&self, pc: usize, c: &C) -> u64 {
        let cost = u64::from(self.fused_cost[pc]);
        if C::AT_FETCH {
            cost + u64::from(self.fused_retired[pc]) * c.fetch_overhead()
        } else {
            cost
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

/// Whether the instruction at `pc` of an `n`-instruction text is stepped
/// exactly instead of fused: `Halt`, every runtime call but `injectFault`
/// (`setupFI`, an unmatched `selInstr`, output and math calls need exact
/// per-call dispatch), and a `jmp`, `call` or `jcc` with a static successor
/// outside the text (`step_t` moves `pc` there before trapping, where the
/// fused trap path leaves it on the trapping µop). Every other control
/// transfer fuses as the end of its chain.
fn is_unfusable(pc: usize, i: &MInstr, n: usize) -> bool {
    let outside = |t: u32| t as usize >= n;
    match *i {
        MInstr::Halt => true,
        MInstr::CallRt { .. } => !is_llfi_inject(i),
        MInstr::Jmp { target } | MInstr::Call { target } => outside(target),
        MInstr::Jcc { target, .. } => outside(target) || pc + 1 >= n,
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

/// Match LLFI's inject idiom headed at `pc`, `mov r0, rX; call
/// injectFaultI` with an optional trailing `mov rY, r0` (or its `fmov`,
/// `injectFaultF` form), and return its collapsed µop, whose `next` is the
/// pc after the idiom. Non-firing, `injectFault` returns its argument, so
/// the idiom is `r0 = rX` (then `rY = r0`) and one FI event.
fn match_llfi_inject(text: &[MInstr], pc: usize) -> Option<Uop> {
    let (float, x) = match text.get(pc..pc + 2)? {
        [MInstr::MovRR { rd: 0, ra }, MInstr::CallRt { func: RtFunc::LlfiInjectI, .. }] => {
            (false, *ra)
        }
        [MInstr::FMovRR { fd: 0, fa }, MInstr::CallRt { func: RtFunc::LlfiInjectF, .. }] => {
            (true, *fa)
        }
        _ => return None,
    };
    let y = match text.get(pc + 2) {
        Some(&MInstr::MovRR { rd, ra: 0 }) if !float => Some(rd),
        Some(&MInstr::FMovRR { fd, fa: 0 }) if float => Some(fd),
        _ => None,
    };
    // a = rY (or 0, making the trailing move a no-op), b = rX.
    let exec: UopFn = if float { u_llfi_inject::<true> } else { u_llfi_inject::<false> };
    let next = (pc + if y.is_some() { 3 } else { 2 }) as u32;
    Some(Uop { exec, a: y.unwrap_or(0), b: x, c: 0, d: 0, next, imm: 0 })
}

impl<'a> Machine<'a> {
    /// Superblock variant of [`Machine::run_checkpointed`] for call-hook
    /// binaries (no probe): the same run, result and snapshots, with
    /// straight-line runs dispatched fused. A block is fused only when it
    /// ends before the next snapshot is due, so every snapshot is taken
    /// after the same exactly stepped instruction as on the exact loop.
    pub fn run_sb_checkpointed<R: FiCounter + ?Sized>(
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
            .count_loop::<R, true>(sb, rt, u64::MAX, cfg.max_cycles, &mut stats, Some(&mut builder))
            .expect("cycle-bounded run terminates");
        (m.into_result(outcome), builder.finish(cfg.stack_words))
    }

    /// Execute the superblock headed at `pc` (`n = fused_len[pc] > 0`
    /// guaranteed by the caller), reporting its FI events to `c`. On
    /// success `pc` lands on the chain's successor of its last µop; on a
    /// trap the architectural state and FI count are exactly what the
    /// per-instruction loop would have left.
    #[inline]
    fn exec_fused<C: FiCounter + ?Sized>(
        &mut self,
        sb: &SuperblockProgram,
        pc: usize,
        n: u32,
        c: &mut C,
        stats: &mut SbStats,
    ) -> Result<(), Trap> {
        let mut k = pc;
        for _ in 0..n {
            let u = &sb.uops[k];
            if let Err(t) = (u.exec)(self, u) {
                // The exact loop adds the trapping instruction's cost
                // before stepping but does not retire it, and leaves pc on
                // the trapping instruction. A collapsed site or inject
                // idiom cannot trap, so `k` is a single instruction; it
                // was fetched too.
                let (cycles, retired, events) = sb.prefix(pc, k);
                self.cycles += cycles + sb.pre.entry(k as u32).expect("pc in range").cost;
                self.instrs_retired += retired;
                c.count_fused_events(events);
                self.count_fetches(c, sb.fetched_targets(pc, Some(k)), retired + 1);
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
        c.count_fused_events(u64::from(sb.fused_events[pc]));
        self.count_fetches(c, sb.fetched_targets(pc, None), retired);
        if k != PC_SET as usize {
            self.pc = k as u32;
        }
        stats.dispatches += 1;
        stats.fused_instrs += retired;
        Ok(())
    }

    /// Fetch-time accounting of an [`FiCounter::AT_FETCH`] counter:
    /// `targets` FI targets and the probe overhead of `fetched` fetches.
    #[inline(always)]
    fn count_fetches<C: FiCounter + ?Sized>(&mut self, c: &mut C, targets: u64, fetched: u64) {
        if C::AT_FETCH {
            c.count_fetched(targets);
            self.cycles += fetched * c.fetch_overhead();
        }
    }

    /// One exact step of the trial loops: the fetch's cycle cost and
    /// counter accounting (charged even for a trapping instruction), then
    /// `step_t`, retiring the instruction unless it halts or traps.
    #[inline(always)]
    fn step_counted<C: FiCounter + ?Sized, const TRACK: bool>(
        &mut self,
        sb: &SuperblockProgram,
        c: &mut C,
        stats: &mut SbStats,
    ) -> Result<Step, Trap> {
        let e = sb.pre.entry(self.pc).ok_or(Trap::BadPc(self.pc as u64))?;
        self.cycles += e.cost;
        self.count_fetches(c, u64::from(e.is_target), 1);
        let step = self.step_t::<C, TRACK>(&e.instr, c)?;
        if let Step::Continue = step {
            self.instrs_retired += 1;
            stats.stepped_instrs += 1;
        }
        Ok(step)
    }

    /// Run from the current state until `c` has counted `stop` FI events,
    /// with straight-line runs dispatched fused when `FUSE` (with `FUSE`
    /// off every instruction goes through the exact `step_t`, which makes
    /// this the step engine). `c` must not be able to fire at any event
    /// below `stop`.
    ///
    /// Returns `Some(outcome)` when the run *ends* first (the count never
    /// reached `stop`); `None` at the boundary, where the caller continues
    /// with [`Machine::run_exact_until_fired`]. With `stop = u64::MAX` it
    /// runs to the end, e.g. post-fire without convergence.
    pub fn run_until_count<C: FiCounter + ?Sized, const FUSE: bool>(
        &mut self,
        sb: &SuperblockProgram,
        c: &mut C,
        stop: u64,
        max_cycles: u64,
        stats: &mut SbStats,
    ) -> Option<RunOutcome> {
        self.count_loop::<C, FUSE>(sb, c, stop, max_cycles, stats, None)
    }

    /// [`Machine::run_until_count`], optionally capturing profiling
    /// snapshots into `builder` exactly where the exact loop does (after
    /// the instruction whose retirement makes one due).
    #[inline(always)]
    fn count_loop<C: FiCounter + ?Sized, const FUSE: bool>(
        &mut self,
        sb: &SuperblockProgram,
        c: &mut C,
        stop: u64,
        max_cycles: u64,
        stats: &mut SbStats,
        mut builder: Option<&mut CheckpointBuilder>,
    ) -> Option<RunOutcome> {
        debug_assert_eq!(sb.len(), self.binary.text.len());
        let mut next_due = builder.as_deref().map_or(u64::MAX, |b| b.next_due(self.instrs_retired));
        while c.fi_count() < stop {
            if self.cycles >= max_cycles {
                return Some(RunOutcome::Timeout);
            }
            let pc = self.pc as usize;
            let n = if FUSE { sb.fused_len.get(pc).copied().unwrap_or(0) } else { 0 };
            // Strict `<`: block-final cycles below budget implies no
            // interior per-instruction timeout check could have fired
            // (cycle costs are positive, so prefixes are strictly
            // smaller). The events rule keeps the count below `stop` at
            // every point inside the block, so the loop-top stop check
            // stays exact (the boundary instruction is the last one
            // executed, as on the per-instruction loop); likewise no
            // snapshot falls due inside it.
            if n > 0
                && self.cycles + sb.block_cycles(pc, c) < max_cycles
                && c.fi_count() + sb.block_events::<C>(pc) < stop
                && self.instrs_retired + u64::from(sb.fused_retired[pc]) < next_due
            {
                match self.exec_fused(sb, pc, n, c, stats) {
                    Ok(()) => continue,
                    Err(t) => return Some(RunOutcome::Trap(t)),
                }
            }
            match self.step_counted::<C, false>(sb, c, stats) {
                Ok(Step::Continue) => {
                    if let Some(b) = builder.as_deref_mut() {
                        if b.due(self.instrs_retired) {
                            b.push(self.snapshot(c.fi_count()));
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

    /// Post-injection convergence loop: continue from the just-fired state
    /// under the live (fired) counter, comparing the incremental state
    /// digest against each golden snapshot when the trial reaches the
    /// snapshot's `(fi_count, pc)` position; on a match, splice the golden
    /// suffix and return its outcome. `c.fi_count()` must hold the FI-event
    /// count *after* the fault fired (what the profiling run had counted
    /// at the same point on convergence). Keeping the injector attached
    /// means a `setupFI` re-entered through corrupted control flow draws
    /// and logs exactly as on the exact interpreter. Execution accounting
    /// is the exact loop's with no probe attached, so a non-converging
    /// trial finishes bit-identically to it.
    ///
    /// Snapshots are matched by `(fi_count, pc)`, not retired count: for
    /// the call-hook tools the taken injection branch retires instructions
    /// the quiescent golden run never executed, so post-fire the trial's
    /// retired counter is permanently skewed against golden's. The FI-event
    /// counter is injection-invariant (the extra branch instructions are
    /// runtime-call plumbing, not FI events), so a trial whose state
    /// re-converges passes through every later golden snapshot at exactly
    /// the snapshot's FI count and pc — where the full-state digest decides
    /// — while the splice adds golden's *suffix deltas* onto the trial's
    /// own counters, absorbing the skew without measuring it.
    ///
    /// With `FUSE`, a block is fused only when no golden snapshot match
    /// point can fall strictly inside it:
    ///
    /// * call-hook counter, block without FI events: the FI count is
    ///   constant across the block and its pcs are contiguous, so only the
    ///   cursor snapshot could match, and only at a pc strictly inside the
    ///   block — excluded explicitly;
    /// * call-hook counter, block with `E` FI events: fuse only when the
    ///   cursor snapshot's FI count exceeds `count + E`, the count at the
    ///   block's end;
    /// * fetch counter: the count advances at fetches inside the block, so
    ///   fuse only when the cursor snapshot's window starts strictly after
    ///   the whole block's final count.
    #[allow(clippy::too_many_arguments)]
    pub fn run_to_convergence<C: FiCounter + ?Sized, const FUSE: bool>(
        &mut self,
        sb: &SuperblockProgram,
        c: &mut C,
        store: &CheckpointStore,
        golden: GoldenEnd<'_>,
        max_cycles: u64,
        conv: &mut ConvStats,
        stats: &mut SbStats,
    ) -> RunOutcome {
        debug_assert_eq!(sb.len(), self.binary.text.len());
        let entry_retired = self.instrs_retired;
        // First candidate: the earliest golden snapshot whose FI-event
        // window the trial has not passed yet (fi_count is monotone along
        // the run under both count disciplines).
        let fi_entry = c.fi_count();
        let mut cursor = store.checkpoints.partition_point(|ck| ck.fi_count < fi_entry);
        let mut inited = false;
        let outcome = 'run: loop {
            // Skip snapshots whose FI-event window has already passed
            // without a state match (the while handles adjacent snapshots
            // with equal counts, which interval thinning can produce).
            let fi = c.fi_count();
            while store.checkpoints.get(cursor).is_some_and(|ck| ck.fi_count < fi) {
                cursor += 1;
            }
            if let Some(ck) = store.checkpoints.get(cursor) {
                if ck.fi_count == fi && ck.pc == self.pc {
                    if !inited {
                        // One scan seeds the hasher; later checks pay only
                        // for pages written since.
                        self.conv_seed(&store.baseline);
                        inited = true;
                    }
                    if self.conv_refresh(fi) == ck.digest {
                        // Converged: the remainder is deterministic and
                        // equal to the golden run's from this snapshot on.
                        // Add golden's suffix deltas onto the trial's own
                        // counters (absorbing any injection-branch skew)
                        // and correct for probe overhead the profiling run
                        // paid but a detached post-fire trial does not
                        // (the +1 fetch is the final non-retiring Halt).
                        // Only splice when the spliced timing could not
                        // have hit the cycle budget mid-suffix (cycles are
                        // monotone, so final < budget implies no interior
                        // timeout); otherwise keep executing — correct
                        // either way.
                        let suffix_retired = golden.retired - ck.retired;
                        let suffix_fetches = suffix_retired + 1;
                        let suffix_cycles = (golden.cycles - ck.cycles)
                            - golden.probe_overhead * suffix_fetches;
                        let final_cycles = self.cycles + suffix_cycles;
                        if final_cycles < max_cycles {
                            conv.converged = true;
                            conv.checked_instrs = self.instrs_retired - entry_retired;
                            conv.saved_instrs = suffix_retired;
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
            let n = if FUSE { sb.fused_len.get(pc).copied().unwrap_or(0) } else { 0 };
            if n > 0 && self.cycles + sb.block_cycles(pc, c) < max_cycles {
                let e = sb.block_events::<C>(pc);
                let fusable = match store.checkpoints.get(cursor) {
                    None => true,
                    Some(ck) if C::AT_FETCH || e > 0 => ck.fi_count > fi + e,
                    Some(ck) => {
                        ck.fi_count != fi
                            || (ck.pc as usize) <= pc
                            || (ck.pc as usize) >= pc + n as usize
                    }
                };
                if fusable {
                    match self.exec_fused(sb, pc, n, c, stats) {
                        Ok(()) => continue,
                        Err(t) => break 'run RunOutcome::Trap(t),
                    }
                }
            }
            // TRACK=true is a no-op until the hasher is live, so a single
            // monomorphization covers both phases without semantic drift.
            match self.step_counted::<C, true>(sb, c, stats) {
                Ok(Step::Continue) => {}
                Ok(Step::Halt(code)) => break 'run RunOutcome::Exit(code),
                Err(t) => break 'run RunOutcome::Trap(t),
            }
        };
        self.conv = None;
        if !conv.converged {
            conv.checked_instrs = self.instrs_retired - entry_retired;
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

fn u_unfusable(_m: &mut Machine<'_>, _u: &Uop) -> Result<(), Trap> {
    unreachable!("an unfusable instruction's µop is never dispatched fused")
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

/// A collapsed LLFI inject idiom (`F`: its float form): `r0 = rX` with
/// `b` = X, then the trailing `rY = r0` with `a` = Y (0 without one).
fn u_llfi_inject<const F: bool>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    let regs = if F { &mut m.fregs } else { &mut m.regs };
    let v = regs[u.b as usize];
    regs[0] = v;
    regs[u.a as usize] = v;
    Ok(())
}

// Control transfers end their chain and set `pc` themselves (their `next`
// is `PC_SET`). `imm` packs the target (low 32 bits) and the
// fall-through pc (high 32 bits), both checked against the text at build
// time. On a trap (`Call` past the stack, `Ret` to a bad address) the
// dispatcher leaves `pc` on the transfer, as `step_t` does.

fn u_jmp(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.pc = u.imm as u32;
    Ok(())
}

fn u_jcc<const C: usize>(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.pc = if CCS[C].eval(m.flags) { u.imm as u32 } else { (u.imm >> 32) as u32 };
    Ok(())
}

fn jcc_fn(cc: Cc) -> UopFn {
    match cc {
        Cc::E => u_jcc::<0>,
        Cc::Ne => u_jcc::<1>,
        Cc::Lt => u_jcc::<2>,
        Cc::Le => u_jcc::<3>,
        Cc::Gt => u_jcc::<4>,
        Cc::Ge => u_jcc::<5>,
    }
}

fn u_call(m: &mut Machine<'_>, u: &Uop) -> Result<(), Trap> {
    m.push_t::<true>(u.imm >> 32)?;
    m.pc = u.imm as u32;
    Ok(())
}

fn u_ret(m: &mut Machine<'_>, _u: &Uop) -> Result<(), Trap> {
    let ra = m.pop()?;
    if ra as usize >= m.binary.text.len() {
        return Err(Trap::BadPc(ra));
    }
    m.pc = ra as u32;
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

/// Lower the instruction at `pc` to its µop (successor `pc + 1`, or
/// [`PC_SET`] for a control transfer, which sets `pc` itself). Unfusable
/// instructions get a placeholder that is never dispatched (their
/// `fused_len` is always 0); `injectFault` lowers to a no-op whose event
/// the block counts.
fn lower(pc: usize, instr: &MInstr) -> Uop {
    let next = pc as u32 + 1;
    let simple =
        |exec: UopFn, a: u8, b: u8, c: u8, imm: u64| Uop { exec, a, b, c, d: 0, next, imm };
    let transfer = |exec: UopFn, target: u32| Uop {
        exec,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        next: PC_SET,
        imm: u64::from(target) | u64::from(next) << 32,
    };
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
        MInstr::Jmp { target } => transfer(u_jmp, target),
        MInstr::Jcc { cc, target } => transfer(jcc_fn(cc), target),
        MInstr::Call { target } => transfer(u_call, target),
        MInstr::Ret => transfer(u_ret, 0),
        MInstr::CallRt { .. } | MInstr::Halt => simple(u_unfusable, 0, 0, 0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{Binary, Symbol};
    use crate::checkpoint::CheckpointConfig;
    use crate::isa::SP;
    use crate::machine::{RunConfig, STACK_TOP};
    use crate::rt::{pack, NoFi, QuiescentRt};
    use std::ops::RangeInclusive;

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

    /// Drive a full fused run through `run_until_count` with a NoFi
    /// runtime (stop never reached) and return (outcome, cycles, retired).
    fn run_sb(b: &Binary) -> (RunOutcome, u64, u64, SbStats) {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let mut m = Machine::new(b, &cfg);
        let mut stats = SbStats::default();
        let out = m
            .run_until_count::<_, true>(&sb, &mut NoFi, u64::MAX, cfg.max_cycles, &mut stats)
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
        // Sum 1..=10 with a backward branch: one fused chain per
        // iteration, ending in the loop branch.
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
    type State = (u64, u64, u32, [u64; 16], [u64; 16], u8, Vec<u64>, Vec<u64>);

    fn state(m: &Machine<'_>) -> State {
        let stack = m.stack[m.stack_lo..].to_vec();
        (m.cycles, m.instrs_retired, m.pc, m.regs, m.fregs, m.flags, m.data.clone(), stack)
    }

    /// Run `b` to the end fused and exactly under fresh `R` runtimes and
    /// require identical outcome, state and FI count; returns the fused
    /// run's outcome, machine and stats.
    fn assert_fused_matches_exact<R: FiCounter + Default>(
        b: &Binary,
    ) -> (RunOutcome, Machine<'_>, SbStats) {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let (mut fused, mut exact) = (Machine::new(b, &cfg), Machine::new(b, &cfg));
        let (mut rf, mut re) = (R::default(), R::default());
        let mut stats = SbStats::default();
        let max = cfg.max_cycles;
        let out = fused.run_until_count::<_, true>(&sb, &mut rf, u64::MAX, max, &mut stats);
        let ref_out = exact.run_exact_until_fired(cfg.max_cycles, &mut re, None);
        assert_eq!(out, ref_out);
        assert_eq!(state(&fused), state(&exact));
        assert_eq!(rf.fi_count(), re.fi_count());
        (out.expect("bounded run ends"), fused, stats)
    }

    #[test]
    fn collapsed_sites_match_exact_under_quiescent_and_nofi() {
        let b = two_sites();
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.collapsed_sites(), 2);
        // Block at the loop head: head, site A (10), resume add, site B
        // (10), cmp, loop branch — two events, one dispatch.
        assert_eq!((sb.fused_len[2], sb.fused_retired[2], sb.fused_events[2]), (6, 24, 2));
        let (.., stats) = assert_fused_matches_exact::<QuiescentRt>(&b);
        assert_eq!(stats.stepped_instrs, 0, "only the non-retiring halt is stepped");
        assert_fused_matches_exact::<NoFi>(&b);
        let (out, ..) = run_sb(&b);
        assert_eq!(out, RunOutcome::Exit(0));
    }

    /// Stop `b`'s quiescent prefix at every FI count in `stops`, fused and
    /// stepped, and require the exact boundary state.
    fn assert_every_stop_matches_exact(b: &Binary, stops: RangeInclusive<u64>) {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        for stop in stops {
            let (mut fused, mut exact) = (Machine::new(b, &cfg), Machine::new(b, &cfg));
            let (mut qf, mut qe) = (QuiescentRt::default(), QuiescentRt::default());
            let (mut sf, mut se) = (SbStats::default(), SbStats::default());
            let max = cfg.max_cycles;
            assert_eq!(fused.run_until_count::<_, true>(&sb, &mut qf, stop, max, &mut sf), None);
            assert_eq!(exact.run_until_count::<_, false>(&sb, &mut qe, stop, max, &mut se), None);
            assert_eq!(se.fused_instrs, 0, "stop {stop}");
            assert_eq!((qf.count, fused.pc), (qe.count, exact.pc), "stop {stop}");
            assert_eq!(state(&fused), state(&exact), "stop {stop}");
        }
    }

    #[test]
    fn stop_inside_a_chain_reaches_the_exact_boundary() {
        assert_every_stop_matches_exact(&two_sites(), 1..=6);
    }

    #[test]
    fn trap_after_a_collapsed_site_materializes_exact_state() {
        // A misaligned load right at site A's resume point.
        let ld = MInstr::Ld { rd: 3, mem: Mem::abs(S0 + 4) };
        let b = site_loop(pre_fi(3, S0, SF), post_fi(S0, SF), ld);
        assert_eq!(SuperblockProgram::new(&b).collapsed_sites(), 2);
        let (.., stats) = assert_fused_matches_exact::<QuiescentRt>(&b);
        assert_eq!(stats.fused_instrs, 13, "two movs, the head and site A");
    }

    /// Profile `b`, which exits 0, with a snapshot after every retired
    /// instruction, so some lie inside collapsed µops and inside chains,
    /// and require an unfaulted run left with only snapshots `j..` to
    /// converge at snapshot `j` exactly: a fused block may not jump over
    /// it. Returns the number of snapshots.
    fn assert_converges_at_every_snapshot(b: &Binary) -> usize {
        let sb = SuperblockProgram::new(b);
        let cfg = RunConfig::default();
        let ck = CheckpointConfig { interval: 1, max_checkpoints: 1024, ..Default::default() };
        let (golden, store) =
            Machine::run_checkpointed(b, &cfg, &mut QuiescentRt::default(), None, &ck);
        let end = GoldenEnd {
            exit_code: 0,
            output: &golden.output,
            cycles: golden.cycles,
            retired: golden.instrs_retired,
            probe_overhead: 0,
        };
        for j in 0..store.checkpoints.len() {
            let mut tail = store.clone();
            tail.checkpoints.drain(..j);
            let mut m = Machine::new(b, &cfg);
            let (mut conv, mut stats) = (ConvStats::default(), SbStats::default());
            let mut q = QuiescentRt::default();
            let max = cfg.max_cycles;
            let out = m
                .run_to_convergence::<_, true>(&sb, &mut q, &tail, end, max, &mut conv, &mut stats);
            assert_eq!(out, RunOutcome::Exit(0));
            assert!(conv.converged, "snapshot {j}");
            assert_eq!(conv.checked_instrs, store.checkpoints[j].retired, "snapshot {j}");
            assert_eq!((m.cycles, m.instrs_retired), (golden.cycles, golden.instrs_retired));
        }
        store.checkpoints.len()
    }

    #[test]
    fn snapshots_inside_chains_still_match_in_the_convergence_loop() {
        assert!(assert_converges_at_every_snapshot(&two_sites()) > 60);
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
        // The `jmp` ends the chain; `Halt` is never fused.
        assert_eq!(sb.fused_len, vec![3, 2, 1, 0]);
        assert_eq!(sb.fused_cost[0], 3); // two 1-cycle movs and the jmp
        assert_eq!(sb.len(), 4);
    }

    // --- Control transfers ------------------------------------------------

    #[test]
    fn jcc_taken_and_not_taken_match_exact() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1 },
            MInstr::CmpI { ra: 1, imm: 0 },
            MInstr::Jcc { cc: Cc::Gt, target: 5 }, // taken
            MInstr::MovRI { rd: 0, imm: 7 },
            MInstr::Halt,
            MInstr::CmpI { ra: 1, imm: 5 },
            MInstr::Jcc { cc: Cc::Gt, target: 3 }, // not taken
            MInstr::MovRI { rd: 0, imm: 0 },
            MInstr::Halt,
        ]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!((sb.fused_len[0], sb.fused_len[5]), (3, 2));
        let (out, _, stats) = assert_fused_matches_exact::<NoFi>(&b);
        assert_eq!(out, RunOutcome::Exit(0));
        assert_eq!((stats.dispatches, stats.stepped_instrs), (3, 0));
    }

    #[test]
    fn call_ret_pair_matches_exact() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 2 },
            MInstr::Call { target: 5 },
            MInstr::AluI { op: AluOp::Sub, rd: 0, ra: 1, imm: 42 },
            MInstr::Halt,
            MInstr::Nop,
            MInstr::AluI { op: AluOp::Add, rd: 1, ra: 1, imm: 40 }, // callee
            MInstr::Ret,
        ]);
        let (out, m, stats) = assert_fused_matches_exact::<NoFi>(&b);
        assert_eq!(out, RunOutcome::Exit(0));
        assert_eq!(m.regs[SP as usize], STACK_TOP);
        assert_eq!((stats.dispatches, stats.stepped_instrs), (3, 0));
    }

    #[test]
    fn ret_out_of_text_traps_on_the_ret() {
        let b = bin(vec![
            MInstr::MovRI { rd: 1, imm: 1000 },
            MInstr::Push { rs: 1 },
            MInstr::Ret,
            MInstr::Halt,
        ]);
        assert_eq!(SuperblockProgram::new(&b).fused_len[0], 3);
        let (out, m, stats) = assert_fused_matches_exact::<NoFi>(&b);
        assert_eq!(out, RunOutcome::Trap(Trap::BadPc(1000)));
        assert_eq!(m.pc, 2);
        assert_eq!((stats.dispatches, stats.fused_instrs), (1, 2));
    }

    #[test]
    fn call_past_the_stack_bottom_materializes_the_trap() {
        let cfg = RunConfig::default();
        let bottom = STACK_TOP - cfg.stack_words as u64 * 8;
        let b = bin(vec![
            MInstr::MovRI { rd: SP, imm: bottom as i64 },
            MInstr::Call { target: 3 },
            MInstr::Halt,
            MInstr::Halt,
        ]);
        assert_eq!(SuperblockProgram::new(&b).fused_len[0], 2);
        let (out, m, stats) = assert_fused_matches_exact::<NoFi>(&b);
        assert_eq!(out, RunOutcome::Trap(Trap::Segfault(bottom - 8)));
        assert_eq!(m.pc, 1);
        assert_eq!((stats.dispatches, stats.fused_instrs), (1, 1));
    }

    #[test]
    fn transfers_with_a_static_successor_outside_the_text_stay_stepped() {
        let b = bin(vec![
            MInstr::MovRI { rd: 0, imm: 1 },
            MInstr::Jmp { target: 100 },
            MInstr::Call { target: 100 },
            MInstr::Jcc { cc: Cc::E, target: 100 },
            MInstr::Jcc { cc: Cc::E, target: 0 }, // falls through past the end
        ]);
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.fused_len, vec![1, 0, 0, 0, 0]);
        // `step_t` moves pc onto the bad target before trapping.
        let (out, m, _) = assert_fused_matches_exact::<NoFi>(&b);
        assert_eq!(out, RunOutcome::Trap(Trap::BadPc(100)));
        assert_eq!(m.pc, 100);
    }

    // --- Collapsed LLFI inject idioms -------------------------------------

    /// `mov r0, rX; call injectFaultI`, with `mov rY, r0` when `y` is set.
    fn inject_i(x: u8, y: Option<u8>) -> Vec<MInstr> {
        let call = MInstr::CallRt { func: RtFunc::LlfiInjectI, imm: pack::llfi_imm(0, 64) };
        let mut t = vec![MInstr::MovRR { rd: 0, ra: x }, call];
        t.extend(y.map(|rd| MInstr::MovRR { rd, ra: 0 }));
        t
    }

    /// The float form of [`inject_i`].
    fn inject_f(x: u8, y: Option<u8>) -> Vec<MInstr> {
        let call = MInstr::CallRt { func: RtFunc::LlfiInjectF, imm: pack::llfi_imm(1, 64) };
        let mut t = vec![MInstr::FMovRR { fd: 0, fa: x }, call];
        t.extend(y.map(|fd| MInstr::FMovRR { fd, fa: 0 }));
        t
    }

    /// `body` run three times in a loop headed at pc 3; exits 0.
    fn llfi_loop(body: Vec<MInstr>) -> Binary {
        let mut t = vec![
            MInstr::MovRI { rd: 2, imm: 3 },
            MInstr::MovRI { rd: 3, imm: 5 },
            MInstr::FMovRI { fd: 3, imm: 2.5f64.to_bits() },
            MInstr::AluI { op: AluOp::Sub, rd: 2, ra: 2, imm: 1 }, // loop head
        ];
        t.extend(body);
        t.extend([
            MInstr::CmpI { ra: 2, imm: 0 },
            MInstr::Jcc { cc: Cc::Gt, target: 3 },
            MInstr::MovRI { rd: 0, imm: 0 },
            MInstr::Halt,
        ]);
        bin(t)
    }

    /// All three idiom forms, each followed by a use of its result.
    fn three_idioms() -> Binary {
        let mut body = inject_i(3, Some(4));
        body.push(MInstr::AluI { op: AluOp::Add, rd: 3, ra: 4, imm: 1 });
        body.extend(inject_f(3, Some(4)));
        body.push(MInstr::FAlu { op: FAluOp::Add, fd: 3, fa: 4, fb: 4 });
        body.extend(inject_i(3, None));
        body.push(MInstr::AluI { op: AluOp::Add, rd: 3, ra: 0, imm: 2 });
        llfi_loop(body)
    }

    #[test]
    fn llfi_inject_idioms_collapse_and_match_exact() {
        let b = three_idioms();
        let sb = SuperblockProgram::new(&b);
        assert_eq!(sb.collapsed_sites(), 3);
        // Head, three idioms (3 + 3 + 2 instructions) with their uses,
        // cmp and the loop branch: nine µops, three events.
        assert_eq!((sb.fused_len[3], sb.fused_retired[3], sb.fused_events[3]), (9, 14, 3));
        let (.., stats) = assert_fused_matches_exact::<QuiescentRt>(&b);
        assert_eq!(stats.stepped_instrs, 0);
        let (out, m, _) = assert_fused_matches_exact::<NoFi>(&b);
        assert_eq!(out, RunOutcome::Exit(0));
        assert_eq!(m.regs[3], 5 + 3 * 3, "each iteration adds 1 and then 2");
        assert_eq!(f64::from_bits(m.fregs[3]), 2.5 * 8.0);
    }

    #[test]
    fn near_miss_inject_idioms_do_not_collapse_the_wrong_moves() {
        let call_i = inject_i(3, None)[1];
        let variants: [(Vec<MInstr>, usize); 4] = [
            // The argument goes through another register than r0.
            (vec![MInstr::MovRR { rd: 1, ra: 3 }, call_i, MInstr::MovRR { rd: 4, ra: 0 }], 0),
            // The trailing move reads another register than r0: the
            // two-instruction form collapses, the move stays a plain µop.
            (vec![MInstr::MovRR { rd: 0, ra: 3 }, call_i, MInstr::MovRR { rd: 4, ra: 1 }], 1),
            // An integer move into the float call, and the reverse.
            (vec![MInstr::MovRR { rd: 0, ra: 3 }, inject_f(3, None)[1]], 0),
            (vec![MInstr::FMovRR { fd: 0, fa: 3 }, call_i], 0),
        ];
        for (i, (body, collapsed)) in variants.into_iter().enumerate() {
            let b = llfi_loop(body);
            assert_eq!(SuperblockProgram::new(&b).collapsed_sites(), collapsed, "variant {i}");
            assert_fused_matches_exact::<QuiescentRt>(&b);
            assert_fused_matches_exact::<NoFi>(&b);
        }
    }

    #[test]
    fn stop_at_every_inject_idiom_reaches_the_exact_boundary() {
        assert_every_stop_matches_exact(&three_idioms(), 1..=9);
    }

    #[test]
    fn snapshots_inside_inject_idioms_still_match_in_the_convergence_loop() {
        assert!(assert_converges_at_every_snapshot(&three_idioms()) > 40);
    }
}
