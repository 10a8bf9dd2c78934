//! A uniform interface over the three fault injectors.

use crate::classify::Golden;
use refine_core::{CheckpointOptions, ExecEngine, FaultRecord, FiOptions, InjectingRt, ProfilingRt};
use refine_ir::passes::OptLevel;
use refine_ir::Module;
use refine_machine::{
    Binary, CheckpointConfig, CheckpointStore, ConvStats, FiRuntime, GoldenEnd, Machine, NoFi,
    Probe, QuiescentRt, RunConfig, RunOutcome, RunResult, SbStats, SuperblockProgram,
};
use refine_pinfi::{PinfiInjector, PinfiProfiler, PIN_OVERHEAD_CYCLES};
use refine_telemetry::{registry, Phase, Span};
use std::collections::HashMap;
use std::sync::Arc;

/// The three tools compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// IR-level compiler FI (state of the art before REFINE).
    Llfi,
    /// The paper's backend-pass FI.
    Refine,
    /// Binary-level FI on the DBI engine (the accuracy baseline).
    Pinfi,
}

impl Tool {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Llfi => "LLFI",
            Tool::Refine => "REFINE",
            Tool::Pinfi => "PINFI",
        }
    }

    /// All three, in the paper's column order.
    pub fn all() -> [Tool; 3] {
        [Tool::Llfi, Tool::Refine, Tool::Pinfi]
    }
}

/// A program prepared for a campaign with one tool: the right binary plus
/// profiling results (population, golden output, timeout budget).
#[derive(Debug, Clone)]
pub struct PreparedTool {
    /// Which tool.
    pub tool: Tool,
    /// The binary the campaign executes.
    pub binary: Binary,
    /// Dynamic FI-target population (the sampling universe).
    pub population: u64,
    /// Golden reference from the profiling run.
    pub golden: Golden,
    /// Cycles of the profiled execution (used for the 10x timeout rule and
    /// the Figure 5 speed accounting).
    pub profile_cycles: u64,
    /// Cycle budget per trial: 10x the profiled execution (§4.3.2).
    pub timeout_cycles: u64,
    /// Stack size for runs.
    pub stack_words: usize,
    /// Static-site id -> opcode label, for per-trial fault provenance
    /// (REFINE: backend-pass site table; LLFI: IR site table; PINFI has no
    /// site table — its opcodes resolve from the binary text at the
    /// faulting pc, see [`PreparedTool::site_opcode`]).
    pub site_opcodes: HashMap<u64, String>,
    /// Golden-run checkpoints and golden result for trial fast-forward
    /// (`None` with `--no-checkpoint`). Shared read-only across workers.
    pub fastpath: Option<Arc<FastPath>>,
    /// Detect post-injection golden convergence and splice the golden
    /// outcome (`--no-convergence` clears this; requires a fastpath).
    pub convergence: bool,
    /// The predecoded, superblock-fused text section for the fused engine.
    /// Always built (it embeds the exact-step
    /// [`refine_machine::Predecoded`] stream too) and shared read-only
    /// across workers; `--engine step` steps its `pre()` stream and ignores
    /// the fusion metadata.
    pub superblock: Arc<SuperblockProgram>,
}

/// The immutable fast-forward companion of a prepared binary: the
/// profiling run's [`CheckpointStore`] and golden result. The quiescent
/// inner loops read the predecoded text from [`PreparedTool::superblock`].
#[derive(Debug)]
pub struct FastPath {
    /// Snapshots of the (quiescent) profiling run.
    pub store: CheckpointStore,
    /// The complete golden profiling result, spliced into trials that
    /// re-converge with it post-injection.
    pub golden_run: RunResult,
}

/// How one trial actually executed, for engine accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialFastStats {
    /// The trial restored machine state from a golden-run checkpoint.
    pub restored: bool,
    /// Dynamic instructions skipped by that restore (0 when cold).
    pub skipped_instrs: u64,
    /// The trial converged with the golden run post-injection and its
    /// outcome was spliced.
    pub converged: bool,
    /// Post-injection instructions executed under convergence checking.
    pub conv_checked_instrs: u64,
    /// Instructions not executed thanks to the golden-suffix splice.
    pub conv_saved_instrs: u64,
    /// Fused superblock dispatches this trial (0 under `--engine step`).
    pub sb_dispatches: u64,
    /// Instructions retired through fused dispatch this trial.
    pub sb_fused_instrs: u64,
    /// Instructions retired via exact single-step fallback inside the
    /// superblock loops this trial.
    pub sb_stepped_instrs: u64,
}

impl TrialFastStats {
    /// Fold one trial's convergence-loop accounting into these stats.
    fn apply(&mut self, stats: &ConvStats) {
        self.converged = stats.converged;
        self.conv_checked_instrs = stats.checked_instrs;
        self.conv_saved_instrs = stats.saved_instrs;
    }

    /// Fold one trial's superblock dispatch accounting into these stats.
    fn apply_sb(&mut self, stats: &SbStats) {
        self.sb_dispatches = stats.dispatches;
        self.sb_fused_instrs = stats.fused_instrs;
        self.sb_stepped_instrs = stats.stepped_instrs;
    }
}

/// A completed trial with its fault log and fast-forward accounting.
#[derive(Debug, Clone)]
pub struct TrialRun {
    /// The machine run result.
    pub result: RunResult,
    /// Fault log entry, when the injection fired.
    pub log: Option<FaultRecord>,
    /// Checkpoint fast-forward accounting.
    pub fast: TrialFastStats,
}

/// Run the profiling phase, capturing checkpoints when `ckpt` is set.
/// Call-hook binaries (no probe) run on the superblock engine, which
/// yields the same result and snapshots as the exact loop; PINFI's probe
/// needs the exact loop.
fn profile_run<R: FiRuntime>(
    binary: &Binary,
    sb: &SuperblockProgram,
    cfg: &RunConfig,
    rt: &mut R,
    probe: Option<&mut dyn Probe>,
    ckpt: Option<CheckpointConfig>,
) -> (RunResult, Option<CheckpointStore>) {
    let _s = ckpt.is_some().then(|| Span::enter(Phase::CheckpointBuild));
    match (probe, ckpt) {
        (None, Some(cc)) => {
            let (r, store) = Machine::run_sb_checkpointed(binary, cfg, sb, rt, &cc);
            (r, Some(store))
        }
        (None, None) => {
            let mut m = Machine::new(binary, cfg);
            let outcome = m
                .run_sb_calls(sb, rt, u64::MAX, cfg.max_cycles, &mut SbStats::default())
                .expect("cycle-bounded run terminates");
            (m.into_result(outcome), None)
        }
        (probe, Some(cc)) => {
            let (r, store) = Machine::run_checkpointed(binary, cfg, rt, probe, &cc);
            (r, Some(store))
        }
        (probe, None) => (Machine::run(binary, cfg, rt, probe), None),
    }
}

/// First token of a disassembly line (`"add r1, r2, r3"` -> `"add"`).
fn asm_mnemonic(asm: &str) -> String {
    asm.split_whitespace().next().unwrap_or("?").to_string()
}

/// Predecode + fuse one prepared binary under its telemetry span.
fn build_superblock(binary: &Binary) -> Arc<SuperblockProgram> {
    let _s = Span::enter(Phase::SuperblockBuild);
    let sb = Arc::new(SuperblockProgram::new(binary));
    registry().superblock_built.incr();
    sb
}

impl PreparedTool {
    /// Compile/attach `tool` to the program and run the profiling phase,
    /// capturing golden-run checkpoints (the default configuration).
    pub fn prepare(module: &Module, tool: Tool) -> PreparedTool {
        Self::prepare_opt(module, tool, &CheckpointOptions::default())
    }

    /// [`PreparedTool::prepare`] with explicit checkpointing knobs
    /// (`CheckpointOptions::disabled()` is the `--no-checkpoint` path).
    pub fn prepare_opt(module: &Module, tool: Tool, ckpt: &CheckpointOptions) -> PreparedTool {
        let stack_words = 1 << 16;
        let cfg = RunConfig { max_cycles: u64::MAX / 4, stack_words };
        let mcfg = ckpt.enabled.then(|| ckpt.machine_config());
        let (binary, superblock, population, profile, store, site_opcodes) = match tool {
            Tool::Refine => {
                let c = refine_core::compile_with_fi(module, OptLevel::O2, &FiOptions::all());
                let opcodes =
                    c.sites.iter().map(|s| (s.id, asm_mnemonic(&s.asm))).collect();
                // REFINE's trigger-path scratch slot must be digest-exempt
                // or a fired trial can never match a golden digest.
                let mcfg = mcfg.map(|mut m| {
                    m.exempt_data_words = c.digest_exempt_words();
                    m
                });
                let sb = build_superblock(&c.binary);
                let mut rt = ProfilingRt::default();
                let (r, store) = profile_run(&c.binary, &sb, &cfg, &mut rt, None, mcfg);
                (c.binary, sb, rt.count, r, store, opcodes)
            }
            Tool::Llfi => {
                let (c, sites) = refine_llfi::compile_with_llfi(
                    module,
                    OptLevel::O2,
                    &refine_llfi::LlfiOptions::default(),
                );
                let opcodes = sites.iter().map(|s| (s.id, s.opcode.clone())).collect();
                let sb = build_superblock(&c.binary);
                let mut rt = ProfilingRt::default();
                let (r, store) = profile_run(&c.binary, &sb, &cfg, &mut rt, None, mcfg);
                (c.binary, sb, rt.count, r, store, opcodes)
            }
            Tool::Pinfi => {
                let c = refine_core::compile_with_fi(module, OptLevel::O2, &FiOptions::default());
                let sb = build_superblock(&c.binary);
                let _s = Span::enter(Phase::FiPinfiProbe);
                let mut probe = PinfiProfiler::default();
                let (r, store) =
                    profile_run(&c.binary, &sb, &cfg, &mut NoFi, Some(&mut probe), mcfg);
                (c.binary, sb, probe.count, r, store, HashMap::new())
            }
        };
        assert!(population > 0, "{}: empty FI population", tool.name());
        let golden = Golden::from_run(&profile);
        let profile_cycles = profile.cycles;
        let fastpath = store.map(|store| Arc::new(FastPath { store, golden_run: profile }));
        PreparedTool {
            tool,
            binary,
            population,
            golden,
            profile_cycles,
            timeout_cycles: profile_cycles.saturating_mul(10),
            stack_words,
            site_opcodes,
            fastpath,
            convergence: ckpt.enabled && ckpt.convergence,
            superblock,
        }
    }

    /// Prepare REFINE with custom flags (`-fi-funcs`/`-fi-instrs`
    /// selections), for targeted campaigns and class ablations.
    pub fn prepare_refine_with(module: &Module, opts: &FiOptions) -> PreparedTool {
        assert!(opts.fi, "instrumentation must be enabled");
        let stack_words = 1 << 16;
        let cfg = RunConfig { max_cycles: u64::MAX / 4, stack_words };
        let c = refine_core::compile_with_fi(module, OptLevel::O2, opts);
        let site_opcodes = c.sites.iter().map(|s| (s.id, asm_mnemonic(&s.asm))).collect();
        let ckpt = CheckpointOptions::default();
        let mcfg = ckpt.enabled.then(|| {
            let mut m = ckpt.machine_config();
            m.exempt_data_words = c.digest_exempt_words();
            m
        });
        let superblock = build_superblock(&c.binary);
        let mut rt = ProfilingRt::default();
        let (r, store) = profile_run(&c.binary, &superblock, &cfg, &mut rt, None, mcfg);
        assert!(rt.count > 0, "selected FI population is empty");
        let golden = Golden::from_run(&r);
        let profile_cycles = r.cycles;
        let fastpath = store.map(|store| Arc::new(FastPath { store, golden_run: r }));
        PreparedTool {
            tool: Tool::Refine,
            binary: c.binary,
            population: rt.count,
            golden,
            profile_cycles,
            timeout_cycles: profile_cycles.saturating_mul(10),
            stack_words,
            site_opcodes,
            fastpath,
            convergence: ckpt.enabled && ckpt.convergence,
            superblock,
        }
    }

    /// Execute one fault-injection trial at dynamic target instruction
    /// `target` (1-based) with RNG stream `seed`.
    pub fn run_trial(&self, target: u64, seed: u64) -> RunResult {
        self.run_trial_traced(target, seed).0
    }

    /// Like [`PreparedTool::run_trial`], but also returns the fault log
    /// entry (when the injection fired) for provenance records.
    pub fn run_trial_traced(&self, target: u64, seed: u64) -> (RunResult, Option<FaultRecord>) {
        let t = self.run_trial_full(target, seed);
        (t.result, t.log)
    }

    /// Full trial execution under the default engine
    /// ([`ExecEngine::Superblock`]). Kept as the campaign-facing entry so
    /// the whole existing differential suite exercises the fused engine
    /// against [`PreparedTool::run_trial_exact`].
    pub fn run_trial_full(&self, target: u64, seed: u64) -> TrialRun {
        self.run_trial_engine(ExecEngine::default(), target, seed)
    }

    /// Full trial execution: fast-forwards through the quiescent prefix via
    /// the golden-run checkpoint store when available, dispatching the
    /// quiescent / post-fire / convergence regions through `engine`'s loops
    /// (fused superblocks or per-instruction exact stepping). All engine ×
    /// checkpoint combinations are bit-identical (outcome, output, cycles,
    /// fault log) — the quiescent prefix of an injection run is
    /// observationally equal to the profiling run, so a profiling-run
    /// snapshot is an exact restore point for any trial whose target event
    /// lies beyond it, and the fused loops replicate the exact loops'
    /// accounting instruction-for-instruction.
    pub fn run_trial_engine(&self, engine: ExecEngine, target: u64, seed: u64) -> TrialRun {
        let Some(fp) = self.fastpath.as_deref() else {
            return match engine {
                ExecEngine::Superblock => self.run_trial_cold_sb(target, seed),
                ExecEngine::Step => self.run_trial_exact(target, seed),
            };
        };
        let sb = (engine == ExecEngine::Superblock).then(|| self.superblock.as_ref());
        let pre = self.superblock.pre();
        let mut sbs = SbStats::default();
        let cfg = RunConfig { max_cycles: self.timeout_cycles, stack_words: self.stack_words };
        let (mut m, count0, mut fast) = {
            let _s = Span::enter(Phase::CheckpointRestore);
            match fp.store.nearest_below(target) {
                Some(ck) => (
                    Machine::resume(&self.binary, &cfg, ck),
                    ck.fi_count,
                    TrialFastStats { restored: true, skipped_instrs: ck.retired, ..Default::default() },
                ),
                None => (Machine::new(&self.binary, &cfg), 0, TrialFastStats::default()),
            }
        };
        // Stop the fast loop one FI event short of the target so the exact
        // loop — with the real injector attached — handles the firing event
        // itself (and everything after it).
        let stop = target.saturating_sub(1);
        let golden = self.golden_end(fp);
        let mut run = match self.tool {
            Tool::Refine | Tool::Llfi => 'run: {
                let mut q = QuiescentRt::starting_at(count0);
                let quiesced = match sb {
                    Some(sb) => m.run_sb_calls(sb, &mut q, stop, cfg.max_cycles, &mut sbs),
                    None => m.run_quiescent_calls(pre, &mut q, stop, cfg.max_cycles),
                };
                if let Some(outcome) = quiesced {
                    // Program ended (or timed out) before the target event:
                    // the injector would never have fired.
                    break 'run TrialRun { result: m.into_result(outcome), log: None, fast };
                }
                let mut rt = InjectingRt::resume(target, seed, q.count);
                let Some(golden) = golden else {
                    // Exact loop through the firing event, then the fused
                    // loop (post-fire the injector is observationally
                    // quiescent) or the attached exact run to the end.
                    let outcome = match sb {
                        Some(sb) => match m.run_exact_until_fired(cfg.max_cycles, &mut rt, None) {
                            Some(outcome) => outcome,
                            None => m
                                .run_sb_calls(sb, &mut rt, u64::MAX, cfg.max_cycles, &mut sbs)
                                .expect("cycle-bounded run terminates"),
                        },
                        None => {
                            let result = m.finish_run(cfg.max_cycles, &mut rt, None);
                            break 'run TrialRun { result, log: rt.log, fast };
                        }
                    };
                    break 'run TrialRun { result: m.into_result(outcome), log: rt.log, fast };
                };
                // Exact loop only through the firing event, then the
                // monomorphized convergence loop for the suffix, with the
                // fired injector still attached.
                if let Some(outcome) = m.run_exact_until_fired(cfg.max_cycles, &mut rt, None) {
                    break 'run TrialRun { result: m.into_result(outcome), log: rt.log, fast };
                }
                let mut stats = ConvStats::default();
                let outcome = match sb {
                    Some(sb) => m.run_sb_converging_calls(
                        sb,
                        &mut rt,
                        &fp.store,
                        golden,
                        cfg.max_cycles,
                        &mut stats,
                        &mut sbs,
                    ),
                    None => m.run_converging_calls(
                        pre,
                        &mut rt,
                        &fp.store,
                        golden,
                        cfg.max_cycles,
                        &mut stats,
                    ),
                };
                fast.apply(&stats);
                TrialRun { result: m.into_result(outcome), log: rt.log, fast }
            }
            Tool::Pinfi => 'run: {
                let mut count = count0;
                let quiesced = match sb {
                    Some(sb) => m.run_sb_probed(
                        sb,
                        PIN_OVERHEAD_CYCLES,
                        &mut count,
                        stop,
                        cfg.max_cycles,
                        &mut sbs,
                    ),
                    None => m.run_quiescent_probed(
                        pre,
                        PIN_OVERHEAD_CYCLES,
                        &mut count,
                        stop,
                        cfg.max_cycles,
                    ),
                };
                if let Some(outcome) = quiesced {
                    break 'run TrialRun { result: m.into_result(outcome), log: None, fast };
                }
                let mut probe = PinfiInjector::resume(target, seed, count);
                let Some(golden) = golden else {
                    // The probe detaches at fire, so post-fire execution is
                    // probe-free: the fused loop with `NoFi` is exact.
                    let outcome = match sb {
                        Some(sb) => match m.run_exact_until_fired(
                            cfg.max_cycles,
                            &mut NoFi,
                            Some(&mut probe),
                        ) {
                            Some(outcome) => outcome,
                            None => m
                                .run_sb_calls(sb, &mut NoFi, u64::MAX, cfg.max_cycles, &mut sbs)
                                .expect("cycle-bounded run terminates"),
                        },
                        None => {
                            let result = m.finish_run(cfg.max_cycles, &mut NoFi, Some(&mut probe));
                            break 'run TrialRun { result, log: probe.log, fast };
                        }
                    };
                    break 'run TrialRun { result: m.into_result(outcome), log: probe.log, fast };
                };
                if let Some(outcome) =
                    m.run_exact_until_fired(cfg.max_cycles, &mut NoFi, Some(&mut probe))
                {
                    break 'run TrialRun { result: m.into_result(outcome), log: probe.log, fast };
                }
                let mut stats = ConvStats::default();
                // The injector counted the firing event (== target) and
                // detached; the convergence loop keeps tallying targets at
                // fetch exactly as the attached profiling probe did.
                let mut count = probe.fi_count();
                let outcome = match sb {
                    Some(sb) => m.run_sb_converging_probed(
                        sb,
                        &mut count,
                        &fp.store,
                        golden,
                        cfg.max_cycles,
                        &mut stats,
                        &mut sbs,
                    ),
                    None => m.run_converging_probed(
                        pre,
                        &mut count,
                        &fp.store,
                        golden,
                        cfg.max_cycles,
                        &mut stats,
                    ),
                };
                fast.apply(&stats);
                TrialRun { result: m.into_result(outcome), log: probe.log, fast }
            }
        };
        run.fast.apply_sb(&sbs);
        run
    }

    /// Cold (no-fastpath) trial under the fused engine: the same quiescent
    /// -> fire -> run-to-end structure as the warm path, from the initial
    /// state. This is where `--no-checkpoint` campaigns get their
    /// superblock speedup; bit-identical to
    /// [`PreparedTool::run_trial_exact`] by the same resume argument as the
    /// checkpoint path (the counting runtime consumes no RNG before the
    /// fire, and the PINFI probe detaches at fire).
    fn run_trial_cold_sb(&self, target: u64, seed: u64) -> TrialRun {
        let sb = self.superblock.as_ref();
        let mut sbs = SbStats::default();
        let cfg = RunConfig { max_cycles: self.timeout_cycles, stack_words: self.stack_words };
        let mut m = Machine::new(&self.binary, &cfg);
        let stop = target.saturating_sub(1);
        let fast = TrialFastStats::default();
        let mut run = match self.tool {
            Tool::Refine | Tool::Llfi => 'run: {
                let mut q = QuiescentRt::default();
                if let Some(outcome) = m.run_sb_calls(sb, &mut q, stop, cfg.max_cycles, &mut sbs)
                {
                    break 'run TrialRun { result: m.into_result(outcome), log: None, fast };
                }
                let mut rt = InjectingRt::resume(target, seed, q.count);
                let outcome = match m.run_exact_until_fired(cfg.max_cycles, &mut rt, None) {
                    Some(outcome) => outcome,
                    None => m
                        .run_sb_calls(sb, &mut rt, u64::MAX, cfg.max_cycles, &mut sbs)
                        .expect("cycle-bounded run terminates"),
                };
                TrialRun { result: m.into_result(outcome), log: rt.log, fast }
            }
            Tool::Pinfi => 'run: {
                let mut count = 0u64;
                if let Some(outcome) = m.run_sb_probed(
                    sb,
                    PIN_OVERHEAD_CYCLES,
                    &mut count,
                    stop,
                    cfg.max_cycles,
                    &mut sbs,
                ) {
                    break 'run TrialRun { result: m.into_result(outcome), log: None, fast };
                }
                let mut probe = PinfiInjector::resume(target, seed, count);
                let outcome =
                    match m.run_exact_until_fired(cfg.max_cycles, &mut NoFi, Some(&mut probe)) {
                        Some(outcome) => outcome,
                        None => m
                            .run_sb_calls(sb, &mut NoFi, u64::MAX, cfg.max_cycles, &mut sbs)
                            .expect("cycle-bounded run terminates"),
                    };
                TrialRun { result: m.into_result(outcome), log: probe.log, fast }
            }
        };
        run.fast.apply_sb(&sbs);
        run
    }

    /// The golden run's terminal facts for convergence splicing, when
    /// convergence is enabled and the golden run exited cleanly (a golden
    /// trap or timeout — which does not occur for the suite programs —
    /// would make "rest is identical" splicing meaningless for timing).
    fn golden_end<'g>(&self, fp: &'g FastPath) -> Option<GoldenEnd<'g>> {
        if !self.convergence {
            return None;
        }
        let g = &fp.golden_run;
        let RunOutcome::Exit(exit_code) = g.outcome else { return None };
        Some(GoldenEnd {
            exit_code,
            output: &g.output,
            cycles: g.cycles,
            retired: g.instrs_retired,
            // PINFI's profiling run paid per-fetch probe overhead that a
            // detached post-fire trial does not; call-hook tools profile
            // without a probe.
            probe_overhead: match self.tool {
                Tool::Pinfi => PIN_OVERHEAD_CYCLES,
                Tool::Refine | Tool::Llfi => 0,
            },
        })
    }

    /// Reference trial execution: full interpretation from the initial
    /// state, no checkpoint restore and no predecoded fast loop. This is
    /// the `--no-checkpoint` path and the oracle the differential tests
    /// compare [`PreparedTool::run_trial_full`] against.
    pub fn run_trial_exact(&self, target: u64, seed: u64) -> TrialRun {
        let cfg = RunConfig { max_cycles: self.timeout_cycles, stack_words: self.stack_words };
        match self.tool {
            Tool::Refine | Tool::Llfi => {
                let mut rt = InjectingRt::new(target, seed);
                let result = Machine::run(&self.binary, &cfg, &mut rt, None);
                TrialRun { result, log: rt.log, fast: TrialFastStats::default() }
            }
            Tool::Pinfi => {
                let mut probe = PinfiInjector::new(target, seed);
                let result = Machine::run(&self.binary, &cfg, &mut NoFi, Some(&mut probe));
                TrialRun { result, log: probe.log, fast: TrialFastStats::default() }
            }
        }
    }

    /// Opcode label of a fired fault's injection site (None when the site
    /// is unknown, which does not happen for faults this tool produced).
    pub fn site_opcode(&self, record: &FaultRecord) -> Option<String> {
        match self.tool {
            // PINFI logs the faulting pc; the opcode comes from the text.
            Tool::Pinfi => self
                .binary
                .text
                .get(record.site as usize)
                .map(|i| i.mnemonic()),
            Tool::Refine | Tool::Llfi => self.site_opcodes.get(&record.site).cloned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, Outcome};

    fn module() -> Module {
        refine_benchmarks::by_name("HPCCG-1.0").unwrap().module()
    }

    #[test]
    fn all_tools_prepare_with_same_golden() {
        let m = module();
        let prepared: Vec<PreparedTool> =
            Tool::all().iter().map(|t| PreparedTool::prepare(&m, *t)).collect();
        // Golden output must agree across tools (it is the program's output).
        assert_eq!(prepared[0].golden, prepared[1].golden);
        assert_eq!(prepared[1].golden, prepared[2].golden);
        // REFINE and PINFI sample the identical population; LLFI's is
        // smaller (IR-only).
        let llfi = &prepared[0];
        let refine = &prepared[1];
        let pinfi = &prepared[2];
        assert_eq!(refine.population, pinfi.population);
        assert!(llfi.population < pinfi.population);
    }

    #[test]
    fn trials_classify_into_all_categories_eventually() {
        let m = module();
        let p = PreparedTool::prepare(&m, Tool::Refine);
        let mut seen = std::collections::HashSet::new();
        for k in 0..60u64 {
            let target = 1 + (p.population * k / 60);
            let r = p.run_trial(target, k * 7 + 1);
            seen.insert(classify(&p.golden, &r));
        }
        assert!(seen.contains(&Outcome::Benign), "no benign outcome in 60 trials");
        assert!(seen.len() >= 2, "expected some outcome diversity: {seen:?}");
    }

    #[test]
    fn trial_is_deterministic_given_target_and_seed() {
        let m = module();
        let p = PreparedTool::prepare(&m, Tool::Pinfi);
        let a = p.run_trial(1234, 5);
        let b = p.run_trial(1234, 5);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.output, b.output);
        assert_eq!(a.cycles, b.cycles);
    }
}
