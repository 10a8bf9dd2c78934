//! A uniform interface over the three fault injectors.

use crate::classify::Golden;
use refine_core::{CheckpointOptions, ExecEngine, FaultRecord, FiOptions, InjectingRt, ProfilingRt};
use refine_ir::passes::OptLevel;
use refine_ir::Module;
use refine_machine::{
    Binary, CheckpointConfig, CheckpointStore, ConvStats, FiCounter, GoldenEnd, Machine, NoFi,
    Probe, RunConfig, RunOutcome, RunResult, SbStats, SuperblockProgram,
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
    /// The predecoded, superblock-fused text section the trial loops run
    /// on, shared read-only across workers. It embeds the exact-step
    /// [`refine_machine::Predecoded`] stream too, so `--engine step` runs
    /// the same loops on it with fusion off.
    pub superblock: Arc<SuperblockProgram>,
}

/// The immutable fast-forward companion of a prepared binary: the
/// profiling run's [`CheckpointStore`] and golden result. The trial loops
/// read the predecoded text from [`PreparedTool::superblock`].
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
    /// Instructions retired through fused dispatch this trial (0 under
    /// `--engine step`).
    pub sb_fused_instrs: u64,
    /// Instructions retired via exact single steps inside the trial loops
    /// this trial (all of them under `--engine step`).
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
fn profile_run<R: FiCounter>(
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
            let mut stats = SbStats::default();
            let outcome = m
                .run_until_count::<R, true>(sb, rt, u64::MAX, cfg.max_cycles, &mut stats)
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
        Self::prepare_with(module, tool, &FiOptions::all(), ckpt)
    }

    /// Prepare REFINE with custom flags (`-fi-funcs`/`-fi-instrs`
    /// selections), for targeted campaigns and class ablations.
    pub fn prepare_refine_with(module: &Module, opts: &FiOptions) -> PreparedTool {
        Self::prepare_with(module, Tool::Refine, opts, &CheckpointOptions::default())
    }

    /// The one prepare path: compile/attach `tool` (REFINE instrumented per
    /// `fi`; LLFI and PINFI ignore it) and run the profiling phase,
    /// capturing golden-run checkpoints per `ckpt`.
    pub(crate) fn prepare_with(
        module: &Module,
        tool: Tool,
        fi: &FiOptions,
        ckpt: &CheckpointOptions,
    ) -> PreparedTool {
        let stack_words = 1 << 16;
        let cfg = RunConfig { max_cycles: u64::MAX / 4, stack_words };
        let mcfg = ckpt.enabled.then(|| ckpt.machine_config());
        let (binary, superblock, population, profile, store, site_opcodes) = match tool {
            Tool::Refine => {
                assert!(fi.fi, "instrumentation must be enabled");
                let c = refine_core::compile_with_fi(module, OptLevel::O2, fi);
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

    /// Full trial execution under `engine`: fused superblocks or exact
    /// per-instruction steps, through the one trial driver.
    /// Every engine × checkpoint × convergence combination is bit-identical
    /// (outcome, output, cycles, fault log) to
    /// [`PreparedTool::run_trial_exact`].
    pub fn run_trial_engine(&self, engine: ExecEngine, target: u64, seed: u64) -> TrialRun {
        match (self.tool, engine) {
            (Tool::Refine | Tool::Llfi, ExecEngine::Superblock) => {
                self.drive::<InjectingRt, true>(target, seed)
            }
            (Tool::Refine | Tool::Llfi, ExecEngine::Step) => {
                self.drive::<InjectingRt, false>(target, seed)
            }
            (Tool::Pinfi, ExecEngine::Superblock) => {
                self.drive::<PinfiInjector, true>(target, seed)
            }
            (Tool::Pinfi, ExecEngine::Step) => self.drive::<PinfiInjector, false>(target, seed),
        }
    }

    /// The one trial driver, warm or cold: restore the nearest golden-run
    /// checkpoint below the target (when the artifact has them), run the
    /// quiescent prefix to one FI event short of the target, run the exact
    /// interpreter through the firing event with the injector attached,
    /// then converge with the golden run (when it has a golden end) or run
    /// to the end. The quiescent prefix of an injection run equals the
    /// profiling run (the injector's RNG is only consumed when it fires),
    /// so a profiling-run snapshot is an exact restore point for any trial
    /// whose target event lies beyond it. `FUSE` selects the engine.
    fn drive<I: Injector, const FUSE: bool>(&self, target: u64, seed: u64) -> TrialRun {
        let sb = self.superblock.as_ref();
        let max = self.timeout_cycles;
        let cfg = RunConfig { max_cycles: max, stack_words: self.stack_words };
        let fp = self.fastpath.as_deref();
        let mut fast = TrialFastStats::default();
        let (mut m, counted) = {
            let _s = fp.map(|_| Span::enter(Phase::CheckpointRestore));
            match fp.and_then(|fp| fp.store.nearest_below(target)) {
                Some(ck) => {
                    fast.restored = true;
                    fast.skipped_instrs = ck.retired;
                    (Machine::resume(&self.binary, &cfg, ck), ck.fi_count)
                }
                None => (Machine::new(&self.binary, &cfg), 0),
            }
        };
        let mut inj = I::resume(target, seed, counted);
        let mut sbs = SbStats::default();
        let outcome = 'run: {
            // An outcome here means the program ended (or timed out)
            // before the target event: the injector never fired.
            let stop = target.saturating_sub(1);
            if let Some(o) = m.run_until_count::<I, FUSE>(sb, &mut inj, stop, max, &mut sbs) {
                break 'run o;
            }
            if let Some(o) = inj.fire(&mut m, max) {
                break 'run o;
            }
            match fp.and_then(|fp| Some((&fp.store, self.golden_end(fp)?))) {
                Some((store, golden)) => {
                    let mut conv = ConvStats::default();
                    let o = m.run_to_convergence::<I, FUSE>(
                        sb, &mut inj, store, golden, max, &mut conv, &mut sbs,
                    );
                    fast.apply(&conv);
                    o
                }
                None => m
                    .run_until_count::<I, FUSE>(sb, &mut inj, u64::MAX, max, &mut sbs)
                    .expect("cycle-bounded run terminates"),
            }
        };
        fast.apply_sb(&sbs);
        TrialRun { result: m.into_result(outcome), log: inj.into_log(), fast }
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
    /// state on the exact interpreter loop, no checkpoint restore and no
    /// predecoded trial loop. This is the oracle the differential tests
    /// compare [`PreparedTool::run_trial_engine`] against.
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

/// A tool family's injector on the trial path. Its [`FiCounter`] impl is
/// the family's counting discipline: REFINE and LLFI count FI events in
/// the runtime their hooks call ([`InjectingRt`]); PINFI counts targets at
/// fetch and pays the probe overhead until it fires ([`PinfiInjector`]).
trait Injector: FiCounter + Sized {
    /// The injector after `counted` quiescent events (a checkpoint
    /// restore's count, or 0 from the initial state).
    fn resume(target: u64, seed: u64, counted: u64) -> Self;

    /// Run the exact interpreter with the injector attached through the
    /// firing event; `Some` when the run ended first.
    fn fire(&mut self, m: &mut Machine<'_>, max_cycles: u64) -> Option<RunOutcome>;

    /// The fault log entry, when the injection fired.
    fn into_log(self) -> Option<FaultRecord>;
}

impl Injector for InjectingRt {
    fn resume(target: u64, seed: u64, counted: u64) -> Self {
        InjectingRt::resume(target, seed, counted)
    }

    fn fire(&mut self, m: &mut Machine<'_>, max_cycles: u64) -> Option<RunOutcome> {
        m.run_exact_until_fired(max_cycles, self, None)
    }

    fn into_log(self) -> Option<FaultRecord> {
        self.log
    }
}

impl Injector for PinfiInjector {
    fn resume(target: u64, seed: u64, counted: u64) -> Self {
        PinfiInjector::resume(target, seed, counted)
    }

    fn fire(&mut self, m: &mut Machine<'_>, max_cycles: u64) -> Option<RunOutcome> {
        m.run_exact_until_fired(max_cycles, &mut NoFi, Some(self))
    }

    fn into_log(self) -> Option<FaultRecord> {
        self.log
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
            let r = p.run_trial_engine(ExecEngine::default(), target, k * 7 + 1).result;
            seen.insert(classify(&p.golden, &r));
        }
        assert!(seen.contains(&Outcome::Benign), "no benign outcome in 60 trials");
        assert!(seen.len() >= 2, "expected some outcome diversity: {seen:?}");
    }

    #[test]
    fn trial_is_deterministic_given_target_and_seed() {
        let m = module();
        let p = PreparedTool::prepare(&m, Tool::Pinfi);
        let a = p.run_trial_engine(ExecEngine::default(), 1234, 5).result;
        let b = p.run_trial_engine(ExecEngine::default(), 1234, 5).result;
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.output, b.output);
        assert_eq!(a.cycles, b.cycles);
    }
}
