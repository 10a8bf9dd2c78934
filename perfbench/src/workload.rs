//! The workloads: set-up, trial phase and report of a fault-injection
//! campaign, driven through the workspace crates' public entry points.
//!
//! A *pass* is one complete instance of a workload: prepare every artifact
//! (compile, instrument, golden profiling run with checkpoint capture,
//! superblock build), run the trial phase, render the report. A run repeats
//! passes, each on its own seed derived from the workload seed, until its
//! time is up, and reports medians over passes.
//!
//! Untraced passes run trials through the engine (`run_sweep`) exactly as
//! `refine-experiments` does. Traced passes wrap every public call in a
//! span, additionally time each layer on its own (frontend, optimizer,
//! backend, instrumenters, profiling run, superblock build), and drive the
//! trials themselves so each `run_trial_engine` call is timed.

use crate::check::{self, Row};
use crate::spans::{timed, SpanId, Trace};
use refine_campaign::engine::{
    run_sweep, ArtifactCache, ArtifactSource, EngineCampaign, EngineConfig, EngineHooks,
    EngineReport, DEFAULT_BATCH,
};
use refine_campaign::experiments::{self, AppResults, SuiteResults};
use refine_campaign::tools::TrialFastStats;
use refine_campaign::{classify, CampaignResult, Outcome, OutcomeCounts, PreparedTool, Tool};
use refine_core::{CheckpointOptions, ExecEngine, FiOptions, InstrClass, ProfilingRt};
use refine_ir::passes::OptLevel;
use refine_ir::Module;
use refine_machine::{Binary, CheckpointConfig, FiRuntime, Machine, NoFi, Probe, RunConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Seed used when `--seed` is not given; the reference tables are
/// recorded at it.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, for re-checking a gain claim.
pub const HELD_OUT_SEED: u64 = 104_729;

/// Passes every run makes at least, whatever its time budget.
const MIN_PASSES: usize = 3;

/// How a workload's campaigns are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's 14 apps x 3 tools (LLFI, REFINE, PINFI).
    Suite,
    /// 14 apps x REFINE prepared under each `-fi-instrs` class.
    Ablation,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Campaign shape.
    pub shape: Shape,
    /// Golden-run checkpoints (and with them convergence) on.
    pub checkpoint: bool,
    /// Worker threads: `None` means one per available core.
    pub jobs: Option<usize>,
    /// Trials per campaign in one pass.
    pub trials: u64,
    /// Trials per campaign re-run through the exact-interpreter oracle,
    /// once per run.
    pub oracle_per_cell: u64,
}

impl Workload {
    /// Worker threads this workload runs its trials on.
    pub fn jobs(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    fn checkpoint_options(&self) -> CheckpointOptions {
        if self.checkpoint {
            CheckpointOptions::default()
        } else {
            CheckpointOptions::disabled()
        }
    }
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_sweep",
        shape: Shape::Suite,
        checkpoint: true,
        jobs: None,
        trials: 120,
        oracle_per_cell: 2,
    },
    Workload {
        name: "cold_sweep",
        shape: Shape::Suite,
        checkpoint: false,
        jobs: Some(1),
        trials: 12,
        oracle_per_cell: 2,
    },
    Workload {
        name: "class_ablation",
        shape: Shape::Ablation,
        checkpoint: true,
        jobs: None,
        trials: 10,
        oracle_per_cell: 1,
    },
];

/// Reference outcome tables of pass 0 at [`DEFAULT_SEED`], by workload.
pub const REFERENCES: [(&str, &str); 3] = [
    ("paper_sweep", include_str!("../reference/paper_sweep.txt")),
    ("cold_sweep", include_str!("../reference/cold_sweep.txt")),
    (
        "class_ablation",
        include_str!("../reference/class_ablation.txt"),
    ),
];

/// The `-fi-instrs` classes of the ablation.
const CLASSES: [(&str, InstrClass); 4] = [
    ("stack", InstrClass::Stack),
    ("arith", InstrClass::Arith),
    ("mem", InstrClass::Mem),
    ("all", InstrClass::All),
];

/// Lower-case metric key of a tool.
pub fn tool_key(tool: Tool) -> &'static str {
    match tool {
        Tool::Llfi => "llfi",
        Tool::Refine => "refine",
        Tool::Pinfi => "pinfi",
    }
}

/// One campaign of a pass: a prepared artifact and how it was made.
pub struct Cell {
    /// Table label: `app/TOOL` or `app/class`.
    pub label: String,
    /// Name the engine mixes into trial streams (`app`, or `app/class`).
    pub stream_name: String,
    /// Index into [`Setup::modules`].
    pub module: usize,
    /// Injection tool.
    pub tool: Tool,
    /// REFINE flags of an ablation cell.
    pub fi: Option<FiOptions>,
    /// The artifact.
    pub prepared: Arc<PreparedTool>,
}

/// Everything set-up produces.
pub struct Setup {
    /// Suite programs as IR, in suite order.
    pub modules: Vec<Module>,
    /// Campaigns, in report order.
    pub cells: Vec<Cell>,
}

/// Prepare every artifact of `w`, timing each public call under `trace`.
fn setup(w: &Workload, trace: Option<&Trace>, parent: Option<SpanId>) -> Setup {
    let mut modules = Vec::new();
    let mut cells = Vec::new();
    for b in refine_benchmarks::all() {
        let module = timed(
            trace,
            || "frontend.compile_source".into(),
            parent,
            |_| refine_frontend::compile_source(b.source).expect("suite programs compile"),
        );
        let idx = modules.len();
        let prepare = |tool: Tool, f: &dyn Fn() -> PreparedTool| {
            Arc::new(timed(
                trace,
                || format!("campaign.prepare.{}", tool_key(tool)),
                parent,
                |_| f(),
            ))
        };
        match w.shape {
            Shape::Suite => {
                for tool in Tool::all() {
                    let ckpt = w.checkpoint_options();
                    let prepared =
                        prepare(tool, &|| PreparedTool::prepare_opt(&module, tool, &ckpt));
                    cells.push(Cell {
                        label: format!("{}/{}", b.name, tool.name()),
                        stream_name: b.name.to_string(),
                        module: idx,
                        tool,
                        fi: None,
                        prepared,
                    });
                }
            }
            Shape::Ablation => {
                for (class_name, class) in CLASSES {
                    let opts = FiOptions {
                        fi: true,
                        fi_instrs: class,
                        ..FiOptions::all()
                    };
                    let prepared = prepare(Tool::Refine, &|| {
                        PreparedTool::prepare_refine_with(&module, &opts)
                    });
                    let label = format!("{}/{}", b.name, class_name);
                    cells.push(Cell {
                        stream_name: label.clone(),
                        label,
                        module: idx,
                        tool: Tool::Refine,
                        fi: Some(opts),
                        prepared,
                    });
                }
            }
        }
        modules.push(module);
    }
    Setup { modules, cells }
}

/// Run the trial phase through the engine.
fn sweep(w: &Workload, cells: &[Cell], seed: u64) -> EngineReport {
    let campaigns: Vec<EngineCampaign> = cells
        .iter()
        .map(|c| EngineCampaign {
            app: c.stream_name.clone(),
            tool: c.tool,
            source: ArtifactSource::Prepared(Arc::clone(&c.prepared)),
        })
        .collect();
    let cfg = EngineConfig {
        trials: w.trials,
        seed,
        jobs: w.jobs(),
        batch: DEFAULT_BATCH,
        checkpoint: w.checkpoint,
        convergence: w.checkpoint,
        checkpoint_interval: CheckpointOptions::default().interval,
        engine: ExecEngine::Superblock,
    };
    run_sweep(
        &campaigns,
        &cfg,
        &ArtifactCache::new(),
        &EngineHooks::default(),
    )
}

/// Render the workload's report: the paper's figures and tables for the
/// suite, the outcome mix per class for the ablation.
fn render_report(w: &Workload, cells: &[Cell], results: &[CampaignResult]) -> String {
    match w.shape {
        Shape::Suite => {
            let apps = cells
                .chunks(3)
                .zip(results.chunks(3))
                .map(|(c, r)| AppResults {
                    name: c[0].stream_name.clone(),
                    llfi: r[0].clone(),
                    refine: r[1].clone(),
                    pinfi: r[2].clone(),
                })
                .collect();
            let suite = SuiteResults {
                apps,
                trials: w.trials,
            };
            [
                experiments::fig4(&suite),
                experiments::table4(&suite),
                experiments::table5(&suite),
                experiments::table6(&suite),
                experiments::fig5(&suite),
            ]
            .concat()
        }
        Shape::Ablation => {
            let mut s = format!(
                "Ablation — REFINE outcome mix by -fi-instrs class (n = {})\n",
                w.trials
            );
            for (c, r) in cells.iter().zip(results) {
                let p = r.counts.percentages();
                s += &format!(
                    "{:18} {:>10} {:>8.1} {:>8.1} {:>8.1}\n",
                    c.label, r.population, p[0], p[1], p[2]
                );
            }
            s
        }
    }
}

/// Rows of an outcome table, plus trials failing the per-pass sanity
/// checks (every campaign ran its trials over its artifact's population).
fn rows_of(w: &Workload, cells: &[Cell], results: &[CampaignResult]) -> (Vec<Row>, u64) {
    let mut failed = 0;
    let rows = cells
        .iter()
        .zip(results)
        .map(|(c, r)| {
            let row = Row::of(c.label.clone(), r);
            if row.trials() != w.trials || row.population != c.prepared.population {
                failed += w.trials;
            }
            row
        })
        .collect();
    (rows, failed)
}

/// Wall-clock accounting of one untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct PassTimes {
    /// Set-up seconds (all artifacts, before the first trial).
    pub setup_s: f64,
    /// Trial-phase seconds.
    pub trial_s: f64,
    /// Whole pass: set-up, trials and report.
    pub wall_s: f64,
    /// Trials run.
    pub trials: u64,
    /// Summed per-trial busy seconds the engine reports (capped at jobs x
    /// trial-phase wall).
    pub busy_s: f64,
    /// Jobs x trial-phase wall, minus busy.
    pub idle_s: f64,
}

/// One untraced pass: its times, outcome rows, sanity failures and the
/// set-up it used.
fn untraced_pass(w: &Workload, seed: u64) -> (PassTimes, Vec<Row>, u64, Setup) {
    let t0 = Instant::now();
    let setup = setup(w, None, None);
    let t1 = Instant::now();
    let report = sweep(w, &setup.cells, seed);
    let t2 = Instant::now();
    black_box(render_report(w, &setup.cells, &report.results));
    let t3 = Instant::now();
    let (rows, failed) = rows_of(w, &setup.cells, &report.results);
    let trial_s = (t2 - t1).as_secs_f64();
    let busy_s = report.busy_capped() as f64 / 1e9;
    let times = PassTimes {
        setup_s: (t1 - t0).as_secs_f64(),
        trial_s,
        wall_s: (t3 - t0).as_secs_f64(),
        trials: w.trials * setup.cells.len() as u64,
        busy_s,
        idle_s: report.jobs as f64 * report.wall_ns as f64 / 1e9 - busy_s,
    };
    (times, rows, failed, setup)
}

/// splitmix64: the benchmark's own input generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of pass `k` of a run at `seed`; pass 0 runs at `seed` itself.
fn pass_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        mix(seed ^ mix(k as u64))
    }
}

/// The `(target, trial seed)` the benchmark passes to trial `trial` of
/// campaign `cell` at `seed`.
fn draw(seed: u64, cell: usize, trial: u64, population: u64) -> (u64, u64) {
    let a = mix(mix(mix(seed) ^ cell as u64) ^ trial);
    (1 + a % population, mix(a))
}

/// One trial the benchmark drove itself.
#[derive(Debug, Clone, Copy)]
pub struct TrialRec {
    /// Campaign index.
    pub cell: usize,
    /// Tool of the campaign.
    pub tool: Tool,
    /// `run_trial_engine` nanoseconds.
    pub ns: u64,
    /// `classify` nanoseconds.
    pub classify_ns: u64,
    /// Outcome class.
    pub outcome: Outcome,
    /// Simulated cycles.
    pub cycles: u64,
    /// Execution accounting the program returned.
    pub fast: TrialFastStats,
}

/// Drive `w.trials` trials per campaign on `w.jobs()` threads, each call
/// under a span.
fn drive_trials(
    w: &Workload,
    cells: &[Cell],
    seed: u64,
    tr: &Trace,
    parent: SpanId,
) -> Vec<TrialRec> {
    let inputs: Vec<(usize, u64, u64)> = cells
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| {
            (0..w.trials).map(move |t| {
                let (target, s) = draw(seed, ci, t, c.prepared.population);
                (ci, target, s)
            })
        })
        .collect();
    let cursor = AtomicUsize::new(0);
    let recs = Mutex::new(Vec::with_capacity(inputs.len()));
    std::thread::scope(|scope| {
        for _ in 0..w.jobs() {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(ci, target, s)) = inputs.get(i) else {
                        break;
                    };
                    let p = &cells[ci].prepared;
                    let name = format!("campaign.run_trial_engine.{}", tool_key(p.tool));
                    let (run, ns) = tr.span(name, Some(parent), |_| {
                        let t0 = Instant::now();
                        let run = p.run_trial_engine(ExecEngine::Superblock, target, s);
                        (run, t0.elapsed().as_nanos() as u64)
                    });
                    let (outcome, classify_ns) = tr.span("campaign.classify", Some(parent), |_| {
                        let t0 = Instant::now();
                        let o = classify(&p.golden, &run.result);
                        (o, t0.elapsed().as_nanos() as u64)
                    });
                    local.push(TrialRec {
                        cell: ci,
                        tool: p.tool,
                        ns,
                        classify_ns,
                        outcome,
                        cycles: run.result.cycles,
                        fast: run.fast,
                    });
                }
                recs.lock()
                    .expect("trial records lock poisoned")
                    .extend(local);
            });
        }
    });
    recs.into_inner().expect("trial records lock poisoned")
}

/// Profile `binary` the way set-up does, capturing checkpoints when `ck`
/// is given. Returns the run's simulated cycles.
fn profile(
    binary: &Binary,
    cfg: &RunConfig,
    rt: &mut dyn FiRuntime,
    probe: Option<&mut dyn Probe>,
    ck: Option<&CheckpointConfig>,
) -> u64 {
    match ck {
        Some(ck) => {
            Machine::run_checkpointed(binary, cfg, rt, probe, ck)
                .0
                .cycles
        }
        None => Machine::run(binary, cfg, rt, probe).cycles,
    }
}

/// Time each layer of set-up on its own: optimizer, backend, each
/// instrumenting compile, each profiling run and each superblock build.
/// Returns the artifacts whose re-profiled population or cycles disagree
/// with set-up's (0 when the layers compose to what set-up produced).
fn probe_layers(w: &Workload, setup: &Setup, tr: &Trace, parent: SpanId) -> u64 {
    let parent = Some(parent);
    for module in &setup.modules {
        let mut optimized = module.clone();
        tr.span("ir.optimize", parent, |_| {
            refine_ir::passes::optimize(&mut optimized, OptLevel::O2)
        });
        tr.span("mir.compile", parent, |_| {
            black_box(refine_mir::compile(&optimized, OptLevel::O0))
        });
    }
    let mut mismatches = 0;
    for cell in &setup.cells {
        let module = &setup.modules[cell.module];
        let p = &cell.prepared;
        let exempt = match cell.tool {
            Tool::Refine => tr.span("core.compile_with_fi.refine", parent, |_| {
                let opts = cell.fi.clone().unwrap_or_else(FiOptions::all);
                refine_core::compile_with_fi(module, OptLevel::O2, &opts).digest_exempt_words()
            }),
            Tool::Llfi => tr.span("llfi.compile_with_llfi", parent, |_| {
                let opts = refine_llfi::LlfiOptions::default();
                black_box(refine_llfi::compile_with_llfi(module, OptLevel::O2, &opts));
                (0, 0)
            }),
            Tool::Pinfi => tr.span("core.compile_with_fi.pinfi", parent, |_| {
                let opts = FiOptions::default();
                black_box(refine_core::compile_with_fi(module, OptLevel::O2, &opts));
                (0, 0)
            }),
        };
        let cfg = RunConfig {
            max_cycles: u64::MAX / 4,
            stack_words: p.stack_words,
        };
        let ck = w.checkpoint.then(|| CheckpointConfig {
            exempt_data_words: exempt,
            ..CheckpointOptions::default().machine_config()
        });
        let name = format!("machine.profile.{}", tool_key(cell.tool));
        let got = tr.span(name, parent, |_| match cell.tool {
            Tool::Pinfi => {
                let mut probe = refine_pinfi::PinfiProfiler::default();
                let cycles = profile(&p.binary, &cfg, &mut NoFi, Some(&mut probe), ck.as_ref());
                (cycles, probe.count)
            }
            Tool::Refine | Tool::Llfi => {
                let mut rt = ProfilingRt::default();
                let cycles = profile(&p.binary, &cfg, &mut rt, None, ck.as_ref());
                (cycles, rt.count)
            }
        });
        if got != (p.profile_cycles, p.population) {
            mismatches += 1;
        }
        let name = format!("machine.superblock_new.{}", tool_key(cell.tool));
        tr.span(name, parent, |_| {
            black_box(refine_machine::SuperblockProgram::new(&p.binary))
        });
    }
    mismatches
}

/// Outcome tables built from trials the benchmark drove itself.
fn results_of(w: &Workload, cells: &[Cell], recs: &[TrialRec]) -> Vec<CampaignResult> {
    let mut out: Vec<CampaignResult> = cells
        .iter()
        .map(|c| CampaignResult {
            tool: c.tool.name().to_string(),
            counts: OutcomeCounts::default(),
            total_cycles: 0,
            population: c.prepared.population,
            profile_cycles: c.prepared.profile_cycles,
        })
        .collect();
    for r in recs {
        out[r.cell].counts.add(r.outcome);
        out[r.cell].total_cycles += r.cycles;
    }
    debug_assert!(out.iter().all(|r| r.counts.total() == w.trials));
    out
}

/// Static facts of one pass's artifacts.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArtifactFacts {
    /// Text instructions of the REFINE binaries, summed.
    pub core_text: usize,
    /// Text instructions of the LLFI binaries, summed.
    pub llfi_text: usize,
    /// Golden-run checkpoints held, summed.
    pub checkpoints: usize,
    /// Words of page memory those checkpoints hold, summed.
    pub checkpoint_words: usize,
}

impl ArtifactFacts {
    fn of(cells: &[Cell]) -> ArtifactFacts {
        let mut f = ArtifactFacts::default();
        for c in cells {
            match c.tool {
                Tool::Refine => f.core_text += c.prepared.binary.text.len(),
                Tool::Llfi => f.llfi_text += c.prepared.binary.text.len(),
                Tool::Pinfi => {}
            }
            if let Some(fp) = &c.prepared.fastpath {
                f.checkpoints += fp.store.len();
                f.checkpoint_words += fp.store.memory_words();
            }
        }
        f
    }
}

/// One traced pass: its wall seconds, spans, trial records, artifact facts
/// and layer-probe mismatches.
pub struct TracedPass {
    /// Whole-pass wall seconds, tracing on.
    pub wall_s: f64,
    /// Every closed span.
    pub spans: Vec<crate::spans::SpanRec>,
    /// Trials the benchmark drove.
    pub trials: Vec<TrialRec>,
    /// The pass's artifacts.
    pub facts: ArtifactFacts,
    /// Artifacts the layer probe could not reproduce.
    pub mismatches: u64,
}

fn traced_pass(w: &Workload, seed: u64) -> TracedPass {
    let tr = Trace::default();
    let t0 = Instant::now();
    let (setup, mismatches, trials) = tr.span("pass", None, |root| {
        let setup = tr.span("setup", Some(root), |id| setup(w, Some(&tr), Some(id)));
        let mismatches = tr.span("layers", Some(root), |id| probe_layers(w, &setup, &tr, id));
        let trials = tr.span("trials", Some(root), |id| {
            drive_trials(w, &setup.cells, seed, &tr, id)
        });
        tr.span("report", Some(root), |id| {
            let results = results_of(w, &setup.cells, &trials);
            tr.span("stats.report", Some(id), |_| {
                black_box(render_report(w, &setup.cells, &results))
            });
        });
        (setup, mismatches, trials)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    TracedPass {
        wall_s,
        spans: tr.into_spans(),
        trials,
        facts: ArtifactFacts::of(&setup.cells),
        mismatches,
    }
}

/// What a run measured.
pub struct RunData {
    /// Untraced passes.
    pub passes: Vec<PassTimes>,
    /// Traced passes (empty unless tracing).
    pub traced: Vec<TracedPass>,
    /// Cells of the last untraced pass.
    pub cells: Vec<Cell>,
    /// Trials and oracle re-runs attempted.
    pub attempted: u64,
    /// Of those, the ones that failed a check.
    pub failed: u64,
    /// Whether pass 0 was compared against the reference table.
    pub reference_checked: bool,
    /// Oracle re-runs made.
    pub oracle_runs: u64,
    /// Worker threads of the trial phase.
    pub jobs: usize,
}

/// Run workload `w` at `seed` for about `seconds`: untraced passes only,
/// or (with `trace`) untraced passes for the first half and traced passes
/// for the second. With `write_reference`, pass 0's outcome table becomes
/// the workload's reference (at [`DEFAULT_SEED`] only).
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, write_reference: bool) -> RunData {
    let start = Instant::now();
    let untraced_budget = if trace { seconds / 2.0 } else { seconds };
    let mut passes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference_checked = false;
    let mut cells = Vec::new();
    while passes.len() < if trace { 1 } else { MIN_PASSES }
        || start.elapsed().as_secs_f64() < untraced_budget
    {
        // Only one pass's artifacts are alive at a time.
        cells.clear();
        let k = passes.len();
        let (times, rows, pass_failed, setup) = untraced_pass(w, pass_seed(seed, k));
        attempted += times.trials;
        failed += pass_failed;
        if k == 0 && seed == DEFAULT_SEED {
            if write_reference {
                let path = format!("{}/reference/{}.txt", env!("CARGO_MANIFEST_DIR"), w.name);
                std::fs::write(&path, check::render(&rows)).expect("reference table is writable");
            } else {
                let (_, text) = REFERENCES
                    .iter()
                    .find(|(n, _)| *n == w.name)
                    .expect("reference per workload");
                let want = check::parse(text).expect("committed reference parses");
                failed += check::table_failures(&rows, &want);
                reference_checked = true;
            }
        }
        passes.push(times);
        cells = setup.cells;
    }
    let mut traced = Vec::new();
    while trace && (traced.is_empty() || start.elapsed().as_secs_f64() < seconds) {
        let pass = traced_pass(w, pass_seed(seed, passes.len() + traced.len()));
        attempted += pass.trials.len() as u64;
        failed += pass.mismatches;
        traced.push(pass);
    }
    let mut oracle_runs = 0;
    for (ci, c) in cells.iter().enumerate() {
        for t in 0..w.oracle_per_cell {
            let (target, s) = draw(!seed, ci, t, c.prepared.population);
            oracle_runs += 1;
            if let Some(diff) = check::oracle_diff(&c.prepared, target, s) {
                eprintln!("oracle: {} target {target} seed {s}: {diff}", c.label);
                failed += 1;
            }
        }
    }
    attempted += oracle_runs;
    RunData {
        passes,
        traced,
        cells,
        attempted,
        failed,
        reference_checked,
        oracle_runs,
        jobs: w.jobs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_depend_on_every_input_and_stay_in_range() {
        let base = draw(1, 2, 3, 1000);
        assert_ne!(base, draw(2, 2, 3, 1000));
        assert_ne!(base, draw(1, 3, 3, 1000));
        assert_ne!(base, draw(1, 2, 4, 1000));
        assert_eq!(base, draw(1, 2, 3, 1000));
        for t in 0..1000 {
            let (target, _) = draw(9, 0, t, 7);
            assert!((1..=7).contains(&target));
        }
    }

    #[test]
    fn pass_zero_runs_at_the_workload_seed() {
        assert_eq!(pass_seed(DEFAULT_SEED, 0), DEFAULT_SEED);
        assert_ne!(pass_seed(DEFAULT_SEED, 1), pass_seed(DEFAULT_SEED, 2));
    }
}
