//! End-to-end observability: a small campaign over every tool streams one
//! provenance record per trial, and the aggregated trace agrees with the
//! campaign's own outcome counts.

use refine_campaign::campaign::{
    run_campaign_observed, CampaignHooks, OutcomeCounts,
};
use refine_campaign::engine::EngineConfig;
use refine_campaign::tools::{PreparedTool, Tool};
use refine_telemetry::trace::{read_jsonl, TraceSummary};
use refine_telemetry::{Progress, TraceSink};

const TRIALS: u64 = 32;

#[test]
fn traced_campaign_emits_one_record_per_trial() {
    refine_telemetry::enable();
    let module = refine_benchmarks::by_name("matmul").expect("matmul extra exists").module();
    let cfg = EngineConfig { trials: TRIALS, seed: 0xC0FFEE, jobs: 2, checkpoint: true, ..EngineConfig::default() };

    let dir = std::env::temp_dir().join("refine-telemetry-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("trace-{}.jsonl", std::process::id()));

    let mut by_tool_counts: Vec<(String, OutcomeCounts)> = Vec::new();
    {
        let sink = TraceSink::to_file(&path).unwrap();
        for tool in Tool::all() {
            let prepared = PreparedTool::prepare(&module, tool);
            let progress = Progress::new(TRIALS, true);
            let hooks = CampaignHooks {
                app: "matmul",
                sink: Some(&sink),
                progress: Some(&progress),
            };
            let r = run_campaign_observed(&prepared, &cfg, &hooks);
            assert_eq!(r.counts.total(), TRIALS);
            assert_eq!(progress.done(), TRIALS, "progress counts every trial");
            by_tool_counts.push((tool.name().to_lowercase(), r.counts));
        }
        sink.flush().unwrap();
    }

    let records = read_jsonl(&path).unwrap();
    assert_eq!(
        records.len() as u64,
        TRIALS * 3,
        "exactly one trace line per trial per tool"
    );

    for (tool, counts) in &by_tool_counts {
        let recs: Vec<_> = records.iter().filter(|r| &r.tool == tool).collect();
        assert_eq!(recs.len() as u64, TRIALS, "{tool}");

        // Trial indices are complete and unique.
        let mut trials: Vec<u64> = recs.iter().map(|r| r.trial).collect();
        trials.sort_unstable();
        assert_eq!(trials, (0..TRIALS).collect::<Vec<_>>(), "{tool}");

        // Trace outcomes reproduce the campaign's counts exactly.
        let count_of = |label: &str| recs.iter().filter(|r| r.outcome == label).count() as u64;
        assert_eq!(count_of("crash"), counts.crash, "{tool} crash");
        assert_eq!(count_of("soc"), counts.soc, "{tool} soc");
        assert_eq!(count_of("benign"), counts.benign, "{tool} benign");
    }

    // Provenance is populated whenever the fault fired: a site always has
    // an opcode label and a bit position.
    let fired: Vec<_> = records.iter().filter(|r| r.site.is_some()).collect();
    assert!(
        fired.len() > records.len() / 2,
        "most injections fire ({} of {})",
        fired.len(),
        records.len()
    );
    for r in &fired {
        assert!(r.opcode.is_some(), "fired fault must carry an opcode: {r:?}");
        assert!(r.bit.is_some());
        assert!(r.bit.unwrap() < 64);
    }
    // Crash records carry a trap cause unless the crash was a bad exit code.
    for r in records.iter().filter(|r| r.outcome == "crash") {
        if let Some(t) = &r.trap {
            assert!(
                ["segfault", "misaligned", "div-fault", "bad-pc", "illegal-instr", "timeout"]
                    .contains(&t.as_str()),
                "unexpected trap cause {t}"
            );
        }
    }

    // The aggregator sees the same totals.
    let summary = TraceSummary::from_records(&records);
    assert_eq!(summary.total, TRIALS * 3);
    assert_eq!(summary.no_injection, (records.len() - fired.len()) as u64);
    for (tool, counts) in &by_tool_counts {
        let t = &summary.by_tool[tool];
        assert_eq!((t.crash, t.soc, t.benign), (counts.crash, counts.soc, counts.benign));
    }
    let table = summary.render();
    assert!(table.contains("tool"), "rendered table has a header");

    // The metrics registry observed every trial, and compile phases were
    // timed (prepare ran the full pipeline under spans).
    let snap = refine_telemetry::registry().snapshot();
    assert!(snap.trial_latency_ns.count >= TRIALS * 3);
    assert!(snap.trial_instrs.count >= TRIALS * 3);
    assert!(snap.trial_cycles.count >= TRIALS * 3);
    let phases = &snap.phases;
    for needed in ["lex", "parse", "isel", "regalloc", "emit", "fi-refine-pass", "fi-llfi-pass"] {
        assert!(
            phases.phases.iter().any(|p| p.name == needed && p.calls > 0),
            "phase {needed} must have been timed"
        );
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn untraced_campaign_is_unchanged_by_observers() {
    // Attaching pure observers (sink, progress) must not change results:
    // identical counts and cycles for an identical campaign identity. The
    // app name is part of that identity — it salts the per-trial fault
    // streams (`program_salt`) — so it is held fixed here.
    let module = refine_benchmarks::by_name("matmul").unwrap().module();
    let cfg = EngineConfig { trials: 16, seed: 9, jobs: 2, checkpoint: true, ..EngineConfig::default() };
    let prepared = PreparedTool::prepare(&module, Tool::Refine);

    let bare = CampaignHooks { app: "matmul", sink: None, progress: None };
    let plain = run_campaign_observed(&prepared, &cfg, &bare);
    let sink_dir = std::env::temp_dir().join("refine-telemetry-integration");
    std::fs::create_dir_all(&sink_dir).unwrap();
    let path = sink_dir.join(format!("trace-b-{}.jsonl", std::process::id()));
    let sink = TraceSink::to_file(&path).unwrap();
    let progress = Progress::new(16, true);
    let hooks = CampaignHooks { app: "matmul", sink: Some(&sink), progress: Some(&progress) };
    let observed = run_campaign_observed(&prepared, &cfg, &hooks);

    assert_eq!(plain.counts, observed.counts);
    assert_eq!(plain.total_cycles, observed.total_cycles);

    // A different app name is a different campaign: independent fault
    // streams even from the same prepared artifact and seed.
    let other = CampaignHooks { app: "matmul-2", sink: None, progress: None };
    let renamed = run_campaign_observed(&prepared, &cfg, &other);
    assert_ne!(
        (plain.counts, plain.total_cycles),
        (renamed.counts, renamed.total_cycles),
        "program salt must separate streams"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn artifact_cache_counts_only_demand_lookups() {
    // The sweep report reads each campaign's artifact back from the cache;
    // that read must not count as a hit. A `--jobs 1` sweep over N distinct
    // artifacts prepares each once and never re-fetches one, so it reports
    // N misses and 0 hits, and the telemetry counters agree. (The other
    // tests here use pre-prepared artifacts, which bypass the cache.)
    use refine_campaign::engine::{
        run_sweep, ArtifactCache, ArtifactSource, EngineCampaign, EngineHooks,
    };
    use std::sync::Arc;
    refine_telemetry::enable();
    let reg = refine_telemetry::registry();
    let (hits0, misses0) = (reg.artifact_cache_hits.get(), reg.artifact_cache_misses.get());
    let module = Arc::new(refine_benchmarks::by_name("matmul").unwrap().module());
    let specs: Vec<EngineCampaign> = Tool::all()
        .into_iter()
        .map(|tool| EngineCampaign {
            app: "matmul".into(),
            tool,
            source: ArtifactSource::Module(Arc::clone(&module)),
        })
        .collect();
    let cfg = EngineConfig {
        trials: 4,
        seed: 3,
        jobs: 1,
        ..EngineConfig::default()
    };
    let report = run_sweep(&specs, &cfg, &ArtifactCache::new(), &EngineHooks::default());
    let n = specs.len() as u64;
    assert_eq!((report.cache.misses, report.cache.hits), (n, 0));
    assert_eq!(reg.artifact_cache_misses.get() - misses0, n);
    assert_eq!(reg.artifact_cache_hits.get() - hits0, 0);
}
