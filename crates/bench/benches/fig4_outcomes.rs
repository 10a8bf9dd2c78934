//! Figure 4 harness: outcome-distribution campaigns per (app, tool).
//!
//! Criterion measures the wall-clock throughput of reduced campaigns (the
//! real 1,068-trial sweep is `refine-experiments fig4 --trials 1068`); as a
//! side effect the bench prints the reproduced Figure 4 outcome mix for the
//! benched apps so the shape is visible in bench logs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use refine_campaign::campaign::run_campaign_prepared;
use refine_campaign::engine::EngineConfig;
use refine_campaign::tools::{PreparedTool, Tool};

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_outcomes");
    g.sample_size(10);
    for app in ["HPCCG-1.0", "CoMD"] {
        let module = refine_benchmarks::by_name(app).unwrap().module();
        for tool in Tool::all() {
            let prepared = PreparedTool::prepare(&module, tool);
            let cfg = EngineConfig { trials: 40, seed: 1, jobs: 0, checkpoint: true, ..EngineConfig::default() };
            // Print the sampled outcome mix once, for the record.
            let r = run_campaign_prepared(&prepared, &cfg);
            let p = r.counts.percentages();
            println!(
                "[fig4] {app:10} {:8} crash={:5.1}% soc={:5.1}% benign={:5.1}%",
                tool.name(),
                p[0],
                p[1],
                p[2]
            );
            g.bench_with_input(
                BenchmarkId::new(format!("{app}/{}", tool.name()), cfg.trials),
                &prepared,
                |b, prep| b.iter(|| run_campaign_prepared(prep, &cfg)),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
