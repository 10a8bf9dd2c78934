//! Table 4 harness: building the example contingency table end to end
//! (campaign -> counts -> table) on AMG2013, the paper's example app.

use criterion::{criterion_group, criterion_main, Criterion};
use refine_campaign::campaign::run_campaign_prepared;
use refine_campaign::engine::EngineConfig;
use refine_campaign::tools::{PreparedTool, Tool};
use refine_stats::chi2_contingency;

fn bench_table4(c: &mut Criterion) {
    let module = refine_benchmarks::by_name("AMG2013").unwrap().module();
    let llfi = PreparedTool::prepare(&module, Tool::Llfi);
    let pinfi = PreparedTool::prepare(&module, Tool::Pinfi);
    let cfg = EngineConfig { trials: 30, seed: 42, jobs: 0, checkpoint: true, ..EngineConfig::default() };

    // Print the reproduced Table 4 once.
    let lr = run_campaign_prepared(&llfi, &cfg);
    let pr = run_campaign_prepared(&pinfi, &cfg);
    let chi = chi2_contingency(&[lr.counts.row(), pr.counts.row()]);
    println!(
        "[table4] AMG2013 (n={}): LLFI {:?} vs PINFI {:?} -> chi2={:.2}, p={:.4}",
        cfg.trials, lr.counts, pr.counts, chi.statistic, chi.p_value
    );

    let mut g = c.benchmark_group("table4_contingency");
    g.sample_size(10);
    g.bench_function("amg2013_llfi_vs_pinfi_30trials", |b| {
        b.iter(|| {
            let lr = run_campaign_prepared(&llfi, &cfg);
            let pr = run_campaign_prepared(&pinfi, &cfg);
            chi2_contingency(&[lr.counts.row(), pr.counts.row()])
        })
    });
    g.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
