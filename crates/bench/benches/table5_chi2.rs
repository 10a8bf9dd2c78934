//! Table 5 harness: chi-squared testing of outcome tables.
//!
//! Benches the statistical machinery itself (contingency tests over
//! campaign-sized tables) and, once, reproduces the Table 5 decision for a
//! mini-sweep of one app.

use criterion::{criterion_group, criterion_main, Criterion};
use refine_campaign::campaign::run_campaign;
use refine_campaign::engine::EngineConfig;
use refine_campaign::tools::Tool;
use refine_stats::chi2_contingency;

fn bench_chi2(c: &mut Criterion) {
    // Paper Table 4 data as the microbench payload.
    let llfi = vec![395u64, 168, 505];
    let pinfi = vec![269u64, 70, 729];
    c.bench_function("table5/chi2_contingency_2x3", |b| {
        b.iter(|| chi2_contingency(std::hint::black_box(&[llfi.clone(), pinfi.clone()])))
    });

    // Three-row (all-tool) tables.
    let refine = vec![254u64, 87, 727];
    c.bench_function("table5/chi2_contingency_3x3", |b| {
        b.iter(|| {
            chi2_contingency(std::hint::black_box(&[
                llfi.clone(),
                refine.clone(),
                pinfi.clone(),
            ]))
        })
    });

    // One real mini Table 5 row, printed for the record.
    let m = refine_benchmarks::by_name("miniFE").unwrap().module();
    let cfg = EngineConfig { trials: 120, seed: 99, jobs: 0, checkpoint: true, ..EngineConfig::default() };
    let l = run_campaign(&m, Tool::Llfi, &cfg);
    let r = run_campaign(&m, Tool::Refine, &cfg);
    let p = run_campaign(&m, Tool::Pinfi, &cfg);
    let chi_l = chi2_contingency(&[l.counts.row(), p.counts.row()]);
    let chi_r = chi2_contingency(&[r.counts.row(), p.counts.row()]);
    println!(
        "[table5] miniFE: LLFI vs PINFI p={:.4} ({}), REFINE vs PINFI p={:.4} ({})",
        chi_l.p_value,
        if chi_l.significant(0.05) { "reject" } else { "accept" },
        chi_r.p_value,
        if chi_r.significant(0.05) { "reject" } else { "accept" },
    );
}

criterion_group!(benches, bench_chi2);
criterion_main!(benches);
