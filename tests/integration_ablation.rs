//! The `-fi-instrs` class ablation prepares its artifacts with the sweep's
//! checkpoint options, so `--no-checkpoint`, `--no-convergence` and
//! `--checkpoint-interval` reach its trials like every other experiment's.
//!
//! The only test in its binary: it reads deltas of the process-wide
//! telemetry counters, which concurrent campaigns would disturb.

use refine_campaign::engine::EngineConfig;
use refine_campaign::experiments::class_ablation;

#[test]
fn ablation_honours_the_checkpoint_options() {
    refine_telemetry::enable();
    let reg = refine_telemetry::registry();
    let apps = vec!["CoMD".to_string()];
    // (table, restores, cold trials, convergence hits) of one ablation run.
    let run = |cfg: EngineConfig| {
        let cfg = EngineConfig { trials: 8, seed: 5, jobs: 2, ..cfg };
        let before =
            (reg.checkpoint_restores.get(), reg.checkpoint_cold.get(), reg.convergence_hits.get());
        let table = class_ablation(&apps, &cfg);
        let restores = reg.checkpoint_restores.get() - before.0;
        let cold = reg.checkpoint_cold.get() - before.1;
        let hits = reg.convergence_hits.get() - before.2;
        (table, restores, cold, hits)
    };
    let trials = 4 * 8; // four classes x 8 trials
    let (table, restores, _, hits) = run(EngineConfig::default());
    assert!(restores > 0 && hits > 0, "default: {restores} restores, {hits} hits");

    let (no_ckpt, restores, cold, hits) =
        run(EngineConfig { checkpoint: false, ..Default::default() });
    assert_eq!((restores, cold, hits), (0, trials, 0), "checkpoint off");

    let (no_conv, restores, _, hits) =
        run(EngineConfig { convergence: false, ..Default::default() });
    assert!(restores > 0, "convergence off keeps restores");
    assert_eq!(hits, 0, "convergence off");

    // An interval longer than any run captures no snapshot to restore.
    let (sparse, restores, cold, _) =
        run(EngineConfig { checkpoint_interval: 1 << 40, ..Default::default() });
    assert_eq!((restores, cold), (0, trials), "interval 2^40");

    for other in [no_ckpt, no_conv, sparse] {
        assert_eq!(other, table, "the knobs never change the ablation table");
    }
}
