//! Campaign-harness integration: the paper's workflow (profile -> inject ->
//! classify), the 10x timeout rule, determinism, and fault-log replay.

use refine_campaign::campaign::run_campaign;
use refine_campaign::engine::EngineConfig;
use refine_campaign::tools::{PreparedTool, Tool};
use refine_campaign::{classify, Outcome};
use refine_machine::RunOutcome;

fn small_module() -> refine_ir::Module {
    refine_frontend::compile_source(
        "fvar w[24];\n\
         var seedg;\n\
         fn lcg() { seedg = (seedg * 1103515245 + 12345) % 2147483648; return seedg; }\n\
         fn main() {\n\
           seedg = 5;\n\
           for (i = 0; i < 24; i = i + 1) { w[i] = float(lcg() % 100) / 10.0 + 1.0; }\n\
           let s: float = 0.0;\n\
           for (r = 0; r < 6; r = r + 1) {\n\
             for (i = 1; i < 23; i = i + 1) { w[i] = 0.5 * w[i] + 0.25 * (w[i-1] + w[i+1]); }\n\
           }\n\
           for (i = 0; i < 24; i = i + 1) { s = s + w[i]; }\n\
           print_f(s);\n\
           return 0;\n\
         }",
    )
    .unwrap()
}

#[test]
fn workflow_profile_then_inject_then_classify() {
    let m = small_module();
    for tool in Tool::all() {
        let p = PreparedTool::prepare(&m, tool);
        assert!(p.population > 100, "{}", tool.name());
        assert_eq!(p.timeout_cycles, p.profile_cycles * 10, "the 10x rule");
        // A mid-run injection classifies into one of the three categories.
        let r = p.run_trial(p.population / 2, 33);
        let o = classify(&p.golden, &r);
        assert!(matches!(o, Outcome::Crash | Outcome::Soc | Outcome::Benign));
    }
}

#[test]
fn campaigns_deterministic_and_complete() {
    let m = small_module();
    let cfg = EngineConfig { trials: 50, seed: 11, jobs: 4, checkpoint: true, ..EngineConfig::default() };
    for tool in Tool::all() {
        let a = run_campaign(&m, tool, &cfg);
        let b = run_campaign(&m, tool, &cfg);
        assert_eq!(a.counts, b.counts, "{}", tool.name());
        assert_eq!(a.counts.total(), 50);
    }
}

/// Outcome diversity: with enough trials every tool observes at least two
/// outcome categories on a real program.
#[test]
fn outcome_diversity() {
    let m = small_module();
    let cfg = EngineConfig { trials: 80, seed: 5, jobs: 4, checkpoint: true, ..EngineConfig::default() };
    for tool in Tool::all() {
        let r = run_campaign(&m, tool, &cfg);
        let nonzero = [r.counts.crash, r.counts.soc, r.counts.benign]
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert!(
            nonzero >= 2,
            "{}: degenerate outcome distribution {:?}",
            tool.name(),
            r.counts
        );
        // Benign outcomes must exist: many faults land in dead flags or
        // overwritten registers.
        assert!(r.counts.benign > 0, "{}: no benign outcomes", tool.name());
    }
}

/// Replay (fault log) reproduces the classified outcome — paper §4.3.1
/// "for reference and repeatability".
#[test]
fn fault_log_replay_reproduces_outcomes() {
    let m = small_module();
    // REFINE replay.
    let p = PreparedTool::prepare(&m, Tool::Refine);
    for k in 1..=5u64 {
        let target = p.population * k / 6 + 1;
        let mut rt = refine_core::InjectingRt::new(target, 1000 + k);
        let cfg = refine_machine::RunConfig {
            max_cycles: p.timeout_cycles,
            stack_words: 1 << 16,
        };
        let r1 = refine_machine::Machine::run(&p.binary, &cfg, &mut rt, None);
        let Some(log) = rt.log else { continue };
        let mut replay = refine_core::ReplayRt::new(log);
        let r2 = refine_machine::Machine::run(&p.binary, &cfg, &mut replay, None);
        assert_eq!(classify(&p.golden, &r1), classify(&p.golden, &r2));
        assert_eq!(r1.outcome, r2.outcome);
    }
}

/// A fault that corrupts the loop bound can hang the program; the timeout
/// rule must classify it as a crash rather than spin forever.
#[test]
fn timeouts_are_crashes() {
    let m = refine_frontend::compile_source(
        "fn main() {\n\
           let n = 1000;\n\
           let s = 0;\n\
           for (i = 0; i < n; i = i + 1) { s = s + i; }\n\
           print_i(s);\n\
           return 0;\n\
         }",
    )
    .unwrap();
    let p = PreparedTool::prepare(&m, Tool::Refine);
    // Sweep trials until one times out (bit flips in `i`/`n` regularly
    // produce huge loop bounds).
    let mut saw_timeout = false;
    for k in 0..2000u64 {
        let target = 1 + (p.population * (k % 500) / 500);
        let r = p.run_trial(target, k);
        if r.outcome == RunOutcome::Timeout {
            saw_timeout = true;
            assert_eq!(classify(&p.golden, &r), Outcome::Crash);
            break;
        }
    }
    assert!(saw_timeout, "no timeout observed in 2000 targeted trials");
}
