//! The "future work" extensions of the paper's §4.5 and related work,
//! implemented on top of the reproduced framework:
//!
//! 1. **opcode corruption** (binary-level): flip a bit of the *encoded*
//!    instruction; invalid encodings raise `#UD`, valid ones execute a
//!    mutated instruction;
//! 2. **multi-bit spatial faults**: k distinct bits of one output operand;
//! 3. **temporal burst faults**: one bit at each of k consecutive target
//!    instructions;
//! 4. **instruction-class campaigns** (`-fi-instrs`): outcome mixes per
//!    class.
//!
//! Run with: `cargo run --release --example extensions`

use refine_campaign::engine::EngineConfig;
use refine_campaign::{classify, experiments, Golden};
use refine_core::{compile_with_fi, BurstRt, FiOptions, MultiBitProbe, ProfilingRt};
use refine_ir::passes::OptLevel;
use refine_machine::{Machine, NoFi, RunConfig};
use refine_pinfi::{OpcodeFault, OpcodeInjector};

fn main() {
    let program = refine_benchmarks::by_name("XSBench").unwrap();
    let module = program.module();

    // --- 1. Opcode corruption on the clean binary.
    let clean = compile_with_fi(&module, OptLevel::O2, &FiOptions::default());
    let native = Machine::run(&clean.binary, &RunConfig::default(), &mut NoFi, None);
    let golden = Golden::from_run(&native);
    println!("opcode corruption on {} ({} dynamic instructions):", program.name, native.instrs_retired);
    let (mut illegal, mut mutated, mut unchanged) = (0, 0, 0);
    let mut outcomes = std::collections::HashMap::new();
    for k in 0..60u64 {
        let target = 1 + (native.instrs_retired * k / 60);
        let mut inj = OpcodeInjector::new(target, k + 1);
        let cfg = RunConfig { max_cycles: native.cycles * 10, stack_words: 1 << 16 };
        let r = Machine::run(&clean.binary, &cfg, &mut NoFi, Some(&mut inj));
        match inj.fault {
            Some(OpcodeFault::Illegal) => illegal += 1,
            Some(OpcodeFault::Mutated { .. }) => mutated += 1,
            Some(OpcodeFault::Unchanged) | None => unchanged += 1,
        }
        *outcomes.entry(classify(&golden, &r).label()).or_insert(0u32) += 1;
    }
    println!("  faults: {mutated} mutated opcodes, {illegal} illegal (#UD), {unchanged} benign encoding bits");
    println!("  outcomes: {outcomes:?}");
    println!("  (REFINE itself cannot produce these — its emitter rejects invalid opcodes, paper §4.5)\n");

    // --- 2./3. Multi-bit models through REFINE's own instrumentation.
    let inst = compile_with_fi(&module, OptLevel::O2, &FiOptions::all());
    let mut prof = ProfilingRt::default();
    let profile = Machine::run(&inst.binary, &RunConfig::default(), &mut prof, None);
    let golden_i = Golden::from_run(&profile);
    let cfg = RunConfig { max_cycles: profile.cycles * 10, stack_words: 1 << 16 };

    println!("multi-bit spatial faults (k bits of one operand at one instruction, binary level):");
    let clean_cfg = RunConfig { max_cycles: native.cycles * 10, stack_words: 1 << 16 };
    for k in [1, 2, 4, 8] {
        let mut tally = std::collections::HashMap::new();
        for t in 0..40u64 {
            let target = 1 + (native.instrs_retired / 2 * t / 40);
            let mut p = MultiBitProbe::new(target, k, 100 + t);
            let r = Machine::run(&clean.binary, &clean_cfg, &mut NoFi, Some(&mut p));
            *tally.entry(classify(&golden, &r).label()).or_insert(0u32) += 1;
        }
        println!("  k={k}: {tally:?}");
    }

    println!("\ntemporal burst faults (one bit at each of k consecutive instructions):");
    for k in [1, 3, 8] {
        let mut tally = std::collections::HashMap::new();
        for t in 0..40u64 {
            let target = 1 + (prof.count * t / 40);
            let mut rt = BurstRt::new(target, k, 500 + t);
            let r = Machine::run(&inst.binary, &cfg, &mut rt, None);
            *tally.entry(classify(&golden_i, &r).label()).or_insert(0u32) += 1;
        }
        println!("  k={k}: {tally:?}");
    }

    // --- 4. Instruction-class ablation.
    println!();
    let cfg = EngineConfig { trials: 100, seed: 7, jobs: 0, checkpoint: true, ..EngineConfig::default() };
    print!(
        "{}",
        experiments::class_ablation(&["XSBench".to_string()], &cfg)
    );
}
