//! Multi-bit fault models — an extension beyond the paper's single-bit
//! model (its related work, e.g. Adamu-Fika & Jhumka 2015, studies double
//! bit flips; REFINE's library interface makes these trivial to add, which
//! is exactly the extensibility §4.2.4 advertises).
//!
//! Two models:
//! * [`MultiBitProbe`] — at the target dynamic instruction, flip `k`
//!   distinct bits of one output operand (spatial multi-bit upset in one
//!   register). A single-bit XOR instrumentation block cannot express
//!   this, so the model rides the binary-level probe interface and its
//!   mask-injection action;
//! * [`BurstRt`] — flip one bit at each of `k` *consecutive* target
//!   instructions starting at the target (temporal burst); this one fits
//!   REFINE's `selInstr`/`setupFI` protocol directly.

use crate::runtime::FaultRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refine_machine::{fi_outputs, FiRuntime, MInstr, Probe, ProbeAction};

/// Spatial multi-bit model: `k` distinct bits of one output operand,
/// applied at the binary level (machine probe).
#[derive(Debug)]
pub struct MultiBitProbe {
    /// 1-based dynamic target among register-writing instructions.
    pub target: u64,
    /// Number of distinct bits to flip (>= 1).
    pub k: u32,
    count: u64,
    rng: StdRng,
    /// One record per flipped bit.
    pub log: Vec<FaultRecord>,
}

impl MultiBitProbe {
    /// New `k`-bit injector at dynamic target `target`.
    pub fn new(target: u64, k: u32, seed: u64) -> Self {
        assert!(k >= 1);
        MultiBitProbe {
            target,
            k,
            count: 0,
            rng: StdRng::seed_from_u64(seed),
            log: Vec::new(),
        }
    }

    /// True once the fault fired.
    pub fn fired(&self) -> bool {
        !self.log.is_empty()
    }
}

impl Probe for MultiBitProbe {
    fn before(&mut self, pc: u32, instr: &MInstr, _retired: u64) -> ProbeAction {
        let outs = fi_outputs(instr);
        if outs.is_empty() {
            return ProbeAction::Continue;
        }
        self.count += 1;
        if self.count != self.target {
            return ProbeAction::Continue;
        }
        let op = self.rng.gen_range(0..outs.len());
        let bits = outs[op].1.max(1);
        let mut mask = 0u64;
        let mut chosen: Vec<u32> = Vec::new();
        while chosen.len() < self.k.min(bits) as usize {
            let b = self.rng.gen_range(0..bits);
            if !chosen.contains(&b) {
                chosen.push(b);
                mask |= 1u64.checked_shl(b).unwrap_or(0);
                self.log.push(FaultRecord {
                    site: pc as u64,
                    dynamic_index: self.count,
                    operand: op as u32,
                    bit: b,
                });
            }
        }
        ProbeAction::InjectMaskAfter { op, mask, detach: true }
    }
}

/// Temporal burst model: one bit flipped at each of `k` consecutive target
/// instructions starting at `target`.
#[derive(Debug)]
pub struct BurstRt {
    /// First 1-based dynamic target.
    pub target: u64,
    /// Burst length.
    pub k: u64,
    count: u64,
    rng: StdRng,
    /// One record per flip.
    pub log: Vec<FaultRecord>,
    pending_site: u64,
}

impl BurstRt {
    /// New burst injector.
    pub fn new(target: u64, k: u64, seed: u64) -> Self {
        assert!(k >= 1);
        BurstRt { target, k, count: 0, rng: StdRng::seed_from_u64(seed), log: Vec::new(), pending_site: 0 }
    }
}

impl FiRuntime for BurstRt {
    fn sel_instr(&mut self, site: u64) -> bool {
        self.count += 1;
        let fire = self.count >= self.target && self.count < self.target + self.k;
        if fire {
            self.pending_site = site;
        }
        fire
    }

    fn setup_fi(&mut self, nops: u32, sizes: &[u32]) -> (u32, u32) {
        let op = self.rng.gen_range(0..nops.max(1));
        let bits = sizes.get(op as usize).copied().unwrap_or(64).max(1);
        let bit = self.rng.gen_range(0..bits);
        self.log.push(FaultRecord {
            site: self.pending_site,
            dynamic_index: self.count,
            operand: op,
            bit,
        });
        (op, bit)
    }

    fn llfi_inject(&mut self, site: u64, value: u64, bits: u32) -> u64 {
        self.count += 1;
        if self.count < self.target || self.count >= self.target + self.k {
            return value;
        }
        let bit = self.rng.gen_range(0..bits.max(1));
        self.log.push(FaultRecord { site, dynamic_index: self.count, operand: 0, bit });
        value ^ 1u64.checked_shl(bit).unwrap_or(0)
    }

    fn count_fused_events(&mut self, n: u64) {
        debug_assert!(
            self.count + n < self.target || self.count >= self.target + self.k,
            "fused events must lie outside the burst window"
        );
        self.count += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_with_fi, FiOptions, ProfilingRt};
    use refine_ir::passes::OptLevel;
    use refine_machine::{Machine, RunConfig};

    fn instrumented() -> refine_machine::Binary {
        let m = refine_frontend::compile_source(
            "fn main() { let s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i * 3; } print_i(s); return 0; }",
        )
        .unwrap();
        compile_with_fi(&m, OptLevel::O2, &FiOptions::all()).binary
    }

    #[test]
    fn multibit_flips_k_distinct_bits() {
        // Spatial faults ride the probe interface on the *clean* binary.
        let m = refine_frontend::compile_source(
            "fn main() { let s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i * 3; } print_i(s); return 0; }",
        )
        .unwrap();
        let clean = compile_with_fi(&m, OptLevel::O2, &FiOptions::default()).binary;
        let mut p = MultiBitProbe::new(50, 3, 7);
        Machine::run(&clean, &RunConfig::default(), &mut refine_machine::NoFi, Some(&mut p));
        assert!(p.fired());
        assert_eq!(p.log.len(), 3);
        let mut bitset: Vec<u32> = p.log.iter().map(|r| r.bit).collect();
        bitset.sort_unstable();
        bitset.dedup();
        assert_eq!(bitset.len(), 3, "bits must be distinct");
        assert!(p.log.iter().all(|r| r.dynamic_index == 50));
        let ops: Vec<u32> = p.log.iter().map(|r| r.operand).collect();
        assert!(ops.iter().all(|&o| o == ops[0]), "one operand per spatial fault");
    }

    /// Larger k must (statistically) hurt more: compare benign rates over a
    /// fixed trial set for k=1 vs k=16.
    #[test]
    fn wider_spatial_faults_are_worse() {
        let m = refine_frontend::compile_source(
            "fvar v[12];\n\
             fn main() {\n\
               for (i = 0; i < 12; i = i + 1) { v[i] = float(i) + 0.5; }\n\
               let s: float = 0.0;\n\
               for (i = 0; i < 12; i = i + 1) { s = s + v[i] * v[i]; }\n\
               print_f(s);\n\
               return 0;\n\
             }",
        )
        .unwrap();
        let clean = compile_with_fi(&m, OptLevel::O2, &FiOptions::default()).binary;
        let native = Machine::run(&clean, &RunConfig::default(), &mut refine_machine::NoFi, None);
        let golden_out = native.output.clone();
        let count_benign = |k: u32| {
            let mut benign = 0;
            for t in 0..60u64 {
                let mut p = MultiBitProbe::new(1 + t * 13 % 500, k, t);
                let cfg = RunConfig { max_cycles: native.cycles * 10, stack_words: 1 << 16 };
                let r = Machine::run(&clean, &cfg, &mut refine_machine::NoFi, Some(&mut p));
                if matches!(r.outcome, refine_machine::RunOutcome::Exit(0)) && r.output == golden_out {
                    benign += 1;
                }
            }
            benign
        };
        let b1 = count_benign(1);
        let b16 = count_benign(16);
        assert!(b16 < b1, "16-bit faults ({b16} benign) must beat 1-bit ({b1} benign) less often");
    }

    #[test]
    fn burst_covers_consecutive_targets() {
        let b = instrumented();
        let mut prof = ProfilingRt::default();
        Machine::run(&b, &RunConfig::default(), &mut prof, None);
        let total = prof.count;
        let mut rt = BurstRt::new(total / 2, 4, 11);
        Machine::run(&b, &RunConfig { max_cycles: 100_000_000, stack_words: 1 << 16 }, &mut rt, None);
        // The run may crash mid-burst; every logged flip must be
        // consecutive starting at the target.
        assert!(!rt.log.is_empty());
        for (i, r) in rt.log.iter().enumerate() {
            assert_eq!(r.dynamic_index, total / 2 + i as u64);
        }
        assert!(rt.log.len() <= 4);
    }

    #[test]
    fn multibit_k1_is_single_bit() {
        let m = refine_frontend::compile_source(
            "fn main() { let s = 0; for (i = 0; i < 50; i = i + 1) { s = s + i; } print_i(s); return 0; }",
        )
        .unwrap();
        let clean = compile_with_fi(&m, OptLevel::O2, &FiOptions::default()).binary;
        let mut p = MultiBitProbe::new(10, 1, 3);
        Machine::run(&clean, &RunConfig::default(), &mut refine_machine::NoFi, Some(&mut p));
        assert_eq!(p.log.len(), 1);
    }
}
