//! The fault-injection control library (§4.2.4, §4.3, Figure 3).
//!
//! Three implementations of [`FiRuntime`]:
//!
//! * [`ProfilingRt`] — Figure 3a: `selInstr` counts dynamic target
//!   instructions and always returns false; the count is the campaign's
//!   sampling universe.
//! * [`InjectingRt`] — Figure 3b: given a uniformly drawn target dynamic
//!   instruction, triggers once, picks the output operand and bit uniformly
//!   and records a [`FaultRecord`] ("fault log") for repeatability.
//! * [`ReplayRt`] — re-applies a fault log verbatim, reproducing a specific
//!   run.
//!
//! The same implementations serve REFINE (via `selInstr`/`setupFI`) and the
//! LLFI baseline (via `injectFault`), each counting its own population.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refine_machine::FiRuntime;

/// The record REFINE writes to its fault log when an injection fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Static site id (REFINE) or IR site id (LLFI).
    pub site: u64,
    /// 1-based dynamic index of the triggering execution.
    pub dynamic_index: u64,
    /// Chosen output operand.
    pub operand: u32,
    /// Chosen bit.
    pub bit: u32,
}

/// Profiling-phase library: count and never inject.
#[derive(Debug, Default)]
pub struct ProfilingRt {
    /// Dynamic count of target-instruction executions seen.
    pub count: u64,
}

impl FiRuntime for ProfilingRt {
    fn sel_instr(&mut self, _site: u64) -> bool {
        self.count += 1;
        false
    }

    fn setup_fi(&mut self, _nops: u32, _sizes: &[u32]) -> (u32, u32) {
        unreachable!("profiling run never triggers injection")
    }

    fn llfi_inject(&mut self, _site: u64, value: u64, _bits: u32) -> u64 {
        self.count += 1;
        value
    }

    fn count_fused_events(&mut self, n: u64) {
        self.count += n;
    }

    fn fi_count(&self) -> u64 {
        self.count
    }
}

/// Injection-phase library implementing the single-bit-flip fault model.
#[derive(Debug)]
pub struct InjectingRt {
    /// 1-based dynamic instruction index to inject at.
    pub target: u64,
    count: u64,
    rng: StdRng,
    pending_site: u64,
    /// The fault log entry, filled when the injection fires.
    pub log: Option<FaultRecord>,
}

impl InjectingRt {
    /// Create an injector that fires at dynamic instruction `target`
    /// (1-based), with operand/bit choices drawn from `seed`.
    pub fn new(target: u64, seed: u64) -> Self {
        InjectingRt {
            target,
            count: 0,
            rng: StdRng::seed_from_u64(seed),
            pending_site: 0,
            log: None,
        }
    }

    /// True once the fault has been injected.
    pub fn fired(&self) -> bool {
        self.log.is_some()
    }

    /// An injector resuming after a checkpoint restore: behaves exactly as
    /// [`InjectingRt::new`] would after `counted` quiescent events, because
    /// the RNG is seeded fresh from `seed` and is consumed only when the
    /// fault fires (events before `target` never touch it).
    pub fn resume(target: u64, seed: u64, counted: u64) -> Self {
        debug_assert!(counted < target, "restore point must precede the target event");
        InjectingRt { count: counted, ..InjectingRt::new(target, seed) }
    }
}

impl FiRuntime for InjectingRt {
    fn sel_instr(&mut self, site: u64) -> bool {
        self.count += 1;
        if self.count == self.target {
            self.pending_site = site;
            true
        } else {
            false
        }
    }

    fn setup_fi(&mut self, nops: u32, sizes: &[u32]) -> (u32, u32) {
        let op = self.rng.gen_range(0..nops.max(1));
        let bits = sizes.get(op as usize).copied().unwrap_or(64).max(1);
        let bit = self.rng.gen_range(0..bits);
        self.log = Some(FaultRecord {
            site: self.pending_site,
            dynamic_index: self.count,
            operand: op,
            bit,
        });
        (op, bit)
    }

    fn llfi_inject(&mut self, site: u64, value: u64, bits: u32) -> u64 {
        self.count += 1;
        if self.count != self.target {
            return value;
        }
        let bit = self.rng.gen_range(0..bits.max(1));
        self.log = Some(FaultRecord { site, dynamic_index: self.count, operand: 0, bit });
        value ^ 1u64.checked_shl(bit).unwrap_or(0)
    }

    fn count_fused_events(&mut self, n: u64) {
        debug_assert!(
            self.fired() || self.count + n < self.target,
            "fused events must not cover the target event"
        );
        self.count += n;
    }

    fn fi_count(&self) -> u64 {
        self.count
    }

    fn fired(&self) -> bool {
        self.log.is_some()
    }
}

/// Replay a fault log entry exactly (repeatability, §4.3.1).
#[derive(Debug)]
pub struct ReplayRt {
    record: FaultRecord,
    count: u64,
    /// True once the replayed fault fired again.
    pub fired: bool,
}

impl ReplayRt {
    /// Replay `record`.
    pub fn new(record: FaultRecord) -> Self {
        ReplayRt { record, count: 0, fired: false }
    }
}

impl FiRuntime for ReplayRt {
    fn sel_instr(&mut self, _site: u64) -> bool {
        self.count += 1;
        self.count == self.record.dynamic_index
    }

    fn setup_fi(&mut self, _nops: u32, _sizes: &[u32]) -> (u32, u32) {
        self.fired = true;
        (self.record.operand, self.record.bit)
    }

    fn llfi_inject(&mut self, _site: u64, value: u64, _bits: u32) -> u64 {
        self.count += 1;
        if self.count == self.record.dynamic_index {
            self.fired = true;
            value ^ 1u64.checked_shl(self.record.bit).unwrap_or(0)
        } else {
            value
        }
    }

    fn count_fused_events(&mut self, n: u64) {
        debug_assert!(
            self.fired || self.count + n < self.record.dynamic_index,
            "fused events must not cover the replayed event"
        );
        self.count += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiling_counts_and_never_triggers() {
        let mut rt = ProfilingRt::default();
        for s in 0..100 {
            assert!(!rt.sel_instr(s % 7));
        }
        assert_eq!(rt.count, 100);
        assert_eq!(rt.llfi_inject(0, 42, 64), 42);
        assert_eq!(rt.count, 101);
    }

    #[test]
    fn injector_fires_exactly_once_at_target() {
        let mut rt = InjectingRt::new(5, 123);
        let mut fired_at = None;
        for i in 1..=10u64 {
            if rt.sel_instr(99) {
                rt.setup_fi(2, &[64, 4]);
                fired_at = Some(i);
            }
        }
        assert_eq!(fired_at, Some(5));
        let log = rt.log.unwrap();
        assert_eq!(log.dynamic_index, 5);
        assert_eq!(log.site, 99);
        assert!(log.operand < 2);
        let max = [64u32, 4][log.operand as usize];
        assert!(log.bit < max);
    }

    #[test]
    fn llfi_inject_flips_exactly_one_bit() {
        let mut rt = InjectingRt::new(3, 7);
        let v0 = rt.llfi_inject(1, 0, 64);
        let v1 = rt.llfi_inject(2, 0, 64);
        let v2 = rt.llfi_inject(3, 0, 64);
        assert_eq!(v0, 0);
        assert_eq!(v1, 0);
        assert_eq!(v2.count_ones(), 1);
        assert!(rt.fired());
    }

    #[test]
    fn llfi_respects_value_width() {
        // i1 values only ever flip bit 0.
        for seed in 0..20 {
            let mut rt = InjectingRt::new(1, seed);
            let v = rt.llfi_inject(0, 1, 1);
            assert_eq!(v, 0, "1-bit value flip must clear the value");
        }
    }

    #[test]
    fn replay_reproduces_choice() {
        let mut rt = InjectingRt::new(4, 99);
        for _ in 0..6 {
            if rt.sel_instr(11) {
                rt.setup_fi(2, &[64, 4]);
            }
        }
        let log = rt.log.unwrap();
        let mut rep = ReplayRt::new(log);
        let mut choice = None;
        for _ in 0..6 {
            if rep.sel_instr(11) {
                choice = Some(rep.setup_fi(2, &[64, 4]));
            }
        }
        assert_eq!(choice, Some((log.operand, log.bit)));
        assert!(rep.fired);
    }

    #[test]
    fn different_seeds_differ() {
        let picks: Vec<(u32, u32)> = (0..8)
            .map(|seed| {
                let mut rt = InjectingRt::new(1, seed);
                assert!(rt.sel_instr(0));
                rt.setup_fi(2, &[64, 64])
            })
            .collect();
        assert!(picks.iter().any(|p| *p != picks[0]), "seeds must vary choices");
    }
}
