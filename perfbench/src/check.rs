//! The correctness gate behind `failed`: the reference outcome table and
//! the exact-interpreter oracle.

use refine_campaign::{classify, CampaignResult, PreparedTool};
use refine_core::ExecEngine;

/// One campaign's row of an outcome table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Campaign label (`app/tool`, or `app/class` in the class ablation).
    pub label: String,
    /// Crash count.
    pub crash: u64,
    /// Silent-output-corruption count.
    pub soc: u64,
    /// Benign count.
    pub benign: u64,
    /// Summed simulated cycles of the campaign's trials.
    pub total_cycles: u64,
    /// Dynamic FI-target population of the campaign's artifact.
    pub population: u64,
}

impl Row {
    /// The row of one campaign result.
    pub fn of(label: String, r: &CampaignResult) -> Row {
        Row {
            label,
            crash: r.counts.crash,
            soc: r.counts.soc,
            benign: r.counts.benign,
            total_cycles: r.total_cycles,
            population: r.population,
        }
    }

    /// Trials this row accounts for.
    pub fn trials(&self) -> u64 {
        self.crash + self.soc + self.benign
    }
}

/// Render a table, one whitespace-separated row per line:
/// `label crash soc benign total_cycles population`.
pub fn render(rows: &[Row]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{} {} {} {} {} {}\n",
                r.label, r.crash, r.soc, r.benign, r.total_cycles, r.population
            )
        })
        .collect()
}

/// Parse a table written by [`render`].
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [label, crash, soc, benign, total_cycles, population] = f[..] else {
                return Err(format!("reference row needs 6 fields: `{line}`"));
            };
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("`{s}` in `{line}`: {e}"))
            };
            Ok(Row {
                label: label.to_string(),
                crash: num(crash)?,
                soc: num(soc)?,
                benign: num(benign)?,
                total_cycles: num(total_cycles)?,
                population: num(population)?,
            })
        })
        .collect()
}

/// Trials that disagree with the reference: every trial of a row that
/// differs from its reference row. A table of another shape disagrees in
/// every trial.
pub fn table_failures(got: &[Row], want: &[Row]) -> u64 {
    if got.len() != want.len() {
        return got.iter().map(Row::trials).sum();
    }
    got.iter()
        .zip(want)
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g.trials())
        .sum()
}

/// Re-run one trial on the workload's trial path and on the exact
/// interpreter, and compare outcome class, simulated cycles, retired
/// instructions, output and fault log. Returns what differed, if anything.
pub fn oracle_diff(p: &PreparedTool, target: u64, seed: u64) -> Option<String> {
    let fast = p.run_trial_engine(ExecEngine::Superblock, target, seed);
    let exact = p.run_trial_exact(target, seed);
    let (f, e) = (&fast.result, &exact.result);
    let diffs = [
        ("class", classify(&p.golden, f) != classify(&p.golden, e)),
        ("outcome", f.outcome != e.outcome),
        ("cycles", f.cycles != e.cycles),
        ("retired", f.instrs_retired != e.instrs_retired),
        // Debug output keeps every bit of a float (and tells -0.0 from 0.0).
        (
            "output",
            format!("{:?}", f.output) != format!("{:?}", e.output),
        ),
        ("fault log", fast.log != exact.log),
    ];
    let differ: Vec<&str> = diffs.iter().filter(|(_, d)| *d).map(|(n, _)| *n).collect();
    (!differ.is_empty()).then(|| {
        format!(
            "{} differ (trial path {:?} {} cycles, exact {:?} {} cycles)",
            differ.join(", "),
            f.outcome,
            f.cycles,
            e.outcome,
            e.cycles
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<Row> {
        vec![
            Row {
                label: "CoMD/REFINE".into(),
                crash: 3,
                soc: 1,
                benign: 6,
                total_cycles: 9_000,
                population: 77,
            },
            Row {
                label: "CoMD/PINFI".into(),
                crash: 2,
                soc: 2,
                benign: 6,
                total_cycles: 8_000,
                population: 77,
            },
        ]
    }

    #[test]
    fn render_parse_round_trips() {
        assert_eq!(parse(&render(&table())).expect("parses"), table());
    }

    #[test]
    fn identical_table_has_no_failures() {
        assert_eq!(table_failures(&table(), &table()), 0);
    }

    #[test]
    fn perturbed_table_counts_as_failed() {
        let want = table();
        for perturb in [
            (|r: &mut Row| r.soc += 1) as fn(&mut Row),
            |r| r.total_cycles -= 1,
            |r| r.population += 1,
        ] {
            let mut got = table();
            perturb(&mut got[1]);
            assert_eq!(table_failures(&got, &want), got[1].trials());
        }
        // A missing row fails every trial.
        let got = &table()[..1];
        assert_eq!(table_failures(got, &want), 10);
    }

    #[test]
    fn committed_references_parse() {
        for (name, text) in crate::workload::REFERENCES {
            let rows = parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!rows.is_empty(), "{name}: empty reference table");
        }
    }
}
