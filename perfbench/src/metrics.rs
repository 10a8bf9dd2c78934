//! End-to-end and per-layer metrics, computed from a run's measurements.

use crate::spans::{self, NameTotals};
use crate::workload::{tool_key, RunData};
use refine_campaign::Tool;
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `campaign.trial_us_p99.refine`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Human-readable base of a ratio or sample count of a percentile.
    pub note: String,
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0..=100) of sorted `v` (0 when empty).
fn percentile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run: medians over passes.
pub fn end_to_end(data: &RunData) -> Vec<Metric> {
    let p = &data.passes;
    let of =
        |f: fn(&crate::workload::PassTimes) -> f64| median(&p.iter().map(f).collect::<Vec<_>>());
    let note = format!("median of {} passes", p.len());
    vec![
        Metric {
            name: "setup_s".into(),
            unit: "s",
            value: of(|t| t.setup_s),
            note: note.clone(),
        },
        Metric {
            name: "trials_per_s".into(),
            unit: "1/s",
            value: of(|t| t.trials as f64 / t.trial_s),
            note: note.clone(),
        },
        Metric {
            name: "wall_s".into(),
            unit: "s",
            value: of(|t| t.wall_s),
            note: note.clone(),
        },
        Metric {
            name: "peak_rss_mb".into(),
            unit: "MiB",
            value: peak_rss_mb(),
            note: "VmHWM of this process".into(),
        },
    ]
}

const TOOLS: [Tool; 3] = [Tool::Refine, Tool::Llfi, Tool::Pinfi];

/// Per-tool metrics, in catalogue order: `(stem, unit)`; the name is
/// `stem.<tool>`.
const PER_TOOL: [(&str, &str); 22] = [
    ("machine.profile_ms", "ms"),
    ("campaign.prepare_ms", "ms"),
    ("campaign.prepare_self_ms", "ms"),
    ("campaign.trial_samples", "count"),
    ("campaign.trial_us_p50", "us"),
    ("campaign.trial_us_p99", "us"),
    ("campaign.trial_us_mean", "us"),
    ("campaign.trial_busy_s", "s"),
    ("machine.executed_minstrs", "Minstr"),
    ("machine.fused_minstrs", "Minstr"),
    ("machine.fused_share", "ratio"),
    ("machine.mdispatches", "Mdispatch"),
    ("machine.instrs_per_dispatch", "instr"),
    ("machine.host_minstr_per_s", "Minstr/s"),
    ("machine.restores", "count"),
    ("machine.restore_share", "ratio"),
    ("machine.skipped_minstrs", "Minstr"),
    ("machine.conv_checked_trials", "count"),
    ("machine.conv_hits", "count"),
    ("machine.conv_hit_rate", "ratio"),
    ("machine.conv_checked_minstrs", "Minstr"),
    ("machine.conv_saved_minstrs", "Minstr"),
];

/// Metrics that are not per tool, in catalogue order.
const GLOBAL: [(&str, &str); 23] = [
    ("frontend.compile_ms", "ms"),
    ("ir.optimize_ms", "ms"),
    ("mir.codegen_ms", "ms"),
    ("core.fi_compile_ms", "ms"),
    ("core.text_instrs", "count"),
    ("llfi.compile_ms", "ms"),
    ("llfi.text_instrs", "count"),
    ("machine.checkpoints", "count"),
    ("machine.checkpoint_mwords", "Mword"),
    ("machine.superblock_build_ms", "ms"),
    ("campaign.prepares", "count"),
    ("campaign.refine_over_pinfi", "ratio"),
    ("campaign.classify_us", "us"),
    ("stats.report_ms", "ms"),
    ("engine.jobs", "count"),
    ("engine.trial_wall_s", "s"),
    ("engine.busy_s", "s"),
    ("engine.idle_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layer_probe_s", "s"),
    ("trace.spans", "count"),
];

/// Every per-layer metric as `(name, unit)`, in report order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        GLOBAL.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for (stem, unit) in PER_TOOL {
        for tool in TOOLS {
            out.push((format!("{stem}.{}", tool_key(tool)), unit));
        }
    }
    out
}

/// Sums over one tool's driven trials.
#[derive(Default)]
struct ToolTrials {
    ns: Vec<u64>,
    fused: u64,
    stepped: u64,
    dispatches: u64,
    restores: u64,
    skipped: u64,
    conv_checked_trials: u64,
    conv_hits: u64,
    conv_checked: u64,
    conv_saved: u64,
}

/// The per-layer metrics of a traced run, with notes giving ratio bases
/// and sample counts. Span-timed set-up, layer and report figures are
/// means per traced pass; trial figures pool every driven trial.
pub fn per_layer(data: &RunData) -> Vec<Metric> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut notes: BTreeMap<String, String> = BTreeMap::new();
    let n = data.traced.len().max(1) as f64;

    // Span totals summed over traced passes, then per pass.
    let tot = span_totals(data);
    let ms = |name: &str| tot.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6 / n);
    v.insert("frontend.compile_ms".into(), ms("frontend.compile_source"));
    v.insert("ir.optimize_ms".into(), ms("ir.optimize"));
    v.insert("mir.codegen_ms".into(), ms("mir.compile"));
    v.insert(
        "core.fi_compile_ms".into(),
        ms("core.compile_with_fi.refine"),
    );
    v.insert("llfi.compile_ms".into(), ms("llfi.compile_with_llfi"));
    v.insert("stats.report_ms".into(), ms("stats.report"));
    v.insert("trace.layer_probe_s".into(), ms("layers") / 1e3);
    let mut sb_ms = 0.0;
    for tool in TOOLS {
        let k = tool_key(tool);
        let compile = match tool {
            Tool::Refine => ms("core.compile_with_fi.refine"),
            Tool::Llfi => ms("llfi.compile_with_llfi"),
            Tool::Pinfi => ms("core.compile_with_fi.pinfi"),
        };
        let profile = ms(&format!("machine.profile.{k}"));
        let sb = ms(&format!("machine.superblock_new.{k}"));
        let prepare = ms(&format!("campaign.prepare.{k}"));
        sb_ms += sb;
        v.insert(format!("machine.profile_ms.{k}"), profile);
        v.insert(format!("campaign.prepare_ms.{k}"), prepare);
        let self_ms = if prepare > 0.0 {
            prepare - compile - profile - sb
        } else {
            0.0
        };
        v.insert(format!("campaign.prepare_self_ms.{k}"), self_ms);
        notes.insert(
            format!("campaign.prepare_self_ms.{k}"),
            format!("= prepare {prepare:.1} - compile {compile:.1} - profile {profile:.1} - superblock {sb:.1} ms"),
        );
    }
    v.insert("machine.superblock_build_ms".into(), sb_ms);
    let prepares: u64 = TOOLS
        .iter()
        .map(|t| {
            tot.get(&format!("campaign.prepare.{}", tool_key(*t)))
                .map_or(0, |x| x.count)
        })
        .sum();
    v.insert("campaign.prepares".into(), prepares as f64 / n);
    notes.insert(
        "campaign.prepares".into(),
        "counted from the benchmark's own prepare calls".into(),
    );

    // Static artifact facts, from the last traced pass's set-up.
    if let Some(f) = data.traced.last().map(|p| p.facts) {
        v.insert("core.text_instrs".into(), f.core_text as f64);
        v.insert("llfi.text_instrs".into(), f.llfi_text as f64);
        v.insert("machine.checkpoints".into(), f.checkpoints as f64);
        v.insert(
            "machine.checkpoint_mwords".into(),
            f.checkpoint_words as f64 / 1e6,
        );
    }

    // Driven trials, pooled over traced passes.
    let mut by_tool: BTreeMap<&str, ToolTrials> = BTreeMap::new();
    let mut classify_ns: Vec<u64> = Vec::new();
    for t in data.traced.iter().flat_map(|p| p.trials.iter()) {
        let e = by_tool.entry(tool_key(t.tool)).or_default();
        e.ns.push(t.ns);
        e.fused += t.fast.sb_fused_instrs;
        e.stepped += t.fast.sb_stepped_instrs;
        e.dispatches += t.fast.sb_dispatches;
        if t.fast.restored {
            e.restores += 1;
            e.skipped += t.fast.skipped_instrs;
        }
        if t.fast.converged || t.fast.conv_checked_instrs > 0 {
            e.conv_checked_trials += 1;
        }
        if t.fast.converged {
            e.conv_hits += 1;
            e.conv_saved += t.fast.conv_saved_instrs;
        }
        e.conv_checked += t.fast.conv_checked_instrs;
        classify_ns.push(t.classify_ns);
    }
    let mut mean_us: BTreeMap<&str, f64> = BTreeMap::new();
    for (k, e) in by_tool.iter_mut() {
        e.ns.sort_unstable();
        let samples = e.ns.len() as f64;
        let busy_s = e.ns.iter().sum::<u64>() as f64 / 1e9;
        let executed = (e.fused + e.stepped) as f64 / 1e6;
        let fused = e.fused as f64 / 1e6;
        let mdisp = e.dispatches as f64 / 1e6;
        let put =
            |v: &mut BTreeMap<String, f64>, stem: &str, x: f64| v.insert(format!("{stem}.{k}"), x);
        put(&mut v, "campaign.trial_samples", samples);
        put(
            &mut v,
            "campaign.trial_us_p50",
            percentile(&e.ns, 50.0) as f64 / 1e3,
        );
        put(
            &mut v,
            "campaign.trial_us_p99",
            percentile(&e.ns, 99.0) as f64 / 1e3,
        );
        let mean = ratio(busy_s * 1e6, samples);
        mean_us.insert(k, mean);
        put(&mut v, "campaign.trial_us_mean", mean);
        put(&mut v, "campaign.trial_busy_s", busy_s);
        put(&mut v, "machine.executed_minstrs", executed);
        put(&mut v, "machine.fused_minstrs", fused);
        put(&mut v, "machine.fused_share", ratio(fused, executed));
        put(&mut v, "machine.mdispatches", mdisp);
        put(&mut v, "machine.instrs_per_dispatch", ratio(fused, mdisp));
        put(&mut v, "machine.host_minstr_per_s", ratio(executed, busy_s));
        put(&mut v, "machine.restores", e.restores as f64);
        put(
            &mut v,
            "machine.restore_share",
            ratio(e.restores as f64, samples),
        );
        put(&mut v, "machine.skipped_minstrs", e.skipped as f64 / 1e6);
        put(
            &mut v,
            "machine.conv_checked_trials",
            e.conv_checked_trials as f64,
        );
        put(&mut v, "machine.conv_hits", e.conv_hits as f64);
        put(
            &mut v,
            "machine.conv_hit_rate",
            ratio(e.conv_hits as f64, e.conv_checked_trials as f64),
        );
        put(
            &mut v,
            "machine.conv_checked_minstrs",
            e.conv_checked as f64 / 1e6,
        );
        put(
            &mut v,
            "machine.conv_saved_minstrs",
            e.conv_saved as f64 / 1e6,
        );
        let note = |n: &mut BTreeMap<String, String>, stem: &str, s: String| {
            n.insert(format!("{stem}.{k}"), s)
        };
        let above = |q: f64| e.ns.len() - (q / 100.0 * samples).ceil() as usize;
        note(
            &mut notes,
            "campaign.trial_us_p50",
            format!("n = {samples}"),
        );
        note(
            &mut notes,
            "campaign.trial_us_p99",
            format!("n = {samples}, {} samples above", above(99.0)),
        );
        note(
            &mut notes,
            "machine.fused_share",
            format!("= {fused:.3} fused / {executed:.3} executed Minstr"),
        );
        note(
            &mut notes,
            "machine.instrs_per_dispatch",
            format!("= {fused:.3} fused Minstr / {mdisp:.4} Mdispatch"),
        );
        note(
            &mut notes,
            "machine.host_minstr_per_s",
            format!("= {executed:.3} Minstr / {busy_s:.3} busy s"),
        );
        note(
            &mut notes,
            "machine.restore_share",
            format!("= {} restores / {samples} trials", e.restores),
        );
        note(
            &mut notes,
            "machine.conv_hit_rate",
            format!(
                "= {} hits / {} trials checked",
                e.conv_hits, e.conv_checked_trials
            ),
        );
    }
    let (r, p) = (
        mean_us.get("refine").copied().unwrap_or(0.0),
        mean_us.get("pinfi").copied().unwrap_or(0.0),
    );
    v.insert("campaign.refine_over_pinfi".into(), ratio(r, p));
    notes.insert(
        "campaign.refine_over_pinfi".into(),
        format!("= REFINE mean {r:.2} us / PINFI mean {p:.2} us per trial"),
    );
    let cl_mean = ratio(
        classify_ns.iter().sum::<u64>() as f64 / 1e3,
        classify_ns.len() as f64,
    );
    v.insert("campaign.classify_us".into(), cl_mean);
    notes.insert(
        "campaign.classify_us".into(),
        format!("mean of {} calls", classify_ns.len()),
    );

    // Engine scheduling, from the untraced passes (the engine's own report).
    let med = |f: fn(&crate::workload::PassTimes) -> f64| {
        median(&data.passes.iter().map(f).collect::<Vec<_>>())
    };
    v.insert("engine.jobs".into(), data.jobs as f64);
    v.insert("engine.trial_wall_s".into(), med(|t| t.trial_s));
    v.insert("engine.busy_s".into(), med(|t| t.busy_s));
    v.insert("engine.idle_s".into(), med(|t| t.idle_s));

    // Tracing overhead: traced minus untraced pass wall.
    let untraced = med(|t| t.wall_s);
    let traced = median(&data.traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    v.insert("trace.untraced_wall_s".into(), untraced);
    v.insert("trace.traced_wall_s".into(), traced);
    v.insert("trace.overhead_s".into(), traced - untraced);
    notes.insert(
        "trace.overhead_s".into(),
        format!(
            "= traced {traced:.3} - untraced {untraced:.3} s per pass (includes the layer probe)"
        ),
    );
    let span_count: usize = data.traced.iter().map(|p| p.spans.len()).sum();
    v.insert("trace.spans".into(), span_count as f64 / n);

    let catalogue = per_layer_catalogue();
    for name in v.keys().chain(notes.keys()) {
        assert!(
            catalogue.iter().any(|(c, _)| c == name),
            "metric `{name}` is missing from the catalogue"
        );
    }
    catalogue
        .into_iter()
        .map(|(name, unit)| Metric {
            value: v.get(&name).copied().unwrap_or(0.0),
            note: notes.get(&name).cloned().unwrap_or_default(),
            name,
            unit,
        })
        .collect()
}

/// Per-name span totals summed over every traced pass.
fn span_totals(data: &RunData) -> BTreeMap<String, NameTotals> {
    let mut tot: BTreeMap<String, NameTotals> = BTreeMap::new();
    for pass in &data.traced {
        for (name, t) in spans::totals(&pass.spans) {
            let e = tot.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
    }
    tot
}

/// Self-time table of the traced spans, one line per span name, summed
/// over traced passes.
pub fn self_time_lines(data: &RunData) -> Vec<String> {
    span_totals(data)
        .iter()
        .map(|(name, t)| {
            format!(
                "span {name:40} calls {:>7} total {:>10.2} ms self {:>10.2} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let cat = per_layer_catalogue();
        let mut names: Vec<&str> = cat.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
        assert!(cat.len() <= 128);
        for (n, u) in &cat {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(u.len() <= 16);
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
