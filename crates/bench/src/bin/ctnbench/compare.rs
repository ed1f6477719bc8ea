//! `ctnbench compare`: two result files judged against the bounds.

use crate::catalog::{self, Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::json::{self, Value};
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is within the bound and the spread resolves it.
    Ok,
    /// The change's median is worse than the base's by more than the bound.
    Worse,
    /// Within the bound, but the run-to-run spread is wider than the
    /// bound, or a side has too few runs to have a spread, so "unchanged"
    /// cannot be told from "regressed".
    Unresolved,
}

/// Runs a side needs before its quartiles mean anything.
const MIN_RUNS_FOR_SPREAD: usize = 4;

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, end-to-end metric) row.
#[derive(Debug)]
pub struct Judged {
    pub base_median: f64,
    pub change_median: f64,
    /// Wider of the two sides' interquartile spreads, as a share of the
    /// median; `None` when a side has fewer than [`MIN_RUNS_FOR_SPREAD`]
    /// runs.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

pub fn judge(metric: &EndToEnd, base: &[f64], change: &[f64]) -> Judged {
    let base_median = stats::median(base);
    let change_median = stats::median(change);
    let worse_by = match metric.better {
        Better::Lower => change_median / base_median - 1.0,
        Better::Higher => 1.0 - change_median / base_median,
    };
    let spread_of =
        |runs: &[f64]| stats::spread(runs).filter(|_| runs.len() >= MIN_RUNS_FOR_SPREAD);
    let spread = spread_of(base)
        .zip(spread_of(change))
        .map(|(b, c)| b.max(c));
    let every_run_better = match metric.better {
        Better::Lower => max(change) < min(base),
        Better::Higher => min(change) > max(base),
    };
    let verdict = match spread {
        _ if worse_by > metric.bound => Verdict::Worse,
        None => Verdict::Unresolved,
        Some(spread) if spread > metric.bound && !every_run_better => Verdict::Unresolved,
        Some(_) => Verdict::Ok,
    };
    Judged {
        base_median,
        change_median,
        spread,
        verdict,
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().cloned().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

/// One side of the comparison, read from an `--out` file.
#[derive(Debug, Default)]
pub struct ResultSet {
    /// (workload, end-to-end metric) → one value per untraced run.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// workload → (attempted, failed) summed over its runs.
    failures: BTreeMap<String, (f64, f64)>,
    /// (workload, seed, what) → recorded simulated output: the report
    /// digest and every exact count of the traced pass.
    simulated: BTreeMap<(String, u64, String), String>,
    /// workload → the CPU placements its rows were measured under.
    placements: BTreeMap<String, BTreeSet<String>>,
}

impl ResultSet {
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let mut set = ResultSet::default();
        for (idx, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let row = json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            let field = |key: &str| {
                row.get(key)
                    .ok_or_else(|| format!("line {}: no {key:?}", idx + 1))
            };
            let workload = field("workload")?.as_str().unwrap_or_default().to_string();
            let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
            let traced = field("trace")?.as_f64() == Some(1.0);
            let result = field("result")?;
            let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let tally = set.failures.entry(workload.clone()).or_default();
            tally.0 += count("attempted");
            tally.1 += count("failed");
            set.placements
                .entry(workload.clone())
                .or_default()
                .insert(field("placement")?.as_str().unwrap_or_default().to_string());
            let digest = field("report_digest")?.as_str().unwrap_or_default();
            set.simulated.insert(
                (workload.clone(), seed, "report_digest".to_string()),
                digest.to_string(),
            );
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("line {}: no metrics", idx + 1))?;
            for (name, entry) in metrics {
                let Some(value) = entry.get("value").and_then(Value::as_f64) else {
                    continue;
                };
                if !traced {
                    set.values
                        .entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(value);
                } else if catalog::per_layer(name).is_some_and(|m| m.exact) {
                    set.simulated
                        .insert((workload.clone(), seed, name.clone()), value.to_string());
                }
            }
        }
        Ok(set)
    }

    fn failed_share(&self, workload: &str) -> f64 {
        self.failures
            .get(workload)
            .map_or(0.0, |(attempted, failed)| failed / attempted.max(1.0))
    }
}

/// The comparison table and whether it holds: no `worse` row, no higher
/// `failed_share`, nothing measured on one side only (a run that crashed
/// wrote no row), and one CPU placement per workload.
pub fn report(base: &ResultSet, change: &ResultSet) -> (String, bool) {
    let mut text = format!(
        "{:<14} {:<12} {:>14} {:>14}  {:<28} {:>6} {:>7}  verdict\n",
        "workload", "metric", "base median", "change median", "change / base", "bound", "spread"
    );
    let mut holds = !base.values.is_empty();
    if !holds {
        text.push_str("the base set holds no untraced run\n");
    }
    for w in WORKLOADS {
        for metric in END_TO_END {
            let key = (w.name.to_string(), metric.name.to_string());
            let (b, c) = match (base.values.get(&key), change.values.get(&key)) {
                (Some(b), Some(c)) => (b, c),
                (None, None) => continue,
                (b, _) => {
                    holds = false;
                    text.push_str(&format!(
                        "{:<14} {:<12} missing from the {} set\n",
                        w.name,
                        metric.name,
                        if b.is_none() { "base" } else { "change" }
                    ));
                    continue;
                }
            };
            let j = judge(metric, b, c);
            holds &= j.verdict != Verdict::Worse;
            text.push_str(&format!(
                "{:<14} {:<12} {:>14.6} {:>14.6}  {:<28} {:>5.0}% {:>7}  {}\n",
                w.name,
                metric.name,
                j.base_median,
                j.change_median,
                format!(
                    "{:.3} of {:.6} {}",
                    j.change_median / j.base_median,
                    j.base_median,
                    metric.unit
                ),
                metric.bound * 100.0,
                j.spread
                    .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
                j.verdict.name()
            ));
        }
        let placements: BTreeSet<&String> = [base, change]
            .iter()
            .filter_map(|set| set.placements.get(w.name))
            .flatten()
            .collect();
        if placements.len() > 1 {
            holds = false;
            text.push_str(&format!(
                "{:<14} measured under CPU placements {placements:?}: not comparable\n",
                w.name
            ));
        }
        let (fb, fc) = (base.failed_share(w.name), change.failed_share(w.name));
        if fb > 0.0 || fc > 0.0 {
            let higher = fc > fb;
            holds &= !higher;
            text.push_str(&format!(
                "{:<14} {:<12} {:>14.6} {:>14.6}  {}\n",
                w.name,
                "failed_share",
                fb,
                fc,
                if higher { "worse" } else { "ok" }
            ));
        }
    }
    let changed: Vec<String> = base
        .simulated
        .iter()
        .filter_map(|(key, b)| {
            let c = change.simulated.get(key)?;
            (b != c).then(|| format!("  {} seed {} {}: {b} -> {c}", key.0, key.1, key.2))
        })
        .collect();
    if !changed.is_empty() {
        text.push_str("simulated output changed (a speed-only change must never cause this):\n");
        text.push_str(&changed.join("\n"));
        text.push('\n');
    }
    (text, holds)
}

pub fn run(base: &Path, change: &Path) -> Result<ExitCode, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| {
                ResultSet::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
            })
    };
    let (text, holds) = report(&read(base)?, &read(change)?);
    print!("{text}");
    Ok(if holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let wall = metric("wall_s");
        let scaled = |runs: &[f64], by: f64| runs.iter().map(|v| v * by).collect::<Vec<f64>>();
        let tight = [1.00, 1.01, 0.99, 1.00, 1.01];
        assert_eq!(judge(wall, &tight, &tight).verdict, Verdict::Ok);
        // Slower by less than the bound, tight spread: ok. By more: worse.
        let within = scaled(&tight, 1.0 + wall.bound * 0.8);
        assert_eq!(judge(wall, &tight, &within).verdict, Verdict::Ok);
        let beyond = scaled(&tight, 1.0 + wall.bound * 1.2);
        assert_eq!(judge(wall, &tight, &beyond).verdict, Verdict::Worse);
        // Medians agree but one side scatters by more than the bound:
        // unchanged cannot be claimed.
        let noisy = [0.7, 0.9, 1.0, 1.1, 1.4];
        let j = judge(wall, &tight, &noisy);
        assert!(j.spread.unwrap() > wall.bound);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // …unless every run of the change beats every run of the base.
        let noisy_but_faster = [0.3, 0.4, 0.5, 0.6, 0.7];
        assert_eq!(judge(wall, &tight, &noisy_but_faster).verdict, Verdict::Ok);
    }

    #[test]
    fn too_few_runs_resolve_nothing_but_a_regression() {
        let wall = metric("wall_s");
        let j = judge(wall, &[1.0], &[1.0]);
        assert_eq!((j.spread, j.verdict), (None, Verdict::Unresolved));
        let tight = [1.00, 1.01, 0.99, 1.00, 1.01];
        assert_eq!(
            judge(wall, &tight, &[0.9, 0.9, 0.9]).verdict,
            Verdict::Unresolved,
            "three runs on one side are too few"
        );
        assert_eq!(
            judge(wall, &[1.0], &[1.0 + wall.bound * 1.2]).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        let rate = metric("runs_per_s");
        let base = [100.0; 4];
        let lower = [100.0 * (1.0 - rate.bound * 1.2); 4];
        assert_eq!(judge(rate, &base, &lower).verdict, Verdict::Worse);
        assert_eq!(judge(rate, &base, &[130.0; 4]).verdict, Verdict::Ok);
    }

    fn row(
        workload: &str,
        seed: u64,
        trace: u8,
        digest: &str,
        failed: u64,
        metrics: &str,
    ) -> String {
        placed_row(workload, seed, trace, digest, failed, metrics, "free")
    }

    fn placed_row(
        workload: &str,
        seed: u64,
        trace: u8,
        digest: &str,
        failed: u64,
        metrics: &str,
        placement: &str,
    ) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
             \"report_digest\": \"{digest}\", \"placement\": \"{placement}\", \
             \"result\": {{\"correct\": true, \"attempted\": 4, \
             \"failed\": {failed}, \"metrics\": {{{metrics}}}}}}}\n"
        )
    }

    fn wall(v: f64) -> String {
        format!("\"wall_s\": {{\"value\": {v}, \"unit\": \"s\"}}")
    }

    #[test]
    fn the_report_flags_regressions_failures_and_changed_output() {
        let events =
            |v: u64| format!("\"simnet.engine.events\": {{\"value\": {v}, \"unit\": \"count\"}}");
        let base = ResultSet::parse(
            &(row("paper_presets", 42, 0, "aa", 0, &wall(2.0))
                + &row("paper_presets", 43, 0, "bb", 0, &wall(2.1))
                + &row("paper_presets", 42, 1, "aa", 0, &events(1000))),
        )
        .unwrap();
        let (text, holds) = report(&base, &base);
        assert!(holds, "{text}");
        assert!(text.contains("1.000 of 2.050000 s"), "{text}");
        assert!(
            text.contains("unresolved"),
            "two runs have no spread: {text}"
        );
        assert!(!text.contains("simulated output changed"));

        let slower = ResultSet::parse(
            &(row("paper_presets", 42, 0, "aa", 0, &wall(3.0))
                + &row("paper_presets", 43, 0, "bb", 0, &wall(3.1))),
        )
        .unwrap();
        let (text, holds) = report(&base, &slower);
        assert!(!holds && text.contains("worse"), "{text}");

        let failing = ResultSet::parse(&row("paper_presets", 42, 0, "aa", 1, &wall(2.0))).unwrap();
        let (text, holds) = report(&base, &failing);
        assert!(!holds && text.contains("failed_share"), "{text}");

        let different = ResultSet::parse(
            &(row("paper_presets", 42, 0, "cc", 0, &wall(2.0))
                + &row("paper_presets", 42, 1, "cc", 0, &events(1001))),
        )
        .unwrap();
        let (text, holds) = report(&base, &different);
        assert!(holds, "output changes are recorded, not gated");
        assert!(text.contains("simulated output changed"), "{text}");
        assert!(
            text.contains("simnet.engine.events: 1000 -> 1001"),
            "{text}"
        );
        assert!(text.contains("report_digest: aa -> cc"), "{text}");
    }

    /// A run that crashes writes no row, so a row on one side only is a
    /// failure, not a pair to skip.
    #[test]
    fn a_row_on_one_side_only_fails_the_comparison() {
        let both = ResultSet::parse(
            &(row("paper_presets", 42, 0, "aa", 0, &wall(2.0))
                + &row("fluid_sweep", 42, 0, "bb", 0, &wall(2.0))),
        )
        .unwrap();
        let one = ResultSet::parse(&row("paper_presets", 42, 0, "aa", 0, &wall(2.0))).unwrap();
        let empty = ResultSet::parse("").unwrap();

        let (text, holds) = report(&both, &one);
        assert!(!holds, "{text}");
        assert!(
            text.contains("fluid_sweep") && text.contains("missing from the change set"),
            "{text}"
        );
        let (text, holds) = report(&one, &both);
        assert!(
            !holds && text.contains("missing from the base set"),
            "{text}"
        );
        assert!(!report(&both, &empty).1);
        let (text, holds) = report(&empty, &empty);
        assert!(!holds && text.contains("no untraced run"), "{text}");
    }

    #[test]
    fn results_under_different_cpu_placements_do_not_compare() {
        let split = ResultSet::parse(&placed_row(
            "daemon_small",
            42,
            0,
            "aa",
            0,
            &wall(2.0),
            "split",
        ))
        .unwrap();
        let free = ResultSet::parse(&placed_row(
            "daemon_small",
            42,
            0,
            "aa",
            0,
            &wall(2.0),
            "free",
        ))
        .unwrap();
        assert!(report(&split, &split).1);
        let (text, holds) = report(&split, &free);
        assert!(!holds && text.contains("not comparable"), "{text}");
    }

    #[test]
    fn malformed_result_files_are_errors() {
        assert!(ResultSet::parse("not json\n").is_err());
        assert!(ResultSet::parse("{\"workload\": \"x\"}\n").is_err());
        assert!(ResultSet::parse("\n\n").unwrap().values.is_empty());
    }
}
