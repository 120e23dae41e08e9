//! What a run leaves behind: the human-readable metric listing, the
//! one-line result the benchmark contract asks for, the per-workload
//! JSON file, and `--compare` between two such files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use turnroute_experiment::json::{self, Value};

use crate::registry::{Better, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, iqr, median};

/// One measured metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The reported value (a median where there were repetitions).
    pub value: f64,
    /// Interquartile range of the samples behind `value`, in the
    /// metric's unit; 0 for single readings and counts.
    pub iqr: f64,
    /// Number of samples behind `value`.
    pub n: usize,
}

/// Metric name → measurement.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

impl Metrics {
    /// Records a single reading or a count.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(
            name,
            Measured {
                value,
                iqr: 0.0,
                n: 1,
            },
        );
    }

    /// Records the median of `samples` with their spread.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.0.insert(
            name,
            Measured {
                value: median(samples),
                iqr: iqr(samples),
                n: samples.len(),
            },
        );
    }

    /// Records a precomputed statistic of `n` samples (a percentile).
    pub fn set_stat(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.insert(name, Measured { value, iqr: 0.0, n });
    }

    /// Looks a metric up.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }

    /// Moves every metric of `other` into `self`.
    pub fn absorb(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// `true` for a `--trace 1` run (per-layer metrics), `false` for an
    /// untraced run (end-to-end metrics).
    pub traced: bool,
    /// Operations attempted: gate checks plus timed cells / runs / jobs.
    pub attempted: u64,
    /// Operations that failed (panic, deadlock, non-2xx, byte mismatch).
    pub failed: u64,
    /// FNV-1a digest of the workload's report bytes.
    pub report_fnv: u64,
    /// The metrics: every end-to-end one, or every per-layer one.
    pub metrics: Metrics,
}

impl Outcome {
    /// The (name, unit) list this run must report, in registry order.
    fn expected(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// `true` if no operation failed and every expected metric is
    /// present and finite (and, end to end, nonzero).
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.expected().iter().all(|(name, _)| {
                self.metrics
                    .get(name)
                    .is_some_and(|m| m.value.is_finite() && (self.traced || m.value != 0.0))
            })
    }

    /// The metric listing for people: name, value, unit, spread, count.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} seed={} traced={} attempted={} failed={} {}.report_fnv={:016x}",
            self.workload,
            self.seed,
            self.traced,
            self.attempted,
            self.failed,
            self.workload,
            self.report_fnv
        );
        for (name, unit) in self.expected() {
            let Some(m) = self.metrics.get(name) else {
                let _ = writeln!(out, "  {name:<34} MISSING");
                continue;
            };
            let spread = if m.n > 1 && m.value != 0.0 && m.iqr > 0.0 {
                format!("  iqr/median {:.2}%", 100.0 * m.iqr / m.value.abs())
            } else {
                String::new()
            };
            let support = match highest_supported_percentile(m.n) {
                Some(p) if p >= 99.0 => String::new(),
                best if name.contains("p99") => {
                    format!("  (n={} supports at most {best:?})", m.n)
                }
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  {name:<34} {:>16.6} {unit:<6} n={}{spread}{support}",
                m.value, m.n
            );
        }
        out
    }

    /// The contract's last line of standard output.
    pub fn render_result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in self.expected() {
            let Some(m) = self.metrics.get(name) else {
                continue;
            };
            if !m.value.is_finite() {
                continue;
            }
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if first { "" } else { ", " },
                m.value
            );
            first = false;
        }
        out.push_str("}}");
        out
    }

    /// The per-workload file: the result line's content plus seed,
    /// digest and each metric's spread, for `--compare`.
    pub fn render_file(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"traced\": {},", self.traced);
        let _ = writeln!(out, "  \"correct\": {},", self.correct());
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let _ = writeln!(out, "  \"report_fnv\": \"{:016x}\",", self.report_fnv);
        out.push_str("  \"metrics\": {\n");
        let expected = self.expected();
        for (i, (name, unit)) in expected.iter().enumerate() {
            let m = self.metrics.get(name).unwrap_or(Measured {
                value: f64::NAN,
                iqr: 0.0,
                n: 0,
            });
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            let _ = writeln!(
                out,
                "    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"iqr\": {}, \"n\": {}}}{}",
                m.iqr,
                m.n,
                if i + 1 == expected.len() { "" } else { "," }
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// One disagreement `--compare` found.
#[derive(Debug, Clone, PartialEq)]
pub struct Disagreement {
    /// The metric (or field) that disagrees.
    pub metric: String,
    /// What is wrong with it.
    pub detail: String,
}

fn field<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, String> {
    doc.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn metric_of(doc: &Value, name: &str) -> Option<(f64, f64)> {
    let m = doc.get("metrics")?.get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("iqr")?.as_f64()?))
}

/// Compares run `b` against run `a` of the same workload and seed:
/// every end-to-end metric of `b` within its bound of `a` (a bound also
/// needs the change to exceed both runs' IQR), every exact count equal,
/// both digests equal, and both runs correct.
///
/// # Errors
///
/// Returns a message if either document is not a file this suite wrote
/// or the two describe different workloads, seeds or kinds of run.
pub fn compare(a: &str, b: &str) -> Result<Vec<Disagreement>, String> {
    let a = json::parse(a).map_err(|e| format!("first file: {e}"))?;
    let b = json::parse(b).map_err(|e| format!("second file: {e}"))?;
    for key in ["workload", "seed", "traced"] {
        if field(&a, key)? != field(&b, key)? {
            return Err(format!("the files differ in '{key}'; nothing to compare"));
        }
    }
    let mut out = Vec::new();
    let mut disagree = |metric: &str, detail: String| {
        out.push(Disagreement {
            metric: metric.to_owned(),
            detail,
        })
    };
    for (label, doc) in [("first", &a), ("second", &b)] {
        if field(doc, "correct")?.as_bool() != Some(true) {
            disagree("correct", format!("the {label} run is not correct"));
        }
    }
    if field(&a, "report_fnv")? != field(&b, "report_fnv")? {
        disagree(
            "report_fnv",
            format!(
                "{} != {}",
                field(&a, "report_fnv")?.as_str().unwrap_or("?"),
                field(&b, "report_fnv")?.as_str().unwrap_or("?")
            ),
        );
    }
    let traced = field(&a, "traced")?.as_bool() == Some(true);
    if traced {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (metric_of(&a, m.name), metric_of(&b, m.name));
            if va.map(|v| v.0) != vb.map(|v| v.0) {
                disagree(m.name, format!("exact count differs: {va:?} vs {vb:?}"));
            }
        }
    } else {
        for m in &END_TO_END {
            let (Some((va, ia)), Some((vb, ib))) = (metric_of(&a, m.name), metric_of(&b, m.name))
            else {
                disagree(m.name, "missing from one of the files".to_owned());
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => vb - va,
                Better::Higher => va - vb,
            };
            if worse_by > m.bound * va.abs() && worse_by > ia.max(ib) {
                disagree(
                    m.name,
                    format!(
                        "{vb} is worse than {va} by {:.1}% (bound {:.0}%, IQRs {ia} / {ib})",
                        100.0 * worse_by / va.abs(),
                        100.0 * m.bound
                    ),
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(traced: bool) -> Outcome {
        let mut metrics = Metrics::default();
        if traced {
            for m in &PER_LAYER {
                metrics.set(m.name, 3.0);
            }
        } else {
            for m in &END_TO_END {
                metrics.set_median(m.name, &[9.0, 10.0, 11.0]);
            }
        }
        Outcome {
            workload: "sweep16",
            seed: 1,
            traced,
            attempted: 12,
            failed: 0,
            report_fnv: 0xABCD,
            metrics,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = outcome(false).render_result_line();
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].0, "setup_s");
        assert_eq!(metrics[0].1.get("unit").unwrap().as_str(), Some("s"));
        let traced = json::parse(&outcome(true).render_result_line()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn a_missing_zero_or_failed_metric_is_not_correct() {
        let mut o = outcome(false);
        assert!(o.correct());
        o.metrics.set("ops_per_s", 0.0);
        assert!(!o.correct());
        let mut o = outcome(false);
        o.failed = 1;
        assert!(!o.correct());
        // Per-layer zeros are fine: the layer was bypassed.
        let mut o = outcome(true);
        o.metrics.set("vc.step_ns_p50", 0.0);
        assert!(o.correct());
        o.metrics.set("vc.step_ns_p50", f64::NAN);
        assert!(!o.correct());
    }

    #[test]
    fn compare_accepts_itself_and_names_what_moved() {
        let a = outcome(false);
        assert_eq!(compare(&a.render_file(), &a.render_file()).unwrap(), []);

        // Rates are better higher: a 30% drop beyond the IQR is named.
        let mut b = outcome(false);
        b.metrics.set_median("node_cycles_per_s", &[6.9, 7.0, 7.1]);
        // A 30% rise in a rate, and a wobble inside the bound, are not.
        b.metrics.set_median("ops_per_s", &[12.9, 13.0, 13.1]);
        b.metrics.set_median("op_p75_ms", &[10.4, 10.5, 10.6]);
        // Beyond the bound but inside the IQR: unresolved, not a fail.
        b.metrics.set_median("op_p25_ms", &[6.0, 12.0, 18.0]);
        b.report_fnv = 0xABCE;
        let found = compare(&a.render_file(), &b.render_file()).unwrap();
        let names: Vec<&str> = found.iter().map(|d| d.metric.as_str()).collect();
        assert_eq!(names, ["report_fnv", "node_cycles_per_s"]);
    }

    #[test]
    fn compare_demands_equal_exact_counts_only() {
        let a = outcome(true);
        let mut b = outcome(true);
        b.metrics.set("engine.header_hops", 4.0); // exact
        b.metrics.set("engine.step_ns_p50", 4.0); // a time
        let found = compare(&a.render_file(), &b.render_file()).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "engine.header_hops");
    }

    #[test]
    fn compare_refuses_mismatched_files() {
        let a = outcome(false);
        let mut b = outcome(false);
        b.seed = 2;
        assert!(compare(&a.render_file(), &b.render_file()).is_err());
        assert!(compare(&a.render_file(), &outcome(true).render_file()).is_err());
        assert!(compare("{", &a.render_file()).is_err());
    }

    #[test]
    fn human_listing_names_every_metric_with_its_unit() {
        let text = outcome(false).render_human();
        for m in &END_TO_END {
            assert!(text.contains(m.name), "{}", m.name);
        }
        assert!(text.contains("sweep16.report_fnv=000000000000abcd"));
        assert!(text.contains("iqr/median"));
    }
}
