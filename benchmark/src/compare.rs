//! Two outputs of `bench run`, row by row: one row per workload and
//! end-to-end metric, judged against the metric's bound and against the
//! spread of the runs themselves.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The repetitions spread wider than the bound and the two sides
    /// overlap: the data cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the reported value and, where the metric is sampled
/// per repetition, the samples behind it.
#[derive(Clone, Debug, Default)]
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Side {
    fn range(&self) -> (f64, f64) {
        if self.samples.is_empty() {
            (self.value, self.value)
        } else {
            (stats::min(&self.samples), stats::max(&self.samples))
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static EndToEnd,
    pub a: Side,
    pub b: Side,
    /// How much worse B's value is than A's, in the metric's own unit
    /// (negative when B is better).
    pub worse_by: f64,
    /// The worsening the bound allows from base A.
    pub allowed: f64,
    pub verdict: Verdict,
}

impl Row {
    /// `worse_by` as a share of A's value, the base of every ratio here.
    pub fn worse_share(&self) -> f64 {
        if self.a.value == 0.0 {
            if self.worse_by == 0.0 {
                0.0
            } else {
                f64::INFINITY.copysign(self.worse_by)
            }
        } else {
            self.worse_by / self.a.value.abs()
        }
    }
}

/// Judges B against base A for one metric.
pub fn judge(metric: &'static EndToEnd, a: &Side, b: &Side) -> (f64, f64, Verdict) {
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (b.value - a.value);
    let allowed = (metric.bound * a.value.abs()).max(metric.bound_abs);
    let spread = stats::iqr(&a.samples).max(stats::iqr(&b.samples));
    let verdict = if spread > allowed {
        // Too noisy for the medians to decide; only a clean separation of
        // every repetition does.
        // Ranges on a scale where larger is worse.
        let badness = |side: &Side| {
            let (lo, hi) = side.range();
            if sign > 0.0 {
                (lo, hi)
            } else {
                (-hi, -lo)
            }
        };
        let ((a_best, a_worst), (b_best, b_worst)) = (badness(a), badness(b));
        let b_all_worse = b_best > a_worst;
        let b_all_better = b_worst < a_best;
        if b_all_better {
            Verdict::Improved
        } else if b_all_worse {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > allowed {
        Verdict::Regressed
    } else if -worse_by > allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, allowed, verdict)
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Exact simulated counts that differ, in words. Any entry means the
    /// two sides did not simulate the same thing.
    pub count_changes: Vec<String>,
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a `bench run` output: no \"workloads\" array".to_string())
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        samples: m.get("samples").and_then(Json::as_f64s).unwrap_or_default(),
    })
}

/// Compares two `bench run` outputs, A the base.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut rows = Vec::new();
    let mut count_changes = Vec::new();
    for wa in workloads(a)? {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload without a name")?;
        let Some(wb) = workloads(b)?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            count_changes.push(format!("{name}: missing from B"));
            continue;
        };
        for key in ["seed", "quick", "reps"] {
            if wa.get(key) != wb.get(key) {
                count_changes.push(format!(
                    "{name}: {key} differs ({} vs {}), the sides are not comparable",
                    wa.get(key).map_or("none".into(), Json::encode),
                    wb.get(key).map_or("none".into(), Json::encode),
                ));
            }
        }
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(wa, metric.name), side(wb, metric.name)) else {
                return Err(format!("{name}: {} missing on one side", metric.name));
            };
            let (worse_by, allowed, verdict) = judge(metric, &sa, &sb);
            rows.push(Row {
                workload: name.to_string(),
                metric,
                a: sa,
                b: sb,
                worse_by,
                allowed,
                verdict,
            });
        }
        let counts = |w: &Json| w.get("counts").and_then(Json::as_obj).map(<[_]>::to_vec);
        match (counts(wa), counts(wb)) {
            (Some(ca), Some(cb)) => {
                for (key, va) in &ca {
                    let vb = cb.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                    if vb != Some(va) {
                        count_changes.push(format!(
                            "{name}: {key} {} -> {}",
                            va.encode(),
                            vb.map_or("none".into(), Json::encode)
                        ));
                    }
                }
            }
            _ => return Err(format!("{name}: no exact counts on one side")),
        }
    }
    Ok(Comparison {
        rows,
        count_changes,
    })
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// The table `bench compare` prints. Every ratio is B against base A.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{:<14}{:<24}{:>20}{:>20}{:>10}{:>9}  {}\n",
            "workload", "metric", "A (base)", "B", "B vs A", "bound", "verdict"
        );
        for r in &self.rows {
            let change = if r.a.value == 0.0 {
                format!("{:+.4}", r.b.value - r.a.value)
            } else {
                format!("{:+.2}%", 100.0 * (r.b.value - r.a.value) / r.a.value.abs())
            };
            let bound = if r.metric.bound == 0.0 {
                "0 abs".to_string()
            } else {
                format!("{:.0}%", 100.0 * r.metric.bound)
            };
            out.push_str(&format!(
                "{:<14}{:<24}{:>20.6}{:>20.6}{:>10}{:>9}  {}{}\n",
                r.workload,
                r.metric.name,
                r.a.value,
                r.b.value,
                change,
                bound,
                r.verdict.as_str(),
                if r.metric.simulated && r.a.value != r.b.value {
                    "  (simulated: must not move under a host-time-only change)"
                } else {
                    ""
                },
            ));
        }
        if self.count_changes.is_empty() {
            out.push_str("exact simulated counts: identical\n");
        } else {
            out.push_str("EXACT SIMULATED COUNTS CHANGED:\n");
            for c in &self.count_changes {
                out.push_str(&format!("  {c}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn side(samples: &[f64]) -> Side {
        Side {
            value: stats::median(samples),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let wall = end_to_end("run_wall_s").unwrap(); // lower is better
        let tight_a = side(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        let verdict = |b: &Side| judge(wall, &tight_a, b).2;
        assert_eq!(
            verdict(&side(&[10.2, 10.3, 10.1, 10.2, 10.2])),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&side(&[13.0, 13.1, 12.9, 13.0, 13.0])),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&side(&[7.0, 7.1, 6.9, 7.0, 7.0])),
            Verdict::Improved
        );
        // B spreads wider than the bound and overlaps A: no verdict.
        assert_eq!(
            verdict(&side(&[8.0, 16.0, 9.0, 15.0, 12.0])),
            Verdict::Unresolved
        );
        // Just as wide, but every repetition is worse than every one of A.
        assert_eq!(
            verdict(&side(&[14.0, 22.0, 15.0, 21.0, 18.0])),
            Verdict::Regressed
        );

        let rate = end_to_end("queries_per_s").unwrap(); // higher is better
        let a = side(&[100.0, 101.0, 99.0]);
        assert_eq!(
            judge(rate, &a, &side(&[70.0, 71.0, 69.0])).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, &a, &side(&[130.0, 131.0, 129.0])).2,
            Verdict::Improved
        );
        let (worse_by, allowed, _) = judge(rate, &a, &side(&[95.0, 95.0, 95.0]));
        assert!((worse_by - 5.0).abs() < 1e-9 && (allowed - 100.0 * rate.bound).abs() < 1e-9);
    }

    #[test]
    fn small_and_zero_bases_use_the_absolute_allowance() {
        let setup = end_to_end("setup_s").unwrap();
        let single = |v: f64| Side {
            value: v,
            samples: vec![],
        };
        // 0.02 s -> 0.05 s is +150% but inside the 0.05 s absolute slack.
        assert_eq!(
            judge(setup, &single(0.02), &single(0.05)).2,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(setup, &single(0.02), &single(0.09)).2,
            Verdict::Regressed
        );
        let errors = end_to_end("error_rate").unwrap();
        assert_eq!(
            judge(errors, &single(0.0), &single(0.0)).2,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(errors, &single(0.0), &single(1e-5)).2,
            Verdict::Regressed
        );
    }

    #[test]
    fn documents_compare_row_by_row_and_flag_count_changes() {
        let doc = |wall: f64, queries: f64| {
            let metrics = END_TO_END.iter().map(|m| {
                let v = if m.name == "run_wall_s" { wall } else { 1.0 };
                (
                    m.name,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
                )
            });
            Json::obj([(
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("county_road")),
                    ("seed", Json::Num(1.0)),
                    ("metrics", Json::obj(metrics)),
                    ("counts", Json::obj([("queries", Json::Num(queries))])),
                ])]),
            )])
        };
        let same = compare(&doc(5.0, 100.0), &doc(5.1, 100.0)).unwrap();
        assert_eq!(same.rows.len(), END_TO_END.len());
        assert!(!same.regressed() && same.count_changes.is_empty());
        let worse = compare(&doc(5.0, 100.0), &doc(9.0, 101.0)).unwrap();
        assert!(worse.regressed());
        assert_eq!(worse.count_changes, vec!["county_road: queries 100 -> 101"]);
        assert!(worse.report().contains("regressed"));
        assert!(compare(&Json::Null, &doc(1.0, 1.0)).is_err());
    }
}
