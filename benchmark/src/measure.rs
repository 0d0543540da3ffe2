//! The end-to-end run protocol: a closed loop in one process with one
//! thread of load. Each repetition builds a fresh `Simulator` from the same
//! configuration and runs it to the end; timings are medians over the
//! repetitions, with the sample count, minimum and maximum beside them.

use std::time::Instant;

use senn_sim::{BatchStats, Metrics, SimConfig, Simulator};

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats;
use crate::workloads::Workload;

/// How long a workload is measured.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// One untimed warm-up repetition, then this many timed ones.
    Reps(usize),
    /// Timed repetitions, started for as long as fewer than this many
    /// seconds have passed (at least two); no warm-up, so that a fixed
    /// time box holds as many timed repetitions as it can.
    Seconds(f64),
}

/// `Simulator::new` samples wanted per run. Building the world takes
/// 0.02 s to 0.6 s, so a handful of samples is noisy where a run's worth of
/// repetitions is few; extra set-ups top the sample up, within a time cap.
const SETUP_SAMPLES: usize = 15;
const SETUP_TOP_UP_SECS: f64 = 2.0;

/// One timed repetition.
pub struct Rep {
    pub setup_s: f64,
    pub run_wall_s: f64,
    pub run_cpu_s: f64,
    pub metrics: Metrics,
    pub stats: BatchStats,
}

/// Builds and runs one simulator, timing both halves.
pub fn timed_run(cfg: SimConfig) -> (Simulator, Rep) {
    let started = Instant::now();
    let mut sim = Simulator::new(cfg);
    let setup_s = started.elapsed().as_secs_f64();
    let cpu_before = process_cpu_secs();
    let started = Instant::now();
    let metrics = sim.run();
    let run_wall_s = started.elapsed().as_secs_f64();
    let run_cpu_s = process_cpu_secs() - cpu_before;
    let stats = *sim.batch_stats();
    let rep = Rep {
        setup_s,
        run_wall_s,
        run_cpu_s,
        metrics,
        stats,
    };
    (sim, rep)
}

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat`. Linux counts them in ticks of 1/100 s on every
/// platform it is commonly built for; `NaN` where `/proc` is missing.
pub fn process_cpu_secs() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    match (
        fields.get(11).and_then(|s| s.parse::<f64>().ok()),
        fields.get(12).and_then(|s| s.parse::<f64>().ok()),
    ) {
        (Some(utime), Some(stime)) => (utime + stime) / TICKS_PER_SEC,
        _ => f64::NAN,
    }
}

/// Peak resident set of this process (`VmHWM`), MB; `NaN` without `/proc`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything one workload's measurement produced.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub quick: bool,
    pub reps: Vec<Rep>,
    /// `Simulator::new` wall times: one per repetition plus the top-up.
    pub setup_samples: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Hosts times the interval steps a run takes on average (simulated
    /// duration over the mean batch interval). The count a run realises
    /// (`BatchStats::batches`) varies 7-13 % with the seed's interval draws,
    /// which has no place in a host-time metric.
    pub host_steps: f64,
    /// Correctness checks that failed, in words.
    pub failures: Vec<String>,
}

/// Runs the protocol for one workload in this process.
pub fn measure(workload: Workload, seed: u64, quick: bool, budget: Budget) -> Outcome {
    let cfg = workload.config(seed, quick);
    let mut reps = Vec::new();
    match budget {
        Budget::Reps(n) => {
            drop(timed_run(cfg));
            for _ in 0..n.max(1) {
                reps.push(timed_run(cfg).1);
            }
        }
        Budget::Seconds(secs) => {
            let started = Instant::now();
            while reps.len() < 2 || started.elapsed().as_secs_f64() < secs {
                reps.push(timed_run(cfg).1);
            }
        }
    }
    let mut setup_samples: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let top_up = Instant::now();
    while setup_samples.len() < SETUP_SAMPLES && top_up.elapsed().as_secs_f64() < SETUP_TOP_UP_SECS
    {
        let started = Instant::now();
        let sim = Simulator::new(cfg);
        setup_samples.push(started.elapsed().as_secs_f64());
        drop(sim);
    }
    let failures = check(&reps);
    Outcome {
        workload,
        seed,
        quick,
        reps,
        setup_samples,
        peak_rss_mb: peak_rss_mb(),
        host_steps: cfg.params.mh_number as f64 * cfg.params.duration_secs()
            / cfg.mean_interval_secs,
        failures,
    }
}

/// The correctness checks every measurement carries.
fn check(reps: &[Rep]) -> Vec<String> {
    let mut failures = Vec::new();
    let first = &reps[0].metrics;
    if reps.iter().any(|r| r.metrics != *first) {
        failures.push("Metrics differ between repetitions of one configuration".to_string());
    }
    let attributed = first.single_peer + first.multi_peer + first.server + first.accepted_uncertain;
    if first.queries != attributed {
        failures.push(format!(
            "queries {} != single_peer + multi_peer + server + accepted_uncertain {}",
            first.queries, attributed
        ));
    }
    if first.queries == 0 {
        failures.push("the run measured no query".to_string());
    }
    failures
}

/// Requests that ended badly in one repetition: failed, degraded, shed or
/// retry-denied at the service, or a peer answer graded wrong.
pub fn failed_ops(m: &Metrics) -> u64 {
    m.server_failed
        + m.server_degraded
        + m.server_shed
        + m.server_retries_denied
        + m.peer_answers_wrong
}

/// One end-to-end metric of one workload, ready to print or store.
pub struct Reading {
    pub metric: &'static EndToEnd,
    /// The reported value: the median of `samples` where the metric is
    /// sampled per repetition, the single reading otherwise.
    pub value: f64,
    /// Per-repetition samples; empty for single-valued metrics.
    pub samples: Vec<f64>,
}

impl Outcome {
    fn metrics(&self) -> &Metrics {
        &self.reps[0].metrics
    }

    fn stats(&self) -> &BatchStats {
        &self.reps[0].stats
    }

    pub fn ops_total(&self) -> u64 {
        self.metrics().queries
    }

    /// Failed operations plus one per failed correctness check.
    pub fn ops_failed(&self) -> u64 {
        failed_ops(self.metrics()) + self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.ops_failed() == 0
    }

    /// All ten end-to-end metrics, in table order.
    pub fn readings(&self) -> Vec<Reading> {
        let m = self.metrics();
        let queries = self.stats().queries as f64;
        let walls: Vec<f64> = self.reps.iter().map(|r| r.run_wall_s).collect();
        END_TO_END
            .iter()
            .map(|metric| {
                let samples: Vec<f64> = match metric.name {
                    "setup_s" => self.setup_samples.clone(),
                    "run_wall_s" => walls.clone(),
                    "run_cpu_s" => self.reps.iter().map(|r| r.run_cpu_s).collect(),
                    "queries_per_s" => walls.iter().map(|w| queries / w).collect(),
                    "host_steps_per_s" => walls.iter().map(|w| self.host_steps / w).collect(),
                    _ => Vec::new(),
                };
                let value = match metric.name {
                    "peak_rss_mb" => self.peak_rss_mb,
                    "sqrr" => m.sqrr(),
                    "pages_per_server_query" => m.einn_pages_per_query(),
                    "inn_pages_ratio" => m.einn_accesses as f64 / m.inn_accesses as f64,
                    "error_rate" => self.ops_failed() as f64 / self.ops_total().max(1) as f64,
                    _ => stats::median(&samples),
                };
                Reading {
                    metric,
                    value,
                    samples,
                }
            })
            .collect()
    }

    /// The exact simulated counts of the run: a host-time-only change must
    /// leave every one of them identical.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let (m, s) = (self.metrics(), self.stats());
        vec![
            ("queries", m.queries),
            ("server", m.server),
            ("snnn_rounds", s.snnn_rounds),
            ("grid_cell_moves", s.grid_cell_moves),
            ("einn_accesses", m.einn_accesses),
        ]
    }

    /// The human-readable block `bench run` prints.
    pub fn report(&self) -> String {
        let n = self.reps.len();
        let mut out = format!(
            "{}  seed {}  reps {}{}\n",
            self.workload.name(),
            self.seed,
            n,
            if self.quick {
                "  (--quick: not for numbers)"
            } else {
                ""
            },
        );
        out.push_str(&format!(
            "  timings are medians; {n} samples support a minimum and a maximum, no tail percentile\n"
        ));
        for r in self.readings() {
            let kind = if r.metric.simulated {
                "simulated"
            } else {
                "host"
            };
            out.push_str(&format!(
                "  {:<24}{:>16.6} {:<6} {:<10}",
                r.metric.name, r.value, r.metric.unit, kind
            ));
            if !r.samples.is_empty() {
                out.push_str(&format!(
                    "n={} min {:.6} max {:.6}",
                    r.samples.len(),
                    stats::min(&r.samples),
                    stats::max(&r.samples)
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  ops_total {}  ops_failed {}\n",
            self.ops_total(),
            self.ops_failed()
        ));
        let counts: Vec<String> = self
            .counts()
            .iter()
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        out.push_str(&format!("  exact counts: {}\n", counts.join(" ")));
        for f in &self.failures {
            out.push_str(&format!("  CHECK FAILED: {f}\n"));
        }
        out
    }

    /// The stored form: every reading with its raw samples, so that any
    /// median can be recomputed from the file.
    pub fn to_json(&self) -> Json {
        let metrics = self.readings().into_iter().map(|r| {
            let mut fields = vec![
                ("value", Json::Num(r.value)),
                ("unit", Json::str(r.metric.unit)),
            ];
            if !r.samples.is_empty() {
                fields.push(("n", Json::Num(r.samples.len() as f64)));
                fields.push(("min", Json::Num(stats::min(&r.samples))));
                fields.push(("max", Json::Num(stats::max(&r.samples))));
                fields.push(("samples", Json::nums(&r.samples)));
            }
            (r.metric.name, Json::obj(fields))
        });
        Json::obj([
            ("name", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("quick", Json::Bool(self.quick)),
            ("reps", Json::Num(self.reps.len() as f64)),
            ("correct", Json::Bool(self.correct())),
            ("ops_total", Json::Num(self.ops_total() as f64)),
            ("ops_failed", Json::Num(self.ops_failed() as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::obj(metrics)),
            (
                "counts",
                Json::obj(
                    self.counts()
                        .into_iter()
                        .map(|(name, v)| (name, Json::Num(v as f64))),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        let rss = peak_rss_mb();
        assert!(rss > 0.5 && rss < 1e6, "{rss}");
        let before = process_cpu_secs();
        let mut x = 0u64;
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = process_cpu_secs() - before;
        assert!((0.0..1.0).contains(&spent), "{spent}");
    }
}
