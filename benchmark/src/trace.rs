//! The traced run: one `Simulator::run` whose own counters give the `sim`
//! layer, then the layer drive over the world it leaves, all under spans
//! recorded here, in the benchmark's code. End-to-end metrics are never
//! taken from this run.

use std::path::{Path, PathBuf};

use senn_core::Stage;

use crate::json::Json;
use crate::layers::{Drive, Values};
use crate::measure::{failed_ops, timed_run};
use crate::metrics::PER_LAYER;
use crate::spans::{clock_cost_ns, self_times, Tracer};
use crate::workloads::Workload;

pub struct TraceOutcome {
    pub workload: Workload,
    pub seed: u64,
    pub quick: bool,
    pub values: Values,
    /// Queries of the traced run plus oracle checks made.
    pub attempted: u64,
    /// Bad operations of the traced run plus checks that failed.
    pub failed: u64,
    pub failures: Vec<String>,
    pub span_file: PathBuf,
    /// Self time per span name, seconds, largest first.
    pub self_time: Vec<(String, f64)>,
}

/// Runs the traced run and the layer drive for one workload and writes the
/// spans to `<out_dir>/trace-<workload>.jsonl`.
pub fn trace(
    workload: Workload,
    seed: u64,
    quick: bool,
    out_dir: &Path,
) -> std::io::Result<TraceOutcome> {
    let cfg = workload.config(seed, quick);
    let mut tr = Tracer::new();
    let root = tr.enter("root");
    let under = tr.enter(workload.name());

    let (sim, rep) = tr.scope("sim", |_| timed_run(cfg));
    let (m, s) = (&rep.metrics, &rep.stats);
    let mut failures = Vec::new();

    // One more run at two threads: what the parallel engine pays or gains
    // on this box. Its metrics must not differ.
    let mut two = cfg;
    two.threads = Some(2);
    let (_, rep2) = tr.scope("sim.threads2", |_| timed_run(two));
    if rep2.metrics != rep.metrics {
        failures.push("Metrics differ between one and two worker threads".to_string());
    }
    let blocking = workload
        .blocking_reference(seed, quick)
        .map(|plain| tr.scope("sim.blocking_ref", |_| timed_run(plain)).1);

    let mut drive = Drive::new(&sim, quick);
    {
        let v = &mut drive.values;
        let staged: u64 = s.stage_nanos.iter().sum();
        v.set("sim.move_s", s.move_secs);
        v.set("sim.exec_s", s.exec_secs);
        for (stage, metric) in [
            Stage::PeerProbe,
            Stage::SingleVerify,
            Stage::MultiVerify,
            Stage::ServerResidual,
        ]
        .into_iter()
        .zip([
            "sim.stage_peer_probe_ms",
            "sim.stage_single_verify_ms",
            "sim.stage_multi_verify_ms",
            "sim.stage_server_residual_ms",
        ]) {
            v.set(metric, s.stage_nanos[stage.index()] as f64 / 1e6);
        }
        v.set("sim.exec_unstaged_s", s.exec_secs - staged as f64 / 1e9);
        v.set(
            "sim.unattributed_s",
            rep.run_wall_s - s.move_secs - s.exec_secs,
        );
        // Intervals that executed a batch: the only interval count the
        // program exposes (an interval that drew no query leaves no trace).
        v.set("sim.intervals", s.batches as f64);
        v.set("sim.queries", s.queries as f64);
        v.set("sim.peak_batch_ms", s.peak_batch_secs * 1e3);
        v.set("sim.grid_cell_moves", s.grid_cell_moves as f64);
        if cfg.distance_model.is_some() {
            v.set("sim.snnn_rounds", s.snnn_rounds as f64);
            v.set("sim.snnn_submissions", s.snnn_submissions as f64);
        }
        v.set(
            "sim.peer_resolved_ratio",
            (m.single_peer + m.multi_peer) as f64 / m.queries.max(1) as f64,
        );
        v.set("sim.exec_t2_s", rep2.stats.exec_secs);
        if let Some(b) = &blocking {
            v.set("sim.exec_blocking_ref_s", b.stats.exec_secs);
        }
        v.set("trace.run_wall_s", rep.run_wall_s);
    }
    drive.run(&mut tr, m, s, rep.run_wall_s);
    tr.exit(under, 0);
    tr.exit(root, 0);

    // What recording cost: every span is two clock reads and a push, none
    // of them inside `Simulator::run`, so the traced run's own wall time
    // (`trace.run_wall_s`) differs from the untraced `run_wall_s` by noise
    // only; the share of the traced time spent recording is the overhead.
    let clock_ns = clock_cost_ns();
    let spans = tr.spans();
    let traced_ns = spans[root as usize].duration_ns() as f64;
    drive.values.set("trace.clock_ns", clock_ns);
    drive.values.set("trace.spans", spans.len() as f64);
    drive.values.set(
        "trace.overhead_frac",
        clock_ns * spans.len() as f64 / traced_ns,
    );

    // Emitted exactly where the table says: present where the workload
    // exercises the layer, absent where it bypasses it.
    for metric in PER_LAYER {
        match (metric.on.applies(&cfg), drive.values.get(metric.name)) {
            (true, None) => failures.push(format!("{} was not emitted", metric.name)),
            (false, Some(_)) => {
                failures.push(format!("{} emitted on a bypassed layer", metric.name))
            }
            (true, Some(v)) if !v.is_finite() => {
                failures.push(format!("{} is not a finite number", metric.name))
            }
            _ => {}
        }
    }
    failures.append(&mut drive.checks.failures);

    std::fs::create_dir_all(out_dir)?;
    let span_file = out_dir.join(format!("trace-{}.jsonl", workload.name()));
    std::fs::write(&span_file, tr.to_jsonl())?;

    let mut by_name: Vec<(String, f64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match by_name.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, total)) => *total += own as f64 / 1e9,
            None => by_name.push((span.name.clone(), own as f64 / 1e9)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));

    Ok(TraceOutcome {
        workload,
        seed,
        quick,
        attempted: m.queries + drive.checks.attempted,
        failed: failed_ops(m) + failures.len() as u64,
        failures,
        values: drive.values,
        span_file,
        self_time: by_name,
    })
}

impl TraceOutcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable block `bench trace` prints.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{}  seed {}  traced run{}\n",
            self.workload.name(),
            self.seed,
            if self.quick {
                "  (--quick: not for numbers)"
            } else {
                ""
            },
        );
        for (name, value) in self.values.iter() {
            let unit = crate::metrics::per_layer(name).map_or("", |m| m.unit);
            out.push_str(&format!("  {name:<34}{value:>18.6} {unit}\n"));
        }
        if let (Some(uplink), Some(blocking)) = (
            self.values.get("sim.exec_s"),
            self.values.get("sim.exec_blocking_ref_s"),
        ) {
            out.push_str(&format!(
                "  reference: the same scenario on the blocking one-shard path spends {blocking:.3} s in exec; this workload spends {uplink:.3} s ({:.1}x of {blocking:.3} s)\n",
                uplink / blocking
            ));
        }
        out.push_str("  self time by span name (s):");
        for (name, secs) in self.self_time.iter().take(12) {
            out.push_str(&format!(" {name}={secs:.3}"));
        }
        out.push('\n');
        out.push_str(&format!(
            "  checks: attempted {} failed {}; spans in {}\n",
            self.attempted,
            self.failed,
            self.span_file.display()
        ));
        for f in &self.failures {
            out.push_str(&format!("  CHECK FAILED: {f}\n"));
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("quick", Json::Bool(self.quick)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(self.values.iter().map(|(name, value)| {
                    let unit = crate::metrics::per_layer(name).map_or("", |m| m.unit);
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
            ("span_file", Json::str(self.span_file.display().to_string())),
        ])
    }
}
