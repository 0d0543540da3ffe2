//! The metric tables: every name the benchmark prints, with its unit, its
//! direction, its bound (end-to-end) or the workloads it is emitted on
//! (per-layer). `BENCHMARK.json` is checked against these tables by a test.

use senn_sim::{MovementMode, NetworkModelKind, SimConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the simulator would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// the change counts as a regression.
    pub bound: f64,
    /// Absolute slack allowed on top of a small baseline; the larger of
    /// the two allowances applies.
    pub bound_abs: f64,
    /// Simulated quantities are exact per (workload, seed): a change meant
    /// only to speed the simulator up must not move them at all.
    pub simulated: bool,
}

/// The bounds are set from the spread measured on this shared two-core box
/// (see the README's noise table), not from what would be convenient: a
/// bound narrower than the run-to-run spread cannot be told from noise.
/// Host times drift by 10-20 % over minutes here, so they carry the widest
/// bound the contract admits; the simulated metrics are exact at a fixed
/// seed and are bounded by how far they differ from seed to seed.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        bound_abs: 0.05,
        simulated: false,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        bound_abs: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "run_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        bound_abs: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        bound_abs: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "host_steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        bound_abs: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        bound_abs: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "sqrr",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        bound_abs: 0.005,
        simulated: true,
    },
    EndToEnd {
        name: "pages_per_server_query",
        unit: "pages",
        better: Better::Lower,
        bound: 0.15,
        bound_abs: 0.0,
        simulated: true,
    },
    EndToEnd {
        name: "inn_pages_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.1,
        bound_abs: 0.0,
        simulated: true,
    },
    // Expected 0 everywhere, so it cannot be a ratio-bounded metric of
    // `BENCHMARK.json`: there it is the result line's `failed` / `attempted`.
    EndToEnd {
        name: "error_rate",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        bound_abs: 0.0,
        simulated: false,
    },
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The end-to-end metrics of `BENCHMARK.json` and of the result line.
pub fn contract_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.name != "error_rate")
}

/// Which workloads a per-layer metric is emitted on: where the program
/// exercises the layer. Where it bypasses the layer the metric is absent,
/// not zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum On {
    All,
    /// Random-waypoint movement.
    Free,
    /// Road-network movement. These are also the workloads on which peers
    /// in radio range hold caches often enough for multi-peer verification
    /// and `geom` to run: everything but the million-host desert.
    Road,
    /// Residuals served by the blocking single-tree backend.
    Plain,
    /// Residuals through the overlapped transport over shards.
    Uplink,
    /// A network distance model is configured (SNNN; here always CH).
    Snnn,
}

impl On {
    pub fn applies(self, cfg: &SimConfig) -> bool {
        let free = cfg.mode == MovementMode::FreeMovement;
        match self {
            On::All => true,
            On::Free => free,
            On::Road => !free,
            On::Plain => cfg.transport.is_none(),
            On::Uplink => cfg.transport.is_some(),
            On::Snnn => matches!(cfg.distance_model, Some(NetworkModelKind::Ch)),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub on: On,
}

const fn lm(name: &'static str, unit: &'static str, better: Better, on: On) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        on,
    }
}

use Better::{Higher, Lower};

/// Counts that must repeat exactly have no better direction; they are
/// listed as `lower` (less work for the same answer).
pub const PER_LAYER: [LayerMetric; 74] = [
    // sim: the program's own counters, read after one traced run.
    lm("sim.move_s", "s", Lower, On::All),
    lm("sim.exec_s", "s", Lower, On::All),
    lm("sim.stage_peer_probe_ms", "ms", Lower, On::All),
    lm("sim.stage_single_verify_ms", "ms", Lower, On::All),
    lm("sim.stage_multi_verify_ms", "ms", Lower, On::All),
    lm("sim.stage_server_residual_ms", "ms", Lower, On::All),
    lm("sim.exec_unstaged_s", "s", Lower, On::All),
    lm("sim.unattributed_s", "s", Lower, On::All),
    lm("sim.intervals", "count", Lower, On::All),
    lm("sim.queries", "count", Higher, On::All),
    lm("sim.peak_batch_ms", "ms", Lower, On::All),
    lm("sim.grid_cell_moves", "count", Lower, On::All),
    lm("sim.snnn_rounds", "count", Lower, On::Snnn),
    lm("sim.snnn_submissions", "count", Lower, On::Snnn),
    lm("sim.peer_resolved_ratio", "ratio", Higher, On::All),
    lm("sim.exec_t2_s", "s", Lower, On::All),
    lm("sim.exec_blocking_ref_s", "s", Lower, On::Uplink),
    // mobility: per host-step.
    lm("mobility.waypoint_step_ns", "ns", Lower, On::Free),
    lm("mobility.road_step_ns", "ns", Lower, On::Road),
    // sim::grid
    lm("grid.build_ms", "ms", Lower, On::All),
    lm("grid.apply_move_ns", "ns", Lower, On::All),
    lm("grid.cell_cross_ratio", "ratio", Lower, On::All),
    lm("grid.within_ns", "ns", Lower, On::All),
    lm("grid.peers_per_probe", "count", Higher, On::All),
    // cache
    lm("cache.store_ns", "ns", Lower, On::All),
    lm("cache.iter_ns", "ns", Lower, On::All),
    // core
    lm("core.peers_only_ns", "ns", Lower, On::All),
    lm("core.single_verify_ns", "ns", Lower, On::All),
    lm("core.multi_verify_ns", "ns", Lower, On::Road),
    lm("core.full_query_ns", "ns", Lower, On::All),
    lm("core.peer_resolved_ratio", "ratio", Higher, On::All),
    // geom
    lm("geom.region_build_ns", "ns", Lower, On::Road),
    lm("geom.covers_ns", "ns", Lower, On::Road),
    // rtree
    lm("rtree.bulk_load_ms", "ms", Lower, On::All),
    lm("rtree.inn_ns", "ns", Lower, On::All),
    lm("rtree.einn_ns", "ns", Lower, On::All),
    lm("rtree.pages_per_inn", "pages", Lower, On::All),
    lm("rtree.pages_per_einn", "pages", Lower, On::All),
    lm("rtree.relocate_ns", "ns", Lower, On::All),
    // server
    lm("server.rtree_submit_ns", "ns", Lower, On::Plain),
    lm("server.sharded_submit_b1_ns", "ns", Lower, On::Uplink),
    lm("server.sharded_submit_b256_ns", "ns", Lower, On::Uplink),
    lm("server.node_accesses", "count", Lower, On::Uplink),
    lm("server.shard_skipped_ratio", "ratio", Higher, On::Uplink),
    lm("server.shard_imbalance", "ratio", Lower, On::Uplink),
    // core::transport: host time per request, then simulated diagnostics.
    lm("transport.roundtrip_ns", "ns", Lower, On::Uplink),
    lm("transport.roundtrip_sharded_ns", "ns", Lower, On::Uplink),
    lm("transport.virt_latency_p50_ms", "ms", Lower, On::Uplink),
    lm("transport.virt_latency_p99_ms", "ms", Lower, On::Uplink),
    lm("transport.queue_depth_peak", "count", Lower, On::Uplink),
    lm("transport.in_flight_peak", "count", Lower, On::Uplink),
    lm("transport.retries", "count", Lower, On::Uplink),
    // network
    lm("network.generate_ms", "ms", Lower, On::All),
    lm("network.astar_ns", "ns", Lower, On::Road),
    lm("network.astar_settles_per_call", "count", Lower, On::Road),
    lm("network.ch_build_ms", "ms", Lower, On::Snnn),
    lm("network.ch_ns", "ns", Lower, On::Snnn),
    // core::snnn
    lm("snnn.query_ns", "ns", Lower, On::Snnn),
    lm("snnn.rounds_per_query", "count", Lower, On::Snnn),
    lm("snnn.evals_saved_ratio", "ratio", Higher, On::Snnn),
    // par
    lm("par.fanout_t1_ns", "ns", Lower, On::All),
    lm("par.fanout_t2_ns", "ns", Lower, On::All),
    // ledger: layer ns/op x the program's own op count for the run.
    lm("ledger.mobility_s", "s", Lower, On::All),
    lm("ledger.grid_write_s", "s", Lower, On::All),
    lm("ledger.grid_read_s", "s", Lower, On::All),
    lm("ledger.core_s", "s", Lower, On::All),
    lm("ledger.rtree_s", "s", Lower, On::All),
    lm("ledger.server_path_s", "s", Lower, On::All),
    lm("ledger.network_s", "s", Lower, On::All),
    lm("ledger.unattributed_frac", "ratio", Lower, On::All),
    // trace
    lm("trace.run_wall_s", "s", Lower, On::All),
    lm("trace.clock_ns", "ns", Lower, On::All),
    lm("trace.spans", "count", Lower, On::All),
    lm("trace.overhead_frac", "ratio", Lower, On::All),
];

pub fn per_layer(name: &str) -> Option<&'static LayerMetric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The per-layer metrics of `BENCHMARK.json` and of the traced result
/// line: the ones every workload emits.
pub fn contract_per_layer() -> impl Iterator<Item = &'static LayerMetric> {
    PER_LAYER.iter().filter(|m| m.on == On::All)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_name;
    use crate::workloads::Workload;
    use std::collections::HashSet;

    #[test]
    fn tables_fit_the_contract() {
        assert!(contract_end_to_end().count() <= 16);
        assert!(contract_per_layer().count() <= 128 && contract_per_layer().count() >= 1);
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for m in contract_end_to_end() {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_layer_is_exercised_by_some_workload() {
        for m in PER_LAYER {
            let on: Vec<&str> = Workload::ALL
                .into_iter()
                .filter(|w| m.on.applies(&w.config(1, true)))
                .map(Workload::name)
                .collect();
            assert!(!on.is_empty(), "{} is emitted nowhere", m.name);
            if m.on == On::All {
                assert_eq!(on.len(), 4);
            }
        }
    }
}
