//! The four workloads. Each is one `SimConfig`, a pure function of the
//! seed; the seed reaches the program only as `SimConfig::seed`.
//!
//! Simulated durations are sized to the benchmark's run-time cap (about
//! 30 s per invocation, several repetitions inside it), not to taste: see
//! the README for the measured cost of each.

use senn_sim::{MovementMode, NetworkModelKind, ParamSet, SimConfig, SimParams, TransportPolicy};

/// Default workload seed; `20060403` is held out for later claims.
pub const DEFAULT_SEED: u64 = 20_060_402;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CountyRoad,
    MillionFree,
    RuralUplink,
    DowntownSnnn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CountyRoad,
        Workload::MillionFree,
        Workload::RuralUplink,
        Workload::DowntownSnnn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CountyRoad => "county_road",
            Workload::MillionFree => "million_free",
            Workload::RuralUplink => "rural_uplink",
            Workload::DowntownSnnn => "downtown_snnn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CountyRoad => {
                "LA county road scenario, dense peers: grid reads, cache, core verification and geom coverage carry exec; road mobility carries the rest; server idle"
            }
            Workload::MillionFree => {
                "1M free-moving hosts, few queries: movement and grid writes are >95% of wall, query pipeline <2%; mirror image of county_road's grid use; the memory workload"
            }
            Workload::RuralUplink => {
                "Riverside county, sparse peers, overlapped transport over 4 shards: the server path (transport, sharded service, rtree EINN) carries the run"
            }
            Workload::DowntownSnnn => {
                "Downtown LA under the CH road metric (Algorithm 2): network oracles and SNNN expansion do the work; the only workload with a real set-up cost (CH build)"
            }
        }
    }

    /// The configuration. `quick` divides the simulated duration by ten;
    /// it is for smoke tests and never for numbers.
    pub fn config(self, seed: u64, quick: bool) -> SimConfig {
        let la = SimParams::thirty_by_thirty(ParamSet::LosAngeles);
        let hours = |h: f64| if quick { h / 10.0 } else { h };
        let cfg = match self {
            Workload::CountyRoad => {
                // Table 4's headline scenario at a quarter of the county:
                // 30 375 hosts on 15x15 mi, about 6.3e4 measured queries.
                let mut p = la.scaled_down(4.0);
                p.t_execution_hours = hours(0.65);
                SimConfig::new(p, seed)
            }
            Workload::MillionFree => {
                // perf_gate's scale shape: Table 4 LA densities at a
                // million hosts, a one-second tick, no warm-up.
                let hosts = 1_000_000usize;
                let factor = hosts as f64 / la.mh_number as f64;
                let mut p = la;
                p.area_miles = la.area_miles * factor.sqrt();
                p.mh_number = hosts;
                p.poi_number = ((la.poi_number as f64 * factor).round() as usize).max(1);
                p.lambda_query_per_min = 600.0;
                p.t_execution_hours = hours(60.0 / 3600.0);
                let mut cfg = SimConfig::new(p, seed);
                cfg.mode = MovementMode::FreeMovement;
                cfg.warmup_frac = 0.0;
                cfg.mean_interval_secs = 1.0;
                cfg
            }
            Workload::RuralUplink => {
                // Queues unbounded and faults off, so that any failed, shed
                // or degraded request is a real failure, not a scenario
                // property.
                let mut p = SimParams::thirty_by_thirty(ParamSet::Riverside);
                p.t_execution_hours = hours(0.5);
                SimConfig::new(p, seed)
                    .to_builder()
                    .server_shards(4)
                    .transport(TransportPolicy {
                        queue_cap: 1 << 20,
                        shed: false,
                        ..Default::default()
                    })
                    .build()
            }
            Workload::DowntownSnnn => {
                let mut p = la.scaled_down(50.0);
                p.t_execution_hours = hours(1.5);
                SimConfig::new(p, seed)
                    .to_builder()
                    .distance_model(NetworkModelKind::Ch)
                    .build()
            }
        };
        // One thread of load on every workload: at two threads the same run
        // spreads twice as far from repetition to repetition on a shared
        // two-core box. The parallel path is a layer metric instead.
        cfg.to_builder().threads(1).build()
    }

    /// `rural_uplink`'s scenario on the blocking one-shard path: a
    /// reference line for the traced run, not a workload.
    pub fn blocking_reference(self, seed: u64, quick: bool) -> Option<SimConfig> {
        let cfg = self.config(seed, quick);
        cfg.transport.map(|_| {
            let mut plain = SimConfig::new(cfg.params, seed);
            plain.threads = Some(1);
            plain
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_valid_and_single_threaded() {
        for w in Workload::ALL {
            for quick in [false, true] {
                let cfg = w.config(DEFAULT_SEED, quick);
                assert_eq!(cfg.validate(), Ok(()), "{}", w.name());
                assert_eq!(cfg.threads, Some(1));
                assert_eq!(cfg.seed, DEFAULT_SEED);
            }
            let full = w.config(1, false).params.t_execution_hours;
            let quick = w.config(1, true).params.t_execution_hours;
            assert!((full / quick - 10.0).abs() < 1e-9);
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("all"), None);
        assert!(Workload::RuralUplink.blocking_reference(1, true).is_some());
        assert!(Workload::CountyRoad.blocking_reference(1, true).is_none());
    }
}
