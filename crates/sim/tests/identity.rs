//! The identity gate: [`Simulator::digest`] of small worlds shaped like
//! the repository benchmark's four workloads — road-mode `county_road`,
//! `rural_uplink` and `downtown_snnn`, and free-movement `million_free` —
//! at both benchmark seeds, pinned. The digest folds in every host's final
//! position, so a change to movement that is not bit-identical moves it.
//! A change that claims to leave every simulated number alone must leave
//! these alone; one that moves them must say why, and re-pin.
//!
//! Run with `--nocapture` to print the digests instead of checking them.

use senn_sim::{
    MovementMode, NetworkModelKind, ParamSet, SimConfig, SimParams, Simulator, TransportPolicy,
};

/// The benchmark's two seeds.
const SEEDS: [u64; 2] = [20_060_402, 20_060_403];

/// The three worlds, each a pure function of the seed: the workloads'
/// shapes at a size a debug test runs in a second or two.
fn worlds(seed: u64) -> [(&'static str, SimConfig); 3] {
    let la = SimParams::thirty_by_thirty(ParamSet::LosAngeles);
    // Table 4's LA densities on a small county: dense peers, road movers.
    let mut county = la.scaled_down(100.0);
    county.t_execution_hours = 0.3;
    // Riverside's sparse peers, behind the overlapped transport over four
    // shards, queues unbounded.
    let mut rural = SimParams::thirty_by_thirty(ParamSet::Riverside).scaled_down(25.0);
    rural.t_execution_hours = 0.3;
    // Downtown LA under the CH road metric.
    let mut downtown = la.scaled_down(200.0);
    downtown.t_execution_hours = 0.5;
    let one_thread = |cfg: SimConfig| cfg.to_builder().threads(1).build();
    [
        ("county", one_thread(SimConfig::new(county, seed))),
        (
            "rural",
            one_thread(
                SimConfig::new(rural, seed)
                    .to_builder()
                    .server_shards(4)
                    .transport(TransportPolicy {
                        queue_cap: 1 << 20,
                        shed: false,
                        ..Default::default()
                    })
                    .build(),
            ),
        ),
        (
            "downtown",
            one_thread(
                SimConfig::new(downtown, seed)
                    .to_builder()
                    .distance_model(NetworkModelKind::Ch)
                    .build(),
            ),
        ),
    ]
}

/// `million_free`'s shape a hundred times smaller: Table 4's LA densities
/// at 10 000 hosts, a one-second tick and no warm-up, with the workload's
/// query rate per square metre, so `M_Percentage · v · A / λ_Query` (the
/// scenario figure the grid's storage side is chosen from) is the
/// workload's.
fn free_world(seed: u64) -> SimConfig {
    let la = SimParams::thirty_by_thirty(ParamSet::LosAngeles);
    let hosts = 1_000_000usize;
    let factor = hosts as f64 / la.mh_number as f64;
    let mut million = la;
    million.area_miles = la.area_miles * factor.sqrt();
    million.mh_number = hosts;
    million.poi_number = (la.poi_number as f64 * factor).round() as usize;
    million.lambda_query_per_min = 600.0;
    let mut p = million.scaled_down(100.0);
    p.t_execution_hours = 0.35;
    let mut cfg = SimConfig::new(p, seed);
    cfg.mode = MovementMode::FreeMovement;
    cfg.warmup_frac = 0.0;
    cfg.mean_interval_secs = 1.0;
    cfg.to_builder().threads(1).build()
}

/// Runs `cfg`, prints its digest and checks it against `pinned`.
fn check_pinned(seed: u64, name: &str, cfg: SimConfig, pinned: u64) {
    let mut sim = Simulator::new(cfg);
    let metrics = sim.run();
    assert!(metrics.queries > 100, "{name}: {} queries", metrics.queries);
    println!(
        "seed {seed} {name}: {:#018x} ({} queries)",
        sim.digest(),
        metrics.queries
    );
    assert_eq!(sim.digest(), pinned, "seed {seed} {name}");
}

/// Road-world digests, pinned when the digest took in final positions.
const PINNED: [[(&str, u64); 3]; 2] = [
    [
        ("county", 0x1bf6_b294_f455_c844),
        ("rural", 0x12cd_8548_8999_cea1),
        ("downtown", 0xe49d_1bd4_1209_0b8b),
    ],
    [
        ("county", 0x23ef_937c_0968_b7c4),
        ("rural", 0x6a3d_c313_728c_a40a),
        ("downtown", 0xca9d_5ad9_521b_116e),
    ],
];

/// The free world's digest at each seed, pinned with the road worlds'.
const PINNED_FREE: [u64; 2] = [0x5f13_2875_b9d7_5cdc, 0x3796_87a3_3bac_04b8];

#[test]
fn road_world_digests_are_pinned() {
    for (seed, pinned) in SEEDS.into_iter().zip(PINNED) {
        for ((name, cfg), (pinned_name, digest)) in worlds(seed).into_iter().zip(pinned) {
            assert_eq!(name, pinned_name);
            check_pinned(seed, name, cfg, digest);
        }
    }
}

#[test]
fn free_world_digests_are_pinned() {
    for (seed, digest) in SEEDS.into_iter().zip(PINNED_FREE) {
        check_pinned(seed, "free", free_world(seed), digest);
    }
}

/// The digest reads what the run computed: a different seed moves it, the
/// same seed reproduces it, and it grows with the run.
#[test]
fn digest_follows_the_run() {
    let [(_, cfg), ..] = worlds(SEEDS[0]);
    let run = |cfg: SimConfig| {
        let mut sim = Simulator::new(cfg);
        let before = sim.digest();
        sim.run();
        assert_ne!(sim.digest(), before);
        sim.digest()
    };
    let mut other = cfg;
    other.seed = SEEDS[1];
    assert_eq!(run(cfg), run(cfg));
    assert_ne!(run(cfg), run(other));
}
