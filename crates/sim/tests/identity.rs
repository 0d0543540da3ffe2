//! The identity gate: [`Simulator::digest`] of small road-mode worlds
//! shaped like the repository benchmark's `county_road`, `rural_uplink`
//! and `downtown_snnn` workloads, at both benchmark seeds, pinned. A change
//! that claims to leave every simulated number alone must leave these
//! alone; one that moves them must say why, and re-pin.
//!
//! Run with `--nocapture` to print the digests instead of checking them.

use senn_sim::{NetworkModelKind, ParamSet, SimConfig, SimParams, Simulator, TransportPolicy};

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

/// Digests computed before free movers moved to closed-form legs, a
/// change these worlds (which run no free mover) must not see.
const PINNED: [[(&str, u64); 3]; 2] = [
    [
        ("county", 0x93ac_89b6_da06_1df8),
        ("rural", 0x2554_f837_f9d2_6c1c),
        ("downtown", 0xc41d_3f3e_b5db_590a),
    ],
    [
        ("county", 0xc2a5_4e82_e7a0_f218),
        ("rural", 0xe557_dd9b_6bcb_ddb6),
        ("downtown", 0x3ff7_b874_fa9e_f12a),
    ],
];

#[test]
fn road_world_digests_are_pinned() {
    for (seed, pinned) in SEEDS.into_iter().zip(PINNED) {
        for ((name, cfg), (pinned_name, digest)) in worlds(seed).into_iter().zip(pinned) {
            assert_eq!(name, pinned_name);
            let mut sim = Simulator::new(cfg);
            let metrics = sim.run();
            assert!(metrics.queries > 100, "{name}: {} queries", metrics.queries);
            println!(
                "seed {seed} {name}: {:#018x} ({} queries)",
                sim.digest(),
                metrics.queries
            );
            assert_eq!(sim.digest(), digest, "seed {seed} {name}");
        }
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
