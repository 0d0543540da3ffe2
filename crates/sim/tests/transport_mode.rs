//! Overlapped-transport determinism: with `SimConfig::transport`
//! configured, residual completions arrive out of order across interval
//! boundaries — yet recorded [`Metrics`] must stay a pure function of the
//! seed and the plan order. Request ids are a global sequence, lane
//! assignment hashes the id (never the shard), and the keyed fault/service
//! draws depend only on `(seed, id, attempt)` — so worker-thread count and
//! shard layout must not move a single bit.

use senn_sim::metrics::Metrics;
use senn_sim::{FaultConfig, ParamSet, SimConfig, SimParams, Simulator, TransportPolicy};

fn tiny_params() -> SimParams {
    let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
    params.t_execution_hours = 0.05; // 3 simulated minutes
    params
}

/// The same world under a hotspot arrival spike: ~100 queries per
/// interval.
fn burst_params() -> SimParams {
    let mut params = tiny_params();
    params.lambda_query_per_min = 600.0;
    params
}

fn run(cfg: SimConfig) -> Metrics {
    let mut sim = Simulator::new(cfg);
    sim.run()
}

/// The default policy with a fixed per-lane window of `window`.
fn fixed(window: usize) -> TransportPolicy {
    TransportPolicy {
        window,
        ..TransportPolicy::default()
    }
}

/// One pinned row of a transport run: the attribution split (queries,
/// single, multi, server, uncertain), the ladder's failed, degraded,
/// shed and retry counts, then the transport's shed, completed, queue
/// and in-flight peaks and the p50 / p99 latency bits.
fn pinned_row(sim: &mut Simulator) -> [u64; 15] {
    let m = sim.run();
    let s = sim.transport_stats().expect("overlapped mode");
    [
        m.queries,
        m.single_peer,
        m.multi_peer,
        m.server,
        m.accepted_uncertain,
        m.server_failed,
        m.server_degraded,
        m.server_shed,
        m.server_retries,
        s.shed,
        s.completed,
        s.queue_depth_peak,
        s.in_flight_peak,
        s.p50_latency_ms().to_bits(),
        s.p99_latency_ms().to_bits(),
    ]
}

/// Latency bucket edges, as the bits `pinned_row` records.
const MS_4: u64 = 0x4010_0000_0000_0000;
const MS_8: u64 = 0x4020_0000_0000_0000;
const MS_32: u64 = 0x4040_0000_0000_0000;
const MS_128: u64 = 0x4060_0000_0000_0000;

/// Bit-identical metrics across 1/2 worker threads × 1/3 shards, with the
/// default transport policy — fault-free and under the lossy fault
/// config. The transport's event schedule (and therefore every deferred
/// completion's interval) must be invariant to both knobs.
#[test]
fn overlapped_metrics_are_bit_identical_across_threads_and_shards() {
    for fault in [None, Some(FaultConfig::lossy(5))] {
        let mut reference: Option<Metrics> = None;
        for threads in [1usize, 2] {
            for shards in [1usize, 3] {
                let mut b = SimConfig::new(tiny_params(), 99)
                    .to_builder()
                    .threads(threads)
                    .server_shards(shards)
                    .transport(TransportPolicy::default());
                if let Some(f) = fault {
                    b = b.fault(f);
                }
                let m = run(b.build());
                assert!(m.queries > 0);
                match &reference {
                    None => reference = Some(m),
                    Some(r) => assert_eq!(
                        &m,
                        r,
                        "metrics diverged at threads={threads} shards={shards} \
                         fault={:?}",
                        fault.is_some()
                    ),
                }
            }
        }
    }
}

/// A starved transport (one-deep window and queue per lane) sheds part of
/// every residual burst. Shed ladders are terminal: the query stays
/// attributed (as server-bound/unresolved), the shed count flows into
/// `Metrics::server_shed`, and the run still balances its books. The
/// whole row is pinned at the values the run had when the window was a
/// clamped AIMD band.
#[test]
fn tiny_queues_shed_under_burst_arrivals_and_stay_attributed() {
    let cfg = SimConfig::new(burst_params(), 7)
        .to_builder()
        .transport(TransportPolicy {
            queue_cap: 1,
            ..fixed(1)
        })
        .build();
    let mut sim = Simulator::new(cfg);
    let row = pinned_row(&mut sim);
    let m = sim.metrics();
    assert!(
        m.server_shed > 0,
        "one-deep lanes must shed under burst arrivals"
    );
    assert_eq!(
        m.queries,
        m.single_peer + m.multi_peer + m.server + m.accepted_uncertain,
        "shed queries are still attributed exactly once"
    );
    // A shed ladder never retried and never produced an answer.
    assert!(m.server_failed >= m.server_shed);
    // Transport counters span the whole run; `Metrics` reset at warm-up.
    assert!(sim.batch_stats().shed_count >= m.server_shed);
    let stats = sim.transport_stats().expect("overlapped mode");
    assert!(stats.shed >= m.server_shed);
    assert!(stats.queue_depth_peak <= 4, "queues are one-deep per lane");
    let want = [
        1561, 1148, 7, 406, 0, 327, 0, 327, 0, 521, 95, 4, 4, MS_8, MS_32,
    ];
    assert_eq!(row, want);
    assert_eq!(sim.batch_stats().shed_count, 521);
}

/// Fixed-window golden pins: three seeds under the lossy fault config
/// with a window of 4 per lane, pinned down to the attribution split,
/// the ladder counters and the transport's peaks and latency quantiles.
/// The values are those the same runs had when the window was a clamped
/// AIMD band, so timeouts once reached the (inert) shrink step and every
/// retry once paid the (bottomless) budget. Any change to the lane
/// dequeue order or the keyed draw discipline moves at least one of
/// them. The same pins hold at one and two threads over one and four
/// shards — where every residual is one `ShardedService::serve` — with
/// `Metrics` and the per-shard accounting bit-identical between the two
/// thread budgets.
///
/// Seeds 41 and 2006 were re-pinned once, when a deferred answer began
/// to be cached at the point its query was issued from rather than where
/// the querier stood when the reply landed (41: single 14 → 12, server
/// 51 → 53; 2006: single 23 → 22, multi 0 → 1). Entries anchored at the
/// later point had been certifying answers for a place they were not
/// computed for.
#[test]
fn fixed_window_goldens_are_pinned_for_three_seeds() {
    let goldens: [(u64, [u64; 15]); 3] = [
        (
            3,
            [55, 15, 0, 40, 0, 0, 0, 0, 2, 0, 45, 3, 8, MS_32, MS_128],
        ),
        (
            41,
            [65, 12, 0, 53, 0, 0, 0, 0, 1, 0, 57, 3, 14, MS_32, MS_128],
        ),
        (
            2006,
            [68, 22, 1, 45, 0, 0, 0, 0, 3, 0, 66, 8, 11, MS_32, MS_128],
        ),
    ];
    for (seed, want) in goldens {
        let mut sharded = Vec::new();
        for threads in [1usize, 2] {
            for shards in [1usize, 4] {
                let cfg = SimConfig::new(tiny_params(), seed)
                    .to_builder()
                    .threads(threads)
                    .server_shards(shards)
                    .fault(FaultConfig::lossy(5))
                    .transport(fixed(4))
                    .build();
                let mut sim = Simulator::new(cfg);
                let got = pinned_row(&mut sim);
                let layout = format!("seed {seed} threads {threads} shards {shards}");
                assert_eq!(got, want, "fixed-window golden moved at {layout}");
                if let Some(service) = sim.service_metrics() {
                    let per_shard: Vec<[u64; 3]> = service
                        .shards
                        .iter()
                        .map(|s| [s.requests, s.node_accesses, s.skipped])
                        .collect();
                    sharded.push((sim.metrics().clone(), per_shard));
                }
            }
        }
        assert_eq!(sharded.len(), 2);
        assert_eq!(sharded[0], sharded[1], "seed {seed}: threads moved the run");
    }
}

/// The default policy — a fixed window of 32 per lane — pinned at seed
/// 99 under the lossy fault config: the attribution split, the ladder
/// counters and the transport's peak fields.
#[test]
fn default_policy_run_is_pinned() {
    let cfg = SimConfig::new(tiny_params(), 99)
        .to_builder()
        .fault(FaultConfig::lossy(5))
        .transport(TransportPolicy::default())
        .build();
    let mut sim = Simulator::new(cfg);
    let m = sim.run();
    let s = sim.transport_stats().expect("overlapped mode");
    // queries, single, multi, server, uncertain
    let split = [
        m.queries,
        m.single_peer,
        m.multi_peer,
        m.server,
        m.accepted_uncertain,
    ];
    assert_eq!(split, [59, 12, 0, 47, 0]);
    // retries, timeouts, drops, shed, denied, degraded, failed
    let ladder = [
        m.server_retries,
        m.server_timeouts,
        m.server_drops,
        m.server_shed,
        m.server_retries_denied,
        m.server_degraded,
        m.server_failed,
    ];
    assert_eq!(ladder, [1, 0, 1, 0, 0, 0, 0]);
    // queue and in-flight peaks
    assert_eq!([s.queue_depth_peak, s.in_flight_peak], [1, 19]);
}

/// A burst through two-deep queues and a window of 4 per lane sheds, and
/// the whole row is pinned and bit-identical across 1/2 worker threads ×
/// 1/4 shards: every transport decision keys off the virtual clock and
/// the request id, never off thread or shard structure. The values are
/// those the run had when the window was a clamped AIMD band.
#[test]
fn fixed_window_burst_is_pinned_across_threads_and_shards() {
    let want = [
        1577, 1380, 5, 192, 0, 88, 0, 88, 0, 207, 152, 8, 16, MS_4, MS_32,
    ];
    let mut reference: Option<Metrics> = None;
    for threads in [1usize, 2] {
        for shards in [1usize, 4] {
            let cfg = SimConfig::new(burst_params(), 7)
                .to_builder()
                .threads(threads)
                .server_shards(shards)
                .transport(TransportPolicy {
                    queue_cap: 2,
                    ..fixed(4)
                })
                .build();
            let mut sim = Simulator::new(cfg);
            let got = pinned_row(&mut sim);
            assert_eq!(
                got, want,
                "burst moved at threads={threads} shards={shards}"
            );
            let m = sim.metrics().clone();
            match &reference {
                None => reference = Some(m),
                Some(r) => assert_eq!(
                    &m, r,
                    "metrics diverged at threads={threads} shards={shards}"
                ),
            }
        }
    }
}

/// The settled client (`transport: None`) reports no transport activity:
/// its metrics are pinned by the seed-determinism and golden tests
/// elsewhere, and its transport observability stays empty.
#[test]
fn blocking_mode_reports_no_transport_activity() {
    let cfg = SimConfig::new(tiny_params(), 11).to_builder().build();
    let mut sim = Simulator::new(cfg);
    let m = sim.run();
    assert!(m.queries > 0);
    assert_eq!(m.server_shed, 0);
    assert!(sim.transport_stats().is_none());
    assert_eq!(sim.batch_stats().shed_count, 0);
    assert_eq!(sim.batch_stats().in_flight_peak, 0);
}
