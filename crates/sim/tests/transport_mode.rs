//! Overlapped-transport determinism: with `SimConfig::transport`
//! configured, residual completions arrive out of order across interval
//! boundaries — yet recorded [`Metrics`] must stay a pure function of the
//! seed and the plan order. Request ids are a global sequence, lane
//! assignment hashes the id (never the shard), and the keyed fault/service
//! draws depend only on `(seed, id, attempt)` — so worker-thread count and
//! shard layout must not move a single bit.

use senn_sim::metrics::Metrics;
use senn_sim::{
    AdaptivePolicy, FaultConfig, ParamSet, SimConfig, SimParams, Simulator, TransportPolicy,
};

fn tiny_params() -> SimParams {
    let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
    params.t_execution_hours = 0.05; // 3 simulated minutes
    params
}

fn run(cfg: SimConfig) -> Metrics {
    let mut sim = Simulator::new(cfg);
    sim.run()
}

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
/// `Metrics::server_shed`, and the run still balances its books.
#[test]
fn tiny_queues_shed_under_burst_arrivals_and_stay_attributed() {
    // A hotspot arrival spike: ~100 queries per interval burst into
    // one-deep lanes.
    let mut params = tiny_params();
    params.lambda_query_per_min = 600.0;
    let cfg = SimConfig::new(params, 7)
        .to_builder()
        .transport(TransportPolicy {
            queue_cap: 1,
            control: AdaptivePolicy::clamped(1),
            ..TransportPolicy::default()
        })
        .build();
    let mut sim = Simulator::new(cfg);
    let m = sim.run();
    assert!(m.queries > 0);
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
}

/// Adaptive golden pins: three seeds under the lossy fault config, with
/// the default AIMD band, pinned down to the attribution split, the
/// ladder counters and the whole window trajectory summary. Any change
/// to the controller's arithmetic, the lane dequeue order or the keyed
/// draw discipline moves at least one of these numbers. The same pins
/// hold over four shards at one and two threads — where every residual
/// is a one-request `ShardedService::submit` under the simulator's thread
/// budget — with `Metrics`, the transport fields of `BatchStats` and the
/// per-shard accounting bit-identical between the two budgets.
///
/// Seeds 41 and 2006 were re-pinned once, when a deferred answer began
/// to be cached at the point its query was issued from rather than where
/// the querier stood when the reply landed (41: single 14 → 12, server
/// 51 → 53; 2006: single 23 → 22, multi 0 → 1). Entries anchored at the
/// later point had been certifying answers for a place they were not
/// computed for.
#[test]
fn adaptive_goldens_are_pinned_for_three_seeds() {
    // (seed, queries, single, multi, server, uncertain, shed, retries,
    //  denied, window_min, window_max, window_final, grows, shrinks)
    let goldens: [(u64, [u64; 13]); 3] = [
        (3, [55, 15, 0, 40, 0, 0, 2, 0, 4, 18, 59, 43, 0]),
        (41, [65, 12, 0, 53, 0, 0, 1, 0, 4, 22, 72, 56, 0]),
        (2006, [68, 22, 1, 45, 0, 0, 3, 0, 4, 24, 79, 63, 0]),
    ];
    for (seed, want) in goldens {
        let mut sharded = Vec::new();
        for (shards, threads) in [(1, None), (4, Some(1)), (4, Some(2))] {
            let mut b = SimConfig::new(tiny_params(), seed)
                .to_builder()
                .server_shards(shards)
                .fault(FaultConfig::lossy(5))
                .transport(TransportPolicy {
                    control: AdaptivePolicy::default(),
                    ..TransportPolicy::default()
                });
            if let Some(threads) = threads {
                b = b.threads(threads);
            }
            let mut sim = Simulator::new(b.build());
            let m = sim.run();
            let s = sim.transport_stats().expect("overlapped mode");
            let got = [
                m.queries,
                m.single_peer,
                m.multi_peer,
                m.server,
                m.accepted_uncertain,
                m.server_shed,
                m.server_retries,
                m.server_retries_denied,
                s.window_min,
                s.window_max,
                s.window_final,
                s.window_grows,
                s.window_shrinks,
            ];
            let layout = format!("seed {seed} shards {shards} threads {threads:?}");
            assert_eq!(got, want, "adaptive golden moved at {layout}");
            if let Some(service) = sim.service_metrics() {
                let b = sim.batch_stats();
                let transport = [
                    b.queue_depth_peak,
                    b.in_flight_peak,
                    b.shed_count,
                    b.latency_p50_ms.to_bits(),
                    b.latency_p99_ms.to_bits(),
                    b.window_min,
                    b.window_max,
                    b.window_final,
                    b.retries_denied,
                ];
                let per_shard: Vec<[u64; 3]> = service
                    .shards
                    .iter()
                    .map(|s| [s.requests, s.node_accesses, s.skipped])
                    .collect();
                sharded.push((m, transport, per_shard));
            }
        }
        assert_eq!(sharded.len(), 2);
        assert_eq!(sharded[0], sharded[1], "seed {seed}: threads moved the run");
    }
}

/// The default policy — a fixed window of 32 per lane — pinned at seed
/// 99 under the lossy fault config: the attribution split, the ladder
/// counters and the transport's window and peak fields. The values are
/// those of the static window that `AdaptivePolicy::clamped(32)`
/// replaced, so the controller stays inert at a fixed window and its
/// budget never denies.
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
    // retries, timeouts, drops, shed, denied, degraded, failed, and the
    // run-wide denials of `BatchStats`
    let ladder = [
        m.server_retries,
        m.server_timeouts,
        m.server_drops,
        m.server_shed,
        m.server_retries_denied,
        m.server_degraded,
        m.server_failed,
        sim.batch_stats().retries_denied,
    ];
    assert_eq!(ladder, [1, 0, 1, 0, 0, 0, 0, 0]);
    // window min / max / final, grows, shrinks, queue and in-flight peaks
    let transport = [
        s.window_min,
        s.window_max,
        s.window_final,
        s.window_grows,
        s.window_shrinks,
        s.queue_depth_peak,
        s.in_flight_peak,
    ];
    assert_eq!(transport, [32, 32, 128, 0, 0, 1, 19]);
}

/// The adaptive controller keeps the layout-invariance contract under
/// burst arrivals: metrics, the AIMD window trajectory summary and the
/// shed/denial counters are bit-identical across 1/2 worker threads ×
/// 1/3 shards. Every controller decision keys off the virtual clock and
/// the request id — never off thread or shard structure.
#[test]
fn adaptive_windows_are_bit_identical_across_threads_and_shards() {
    let mut params = tiny_params();
    params.lambda_query_per_min = 600.0;
    let mut reference: Option<(Metrics, senn_core::transport::TransportStats)> = None;
    for threads in [1usize, 2] {
        for shards in [1usize, 3] {
            let cfg = SimConfig::new(params, 7)
                .to_builder()
                .threads(threads)
                .server_shards(shards)
                .transport(TransportPolicy {
                    queue_cap: 2,
                    control: AdaptivePolicy::default(),
                    ..TransportPolicy::default()
                })
                .build();
            let mut sim = Simulator::new(cfg);
            let m = sim.run();
            let s = sim.transport_stats().expect("overlapped mode").clone();
            // The run must actually exercise the controller: sheds shrink
            // the window, healthy completions grow it back to the cap.
            assert!(m.server_shed > 0, "burst must shed through 2-deep queues");
            assert!(s.window_shrinks > 0 && s.window_grows > 0);
            match &reference {
                None => reference = Some((m, s)),
                Some((rm, rs)) => {
                    assert_eq!(
                        &m, rm,
                        "metrics diverged at threads={threads} shards={shards}"
                    );
                    assert_eq!(
                        &s, rs,
                        "windows diverged at threads={threads} shards={shards}"
                    );
                }
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
