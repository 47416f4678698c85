//! Bench target for the **switched N-node topologies**: star fan-in,
//! switch-chain depth, and dumbbell fairness.
//!
//! Criterion times the harness (wall clock of the discrete-event run); the
//! *measured artifacts* — aggregate Mbit/s through the shared bottleneck,
//! per-hop chain throughput, Jain's fairness index — are printed once per
//! case and serialized to `BENCH_topology.json` via
//! [`capnet_bench::BenchReport`], the repo's machine-readable perf
//! trajectory (uploaded per-PR by CI's bench-smoke job).

use capnet::netsim::NetSim;
use capnet::scenario::fairness_index;
use capnet::topology::build_chain;
use capnet::{ScenarioSpec, SimOutcome};
use capnet_bench::BenchReport;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simkern::{CostModel, SimDuration};

const SEED: u64 = 0x70B0;
const RUN: SimDuration = SimDuration::from_millis(25);

fn run_chain(hops: usize) -> SimOutcome {
    let mut sim = NetSim::new(CostModel::morello());
    sim.set_seed(SEED);
    let chain = build_chain(&mut sim, hops).expect("chain builds");
    sim.add_server(chain.b, "b-rx", 5501).expect("server");
    sim.add_client(chain.a, "a-tx", (chain.b_ip, 5501), RUN, SimDuration::ZERO)
        .expect("client");
    sim.run(RUN + SimDuration::from_millis(30)).expect("runs")
}

fn server_mbits(out: &SimOutcome) -> Vec<f64> {
    out.servers.iter().map(|r| r.mbit_per_sec()).collect()
}

/// The per-kind event counters every entry carries, so BENCH_*.json shows
/// *why* events/sec moved: loop polls vs deliveries vs park/wake traffic.
fn counter_metrics(out: &SimOutcome) -> [(&'static str, f64); 13] {
    let c = out.counters;
    let r = out.rounds;
    [
        ("ev_loop_polls", c.loop_polls as f64),
        ("ev_idle_polls", c.idle_polls as f64),
        ("ev_deliveries", c.deliveries as f64),
        ("ev_switch_hops", c.switch_hops as f64),
        ("ev_timer_wakes", c.timer_wakes as f64),
        ("ev_stale_wakes", c.stale_wakes as f64),
        ("ev_parks", c.parks as f64),
        ("ev_wakes", c.wakes as f64),
        // loop_polls + deliveries + switch_hops + stale_wakes == events
        // (the partition tests/event_engine.rs asserts). `ev_boxed` always
        // reads 0: the engine has no boxed-event path. The column stays
        // for the committed baselines and goes with the field.
        ("ev_boxed", c.boxed_events as f64),
        // Sharded-run rendezvous accounting (all zero for single-engine
        // runs): rounds driven, rounds with no cross-shard exchange,
        // frames crossing shards and the bytes copied for them (always 0:
        // the shards share one thread and its buffer pool).
        ("ev_rounds", r.rounds as f64),
        ("ev_empty_rounds", r.empty_rounds as f64),
        ("ev_xshard_frames", r.xshard_frames as f64),
        ("ev_rehome_bytes", r.rehome_bytes as f64),
    ]
}

fn bench_many_nodes(c: &mut Criterion) {
    let mut report = BenchReport::new("many_nodes");
    let mut group = c.benchmark_group("many_nodes");
    group.sample_size(10);

    // Star fan-in: N clients share the hub's one switch port. The 32-client
    // case is new with the quiescence-aware engine — the poll-every-tick
    // scheduler made 33 nodes too slow to bench.
    for clients in [2usize, 4, 8, 32] {
        let spec = ScenarioSpec::star(clients).duration(RUN).seed(SEED);
        let t0 = std::time::Instant::now();
        let out = spec.clone().run().expect("star runs");
        let wall = t0.elapsed();
        // The sharded-run determinism gate: the same star at workers=2
        // must land on the byte-identical delivery-trace digest. Adaptive
        // selection is forced off so the rerun genuinely shards (these
        // stars are all small enough to collapse otherwise, which would
        // make the gate vacuous). A mismatch aborts the bench, which
        // fails CI's bench-smoke job.
        let sharded = spec
            .clone()
            .workers(2)
            .adaptive_workers(false)
            .run()
            .expect("sharded star runs");
        assert_eq!(
            out.trace, sharded.trace,
            "star/{clients}: workers=2 digest diverged from workers=1 — sharded determinism broke"
        );
        assert_eq!(
            sharded.workers, 2,
            "star/{clients}: rerun must stay sharded"
        );
        let flows = server_mbits(&out);
        let aggregate: f64 = flows.iter().sum();
        let jain = fairness_index(&flows);
        eprintln!(
            "[many_nodes] star/{clients} clients: {aggregate:.0} Mbit/s aggregate, Jain {jain:.3}"
        );
        let mut metrics = vec![
            ("aggregate_mbit_per_sec", aggregate),
            ("fairness_jain", jain),
            ("flows", clients as f64),
            ("switch_forwarded", out.switch_stats[0].forwarded as f64),
            ("switch_dropped", out.switch_stats[0].dropped as f64),
            ("trace_frames", out.trace.frames as f64),
            // 1.0 = the workers=2 rerun reproduced the digest (asserted
            // above; recorded so the JSON is self-documenting).
            ("workers2_digest_match", 1.0),
        ];
        metrics.extend(counter_metrics(&out));
        report.record_timed(
            "star",
            &format!("clients={clients}"),
            wall,
            out.events,
            out.horizon.as_nanos() as f64 / 1e9,
            &metrics,
        );
        group.bench_with_input(BenchmarkId::new("star", clients), &spec, |b, spec| {
            b.iter(|| spec.clone().run().expect("star"))
        });
    }

    // Chain depth: one flow across K store-and-forward hops.
    for hops in [1usize, 2, 4] {
        let t0 = std::time::Instant::now();
        let out = run_chain(hops);
        let wall = t0.elapsed();
        let mbit = out.servers[0].mbit_per_sec();
        eprintln!("[many_nodes] chain/{hops} hops: {mbit:.0} Mbit/s");
        let mut metrics = vec![
            ("mbit_per_sec", mbit),
            ("hops", hops as f64),
            ("trace_frames", out.trace.frames as f64),
        ];
        metrics.extend(counter_metrics(&out));
        report.record_timed(
            "chain",
            &format!("hops={hops}"),
            wall,
            out.events,
            out.horizon.as_nanos() as f64 / 1e9,
            &metrics,
        );
        group.bench_with_input(BenchmarkId::new("chain", hops), &hops, |b, &hops| {
            b.iter(|| run_chain(hops))
        });
    }

    // Dumbbell: pairs contending for one trunk.
    for pairs in [2usize, 4] {
        let spec = ScenarioSpec::dumbbell(pairs).duration(RUN).seed(SEED);
        let t0 = std::time::Instant::now();
        let out = spec.clone().run().expect("dumbbell runs");
        let wall = t0.elapsed();
        let flows = server_mbits(&out);
        let aggregate: f64 = flows.iter().sum();
        let jain = fairness_index(&flows);
        eprintln!(
            "[many_nodes] dumbbell/{pairs} pairs: {aggregate:.0} Mbit/s aggregate, Jain {jain:.3}"
        );
        let mut metrics = vec![
            ("aggregate_mbit_per_sec", aggregate),
            ("fairness_jain", jain),
            ("flows", pairs as f64),
        ];
        metrics.extend(counter_metrics(&out));
        report.record_timed(
            "dumbbell",
            &format!("pairs={pairs}"),
            wall,
            out.events,
            out.horizon.as_nanos() as f64 / 1e9,
            &metrics,
        );
        group.bench_with_input(BenchmarkId::new("dumbbell", pairs), &spec, |b, spec| {
            b.iter(|| spec.clone().run().expect("bell"))
        });
    }

    group.finish();
    let path = report.write().expect("BENCH_many_nodes.json written");
    eprintln!("[many_nodes] perf trajectory: {}", path.display());
}

criterion_group!(benches, bench_many_nodes);
criterion_main!(benches);
