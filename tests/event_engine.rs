//! Witnesses for the quiescence-aware typed event engine: every event is
//! an inline [`capnet::NetEvent`], idle loop polls collapse by orders of
//! magnitude versus the poll-every-tick baseline, and the per-kind event
//! counters account for the run.

use capnet::netsim::NetSim;
use capnet::scenario::ScenarioSpec;
use capnet::topology::build_chain;
use simkern::{CostModel, SimDuration};

/// A switched steady state rides the typed calendar: the engine has no
/// boxed-event path, so every event of a 4-leaf star run is an inline
/// [`capnet::NetEvent`], and the per-kind counters partition the
/// executed-event total through the switch as well.
#[test]
fn steady_state_run_schedules_zero_boxed_events() {
    let out = ScenarioSpec::star(4)
        .duration(SimDuration::from_millis(25))
        .seed(7)
        .run()
        .unwrap();
    assert!(out.trace.frames > 1_000, "the run produced real traffic");
    let c = out.counters;
    assert_eq!(
        c.loop_polls + c.deliveries + c.switch_hops + c.stale_wakes,
        out.events,
        "counter classes must partition the event total: {c:?}"
    );
}

/// Quiescence accounting on an idle-heavy run: a single flow through one
/// switch hop, with 30 ms of post-traffic drain. The poll-every-900ns
/// baseline executed ~2 polls per µs per node; with park/wake, idle polls
/// must be a rounding error against the old regime, and the counters must
/// add up to the engine's executed-event total.
#[test]
fn parking_collapses_idle_polls_and_counters_account_for_the_run() {
    let mut sim = NetSim::new(CostModel::morello());
    let chain = build_chain(&mut sim, 1).unwrap();
    sim.add_server(chain.b, "b-rx", 5501).unwrap();
    sim.add_client(
        chain.a,
        "a-tx",
        (chain.b_ip, 5501),
        SimDuration::from_millis(25),
        SimDuration::ZERO,
    )
    .unwrap();
    let out = sim.run(SimDuration::from_millis(55)).unwrap();
    let c = out.counters;

    // The old engine executed ~550k events for a run of this shape (every
    // node polling every 900 ns for 55 ms). Parking must cut idle polls by
    // far more than the 10× the acceptance bar asks for.
    let polled_baseline = 2 * 55_000_000 / 900; // 2 hosts, 55 ms, 900 ns
    assert!(
        c.idle_polls < polled_baseline / 10,
        "idle polls did not collapse: {} vs baseline {}",
        c.idle_polls,
        polled_baseline
    );
    assert!(c.parks > 1_000, "steady state parks between frames: {c:?}");
    assert!(c.wakes > 1_000, "deliveries wake parked loops: {c:?}");

    // Every executed event is accounted for by exactly one counter class.
    // An executed event is a LoopIter, a Wake, a Deliver or a SwitchHop;
    // honored wakes run a loop iteration (so they land in `loop_polls`),
    // stale wakes are counted separately — the four classes partition the
    // engine's executed-event total.
    let accounted = c.loop_polls + c.deliveries + c.switch_hops + c.stale_wakes;
    assert_eq!(
        accounted, out.events,
        "counter classes must partition the event total: {c:?}"
    );

    // And the run still does its job.
    let bw = out.servers[0].mbit_per_sec();
    assert!((bw - 941.0).abs() < 30.0, "line rate survived: {bw:.0}");
}
