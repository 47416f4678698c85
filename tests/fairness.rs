//! Integration: contended-flow fairness in Scenario 2 (Table II, bottom).
//!
//! The paper's contended client rows are unbalanced — 531 vs 410 Mbit/s —
//! attributed to "the lack of mechanisms for fairness control"; the server
//! rows stay even (470/470). With [`AppSched::paper_barging`] this repo
//! reproduces the imbalance (a mutex-convoy starvation model); with the
//! default round-robin scheduling — the fairness fix the paper defers to
//! future work — the split comes out even. Both worlds keep the aggregate
//! at the port ceiling, the paper's headline claim.

use capnet::netsim::AppSched;
use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use simkern::SimDuration;

const RUN: SimDuration = SimDuration::from_millis(150);

fn contended_run(mode: TrafficMode, sched: AppSched) -> capnet::SimOutcome {
    ScenarioSpec::paper(ScenarioKind::Scenario2Contended, mode)
        .duration(RUN)
        .app_sched(sched)
        .run()
        .expect("contended run")
}

fn contended(mode: TrafficMode, sched: AppSched) -> (f64, f64) {
    let out = contended_run(mode, sched);
    let reports = match mode {
        TrafficMode::Server => &out.servers,
        TrafficMode::Client => &out.clients,
    };
    (reports[0].mbit_per_sec(), reports[1].mbit_per_sec())
}

#[test]
fn barging_reproduces_the_papers_unbalanced_client_split() {
    let out = contended_run(TrafficMode::Client, AppSched::paper_barging());
    // The barging policy keys on each client's ordinal on the service
    // node, so this digest pins that ordinal.
    assert_eq!(
        out.trace.digest, 0x6fe142860a3ee3cc,
        "the barging contended run drifted off its pinned digest"
    );
    let (a, b) = (out.clients[0].mbit_per_sec(), out.clients[1].mbit_per_sec());
    // Paper: 531 / 410 Mbit/s (ratio ≈ 1.30).
    assert!((a - 531.0).abs() < 25.0, "favored flow: {a:.0} (paper 531)");
    assert!((b - 410.0).abs() < 25.0, "starved flow: {b:.0} (paper 410)");
    let ratio = a / b;
    assert!(
        (1.15..=1.45).contains(&ratio),
        "imbalance ratio {ratio:.2} (paper ≈ 1.30)"
    );
    // The aggregate still saturates the port — the paper's headline.
    assert!((a + b - 941.0).abs() < 30.0, "joint {:.0}", a + b);
}

#[test]
fn round_robin_is_the_fairness_fix() {
    let (a, b) = contended(TrafficMode::Client, AppSched::RoundRobin);
    let ratio = a.max(b) / a.min(b);
    assert!(ratio < 1.06, "fair split, got {a:.0}/{b:.0}");
    assert!((a + b - 941.0).abs() < 30.0, "joint {:.0}", a + b);
}

#[test]
fn server_side_stays_even_under_both_policies() {
    // The paper's server rows are 470/470 even on the unfair testbed: the
    // receive path is driven by the service loop, not by app stepping.
    for sched in [AppSched::RoundRobin, AppSched::paper_barging()] {
        let (a, b) = contended(TrafficMode::Server, sched);
        let ratio = a.max(b) / a.min(b);
        assert!(
            ratio < 1.10,
            "server split must stay even under {sched:?}: {a:.0}/{b:.0}"
        );
        assert!((a - 470.0).abs() < 25.0, "{a:.0} vs paper 470");
    }
}

#[test]
fn weighted_policy_splits_bandwidth_by_weight() {
    // The QoS answer to the paper's fairness future work: an explicit
    // weighted scheduler makes the contended split a configuration knob.
    for (wf, wr, want_ratio) in [(1u32, 1u32, 1.0), (2, 1, 2.0), (3, 1, 3.0)] {
        let (a, b) = contended(
            TrafficMode::Client,
            AppSched::Weighted {
                weight_first: wf,
                weight_rest: wr,
            },
        );
        let ratio = a / b;
        assert!(
            (ratio - want_ratio).abs() < 0.25 * want_ratio,
            "weights {wf}:{wr} gave {a:.0}/{b:.0} (ratio {ratio:.2}, want ≈{want_ratio})"
        );
        assert!((a + b - 941.0).abs() < 40.0, "joint {:.0}", a + b);
    }
}

#[test]
fn single_flow_is_unaffected_by_the_policy() {
    // With one app cVM there is nobody to starve: both policies must give
    // the uncontended 941.
    for sched in [AppSched::RoundRobin, AppSched::paper_barging()] {
        let out = ScenarioSpec::paper(ScenarioKind::Scenario2Uncontended, TrafficMode::Server)
            .duration(RUN)
            .app_sched(sched)
            .run()
            .unwrap();
        let bw = out.servers[0].mbit_per_sec();
        assert!((bw - 941.0).abs() < 20.0, "{sched:?}: {bw:.0}");
    }
}
