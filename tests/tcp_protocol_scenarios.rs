//! The TCP protocol-fidelity scenarios: lossy-WAN goodput (SACK on/off)
//! and mixed congestion-control dumbbell fairness. Like every scenario in
//! this repository they are pure functions of their spec — the
//! digests pinned here are the seed values; update them only for a change
//! that *intends* to alter wire behavior — and byte-identical at any
//! worker count.

use capnet::scenario::{fairness_index, ScenarioSpec};
use capnet::CcAlgo;
use simkern::SimDuration;
use updk::wire::Impairments;

const LOSSY_SEED: u64 = 77;
const LOSS_PER_MILLE: u16 = 20;

/// The 2-leaf star over a 2% lossy fabric, SACK on at every host.
fn lossy_sack_star(cc: CcAlgo) -> ScenarioSpec {
    ScenarioSpec::star(2)
        .duration(SimDuration::from_millis(40))
        .seed(LOSSY_SEED)
        .impairments(Impairments::lossy(LOSS_PER_MILLE))
        .congestion(cc)
        .sack(true)
}

/// CUBIC + SACK star over a 2% lossy fabric, across worker counts: the
/// new protocol machinery (scoreboard retransmits, cubic window growth)
/// must shard exactly like the classic path does.
#[test]
fn lossy_cubic_sack_star_is_pinned_and_shards_identically() {
    let base = lossy_sack_star(CcAlgo::Cubic)
        .run()
        .expect("lossy star runs");
    assert!(base.trace.frames > 1_000, "real traffic flowed");
    assert!(
        base.impairment_stats.lost > 0,
        "the lossy fabric actually dropped frames"
    );
    assert_eq!(
        base.trace.digest, 0x713744d4632534de,
        "lossy CUBIC+SACK star trace drifted"
    );
    // Same scenario with Reno: the CC choice genuinely reaches the wire
    // once loss makes the algorithms recover differently.
    let reno = lossy_sack_star(CcAlgo::Reno).run().expect("reno star runs");
    assert_ne!(
        base.trace.digest, reno.trace.digest,
        "CUBIC and Reno must diverge under loss"
    );
    // Genuinely sharded (adaptive off): the protocol machinery must
    // survive real window-driven execution, not just the collapsed path.
    let sharded = lossy_sack_star(CcAlgo::Cubic)
        .workers(2)
        .adaptive_workers(false)
        .run()
        .expect("sharded lossy star runs");
    assert_eq!(sharded.workers, 2, "forced plan must stay sharded");
    assert_eq!(base.trace, sharded.trace, "sharded: byte-identical trace");
    assert_eq!(base.servers, sharded.servers, "sharded: reports");
    assert_eq!(
        base.impairment_stats, sharded.impairment_stats,
        "sharded: impairment totals"
    );
}

/// SACK recovers goodput on a lossy WAN: the same seed, the same drops —
/// the scoreboard-driven retransmit path must deliver at least as much as
/// timeout/fast-retransmit-only recovery, and both runs are deterministic.
#[test]
fn sack_recovers_goodput_on_a_lossy_wan() {
    let wan = |sack: bool| {
        ScenarioSpec::star(2)
            .duration(SimDuration::from_millis(40))
            .seed(LOSSY_SEED)
            .impairments(Impairments::lossy(LOSS_PER_MILLE))
            .sack(sack)
            .run()
    };
    let with_sack = wan(true).expect("sack run");
    let without = wan(false).expect("plain run");
    let sum =
        |out: &capnet::SimOutcome| -> f64 { out.servers.iter().map(|r| r.mbit_per_sec()).sum() };
    let (on, off) = (sum(&with_sack), sum(&without));
    assert!(
        on > 0.0 && off > 0.0,
        "both modes moved data: {on:.1}/{off:.1}"
    );
    assert!(
        on >= off * 0.95,
        "SACK must not cost goodput: {on:.1} vs {off:.1} Mbit/s"
    );
    // Determinism: replaying either configuration reproduces it exactly.
    let replay = wan(true).expect("replay");
    assert_eq!(with_sack.trace, replay.trace, "same seed, same trace");
    assert_eq!(with_sack.servers, replay.servers);
}

/// Reno and CUBIC senders sharing a lossy dumbbell trunk: the split is the
/// inter-algorithm fairness experiment, pinned by digest and scored by
/// Jain's index. On the drop-free dumbbell both algorithms stay in slow
/// start (receiver-window-limited) and the classic pinned digest must hold
/// for ANY algorithm mix — the CC plumbing is opt-in by construction.
#[test]
fn reno_vs_cubic_dumbbell_is_pinned_and_fair_enough() {
    let bell = |algos: &[CcAlgo], impairments: Impairments| {
        ScenarioSpec::dumbbell(2)
            .duration(SimDuration::from_millis(30))
            .seed(5)
            .pair_cc(algos)
            .impairments(impairments)
            .run()
    };
    let lossy = Impairments::lossy(10);
    let out = bell(&[CcAlgo::Reno, CcAlgo::Cubic], lossy).expect("dumbbell runs");
    assert_eq!(out.servers.len(), 2);
    assert_eq!(
        out.trace.digest, 0x3afe5d066e8e0e51,
        "Reno-vs-CUBIC lossy dumbbell trace drifted"
    );
    let rates: Vec<f64> = out.servers.iter().map(|r| r.mbit_per_sec()).collect();
    let jain = fairness_index(&rates);
    assert!(
        jain > 0.5,
        "neither algorithm starves the other: J={jain:.3} over {rates:?}"
    );
    // The same lossy run with both senders on Reno must differ: the mixed
    // algorithms genuinely reached the wire.
    let all_reno = bell(&[CcAlgo::Reno, CcAlgo::Reno], lossy).expect("all-reno dumbbell");
    assert_ne!(
        out.trace.digest, all_reno.trace.digest,
        "mixing CUBIC in must change recovery behavior under loss"
    );
    // An all-default, drop-free run (empty algo slice) must reproduce the
    // repo's long-pinned classic dumbbell digest — the new plumbing
    // changes nothing unless asked.
    let classic = bell(&[], Impairments::default()).expect("classic dumbbell");
    assert_eq!(
        classic.trace.digest, 0x5a1adb9234ff72c8,
        "default-CC dumbbell must keep the classic pinned digest"
    );
    // And with an explicit all-CUBIC mix but no loss, the flows never
    // leave slow start, so even the algorithm swap is invisible.
    let clean_cubic = bell(&[CcAlgo::Cubic], Impairments::default()).expect("clean cubic dumbbell");
    assert_eq!(
        clean_cubic.trace.digest, 0x5a1adb9234ff72c8,
        "drop-free dumbbell is rwnd-limited: CC choice is inert"
    );
}
