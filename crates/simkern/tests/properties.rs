//! Property tests of the simulation kernel's ordering laws.

use proptest::prelude::*;
use simkern::engine::{Engine, World};
use simkern::resource::{BusyResource, FifoMutex};
use simkern::time::{SimDuration, SimTime};

/// Logs each event, an index into the schedule order, with its dispatch
/// instant.
struct Log(Vec<(u64, usize)>);

impl World for Log {
    type Event = usize;
    fn handle(&mut self, i: usize, eng: &mut Engine<Self>) {
        self.0.push((eng.now().as_nanos(), i));
    }
}

proptest! {
    /// The engine executes events in nondecreasing time order, regardless
    /// of insertion order (including across the wheel/heap band split), and
    /// FIFO among equal timestamps.
    #[test]
    fn engine_is_a_priority_queue(times in proptest::collection::vec(0u64..600_000, 1..200)) {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log(Vec::new());
        for (i, &t) in times.iter().enumerate() {
            eng.schedule(SimTime::from_nanos(t), i);
        }
        eng.run(&mut log);
        let log = log.0;
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
    }

    /// run_until never executes an event past the deadline, and a
    /// subsequent run executes exactly the remainder — with deadlines and
    /// instants spanning both calendar bands.
    #[test]
    fn run_until_partitions_execution(times in proptest::collection::vec(0u64..600_000, 1..100), cut in 0u64..600_000) {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log(Vec::new());
        for (i, &t) in times.iter().enumerate() {
            eng.schedule(SimTime::from_nanos(t), i);
        }
        eng.run_until(&mut log, SimTime::from_nanos(cut));
        let expect_first = times.iter().filter(|&&t| t <= cut).count();
        prop_assert_eq!(log.0.len(), expect_first);
        prop_assert!(log.0.iter().all(|&(at, _)| at <= cut), "nothing past the deadline");
        eng.run(&mut log);
        prop_assert_eq!(log.0.len(), times.len());
        prop_assert!(log.0[expect_first..].iter().all(|&(at, _)| at > cut), "the remainder only");
    }

    /// A BusyResource never overlaps grants and serves work conservatively:
    /// total busy time equals the sum of holds.
    #[test]
    fn busy_resource_non_overlap(reqs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100)) {
        let mut r = BusyResource::new();
        let mut prev_end = 0u64;
        let mut total = 0u64;
        // Requests must be made in nondecreasing request order for FIFO.
        let mut reqs = reqs;
        reqs.sort_by_key(|&(t, _)| t);
        for &(t, hold) in &reqs {
            let done = r.occupy(SimTime::from_nanos(t), SimDuration::from_nanos(hold));
            // Completion is after both the request and the previous grant.
            prop_assert!(done.as_nanos() >= t + hold);
            prop_assert!(done.as_nanos() >= prev_end + hold);
            prev_end = done.as_nanos();
            total += hold;
        }
        prop_assert_eq!(r.total_busy().as_nanos(), total);
        prop_assert_eq!(r.grants(), reqs.len() as u64);
    }

    /// FIFO mutex: grants never overlap and are ordered by request time.
    #[test]
    fn fifo_mutex_grants_are_serialized(reqs in proptest::collection::vec((0u64..10_000, 1u64..2_000), 1..80)) {
        let mut m = FifoMutex::new(30, 2_600, 1_900);
        let mut reqs = reqs;
        reqs.sort_by_key(|&(t, _)| t);
        let mut prev_release = 0u64;
        let mut prev_acquire = 0u64;
        for &(t, hold) in &reqs {
            let g = m.acquire(SimTime::from_nanos(t), SimDuration::from_nanos(hold));
            prop_assert!(g.acquired_at.as_nanos() >= t, "no time travel");
            prop_assert!(g.acquired_at.as_nanos() >= prev_acquire, "FIFO order");
            prop_assert!(
                g.acquired_at.as_nanos() >= prev_release
                    || prev_release == 0,
                "no overlap with the previous critical section"
            );
            prop_assert!(g.released_at > g.acquired_at || hold == 0);
            prop_assert_eq!(g.contended, g.wait.as_nanos() > 0 || g.acquired_at.as_nanos() > t);
            prev_release = g.released_at.as_nanos();
            prev_acquire = g.acquired_at.as_nanos();
        }
        prop_assert_eq!(m.acquisitions(), reqs.len() as u64);
        prop_assert!(m.contentions() <= m.acquisitions());
    }

    /// Time arithmetic: (t + d) - t == d for all representable values.
    #[test]
    fn time_add_sub_inverse(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
        let ti = SimTime::from_nanos(t);
        let du = SimDuration::from_nanos(d);
        prop_assert_eq!((ti + du) - ti, du);
        prop_assert_eq!((ti + du) - du, ti);
    }

    /// Quantization is idempotent and floors.
    #[test]
    fn quantize_laws(t in 0u64..1_000_000, tick in 1u64..1_000) {
        let ti = SimTime::from_nanos(t);
        let tk = SimDuration::from_nanos(tick);
        let q = ti.quantize(tk);
        prop_assert!(q <= ti);
        prop_assert_eq!(q.quantize(tk), q, "idempotent");
        prop_assert_eq!(q.as_nanos() % tick, 0);
        prop_assert!(ti.as_nanos() - q.as_nanos() < tick);
    }

    /// Serialization time is monotone in bytes and inversely so in rate.
    #[test]
    fn wire_time_monotonicity(bytes in 1u64..100_000, rate in 1_000u64..10_000_000_000) {
        let d1 = SimDuration::for_bytes_at_rate(bytes, rate);
        let d2 = SimDuration::for_bytes_at_rate(bytes + 1, rate);
        prop_assert!(d2 >= d1);
        let d3 = SimDuration::for_bytes_at_rate(bytes, rate * 2);
        prop_assert!(d3 <= d1);
    }
}
