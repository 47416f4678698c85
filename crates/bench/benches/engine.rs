//! Microbench for the simkern event engine: raw schedule/dispatch
//! throughput of the typed calendar, in both bands of the two-band
//! structure — the timer-wheel near band (loop ticks, wire deliveries)
//! and the binary-heap overflow band (retransmission timers, deep egress
//! backlogs). The spread between `typed_wheel` and `typed_heap` is what the
//! wheel front-end buys for the dense near-future band.

use capnet_bench::BenchReport;
use criterion::{criterion_group, criterion_main, Criterion};
use simkern::engine::{Engine, World};
use simkern::time::{SimDuration, SimTime};

/// A self-rescheduling typed world: one inline event per tick.
struct Ticker {
    remaining: u64,
    period: SimDuration,
}

enum Ev {
    Tick,
}

impl World for Ticker {
    type Event = Ev;
    fn handle(&mut self, ev: Ev, eng: &mut Engine<Self>) {
        let Ev::Tick = ev;
        if self.remaining > 0 {
            self.remaining -= 1;
            eng.schedule_in(self.period, Ev::Tick);
        }
    }
}

/// Runs `events` typed self-reschedules at `period` and returns events/sec.
fn typed_throughput(events: u64, period: SimDuration) -> f64 {
    let mut eng = Engine::new();
    let mut w = Ticker {
        remaining: events,
        period,
    };
    eng.schedule(SimTime::ZERO, Ev::Tick);
    let t0 = std::time::Instant::now();
    eng.run(&mut w);
    events as f64 / t0.elapsed().as_secs_f64()
}

/// The poll-loop cadence: lands every schedule in the wheel's near band.
const WHEEL_PERIOD: SimDuration = SimDuration::from_nanos(900);
/// Far beyond the ≈262 µs wheel horizon: every schedule overflows to the
/// heap and migrates back as the cursor advances.
const HEAP_PERIOD: SimDuration = SimDuration::from_millis(1);
const EVENTS: u64 = 1_000_000;

fn bench_engine(c: &mut Criterion) {
    let mut report = BenchReport::new("engine");

    for (case, throughput) in [
        ("typed_wheel", typed_throughput(EVENTS, WHEEL_PERIOD)),
        ("typed_heap", typed_throughput(EVENTS, HEAP_PERIOD)),
    ] {
        eprintln!("[engine] {case}: {:.1} M events/s", throughput / 1e6);
        report.record(
            "schedule_dispatch",
            case,
            &[("events_per_sec", throughput), ("events", EVENTS as f64)],
        );
    }

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("typed_wheel_100k", |b| {
        b.iter(|| typed_throughput(100_000, WHEEL_PERIOD))
    });
    group.bench_function("typed_heap_100k", |b| {
        b.iter(|| typed_throughput(100_000, HEAP_PERIOD))
    });
    group.finish();

    let path = report.write().expect("BENCH_engine.json written");
    eprintln!("[engine] perf trajectory: {}", path.display());
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
