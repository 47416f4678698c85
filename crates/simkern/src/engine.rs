//! The event engine: a typed, allocation-free calendar queue over a world `W`.
//!
//! The engine owns no domain state — the scenario drivers in the `capnet`
//! crate define their own world structs holding the Intravisor, NICs, stacks
//! and apps. A world declares its event vocabulary through the [`World`]
//! trait: `type Event` is a small enum interpreted by [`World::handle`],
//! stored **inline** in a two-band calendar: a 512-slot × 1024 ns timer wheel
//! for the dense near band, with a binary heap as overflow for far-future
//! deadlines (retransmission timers, TIME_WAIT). Events migrate from the heap
//! into the wheel as virtual time advances. Every event is a value of the
//! world's `Event` type, so scheduling never allocates per event.
//!
//! # Dispatch order
//!
//! Dispatch follows the total order `(at, class, key)`, where `class`
//! separates ordinary events from [`Engine::schedule_last`] events and `key`
//! is an [`OrderKey`] — the tie-break among same-instant, same-class events.
//!
//! For plain [`Engine::schedule`] calls the key degenerates to a global
//! sequence number, so ties stay FIFO exactly as the previous engine ordered
//! them. Worlds that are **sharded across several engines** (the parallel
//! `NetSim`) instead schedule through [`Engine::schedule_from`], which builds
//! the key from *execution-invariant* components: the virtual instant the
//! scheduling event ran, its class, the scheduling object's stable `origin`
//! id, and a per-origin emission counter. Two engines partitioning the same
//! world produce the same keys for the same events regardless of how the
//! partition interleaves, which is what makes a sharded run's merge order —
//! and therefore its wire behaviour — byte-identical to the single-engine
//! run (see `capnet-core`'s `tests/parallel_determinism.rs`).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// A world drivable by the engine: the event vocabulary plus its interpreter.
///
/// `Event` should be a small plain enum — it is stored by value in the
/// calendar, so scheduling one allocates nothing.
pub trait World: Sized {
    /// The typed event vocabulary of this world.
    type Event;
    /// Interprets one event at its scheduled instant (`engine.now()`).
    fn handle(&mut self, ev: Self::Event, engine: &mut Engine<Self>);
}

/// The origin id carried by plain (non-[`Engine::schedule_from`]) schedules:
/// sorts after every explicit origin, and its `ctr` component is the global
/// sequence number, so same-instant plain schedules dispatch FIFO.
const PLAIN_ORIGIN: u32 = u32::MAX;

/// The execution-invariant tie-break among same-instant, same-class events.
///
/// Components compare in order:
///
/// 1. `gen` — the virtual instant of the event that *scheduled* this one
///    (events scheduled earlier in virtual time dispatch first);
/// 2. `gen_class` — the class of the scheduling event (children of ordinary
///    events precede children of `schedule_last` events at the same `gen`,
///    mirroring the order their parents dispatched);
/// 3. `origin` — the stable id of the scheduling object, assigned by the
///    world (a sharded world must assign ids that are identical across
///    partitions);
/// 4. `ctr` — the origin's monotone emission counter (a single handler
///    emitting several events keeps their order).
///
/// Every component is derived from the scheduling event's own (by induction,
/// invariant) execution — never from engine-global state — so keys are
/// identical no matter how the world is partitioned across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderKey {
    /// Virtual instant of the scheduling event.
    pub gen: u64,
    /// Class of the scheduling event.
    pub gen_class: u8,
    /// Stable id of the scheduling object (`u32::MAX` for plain
    /// schedules).
    pub origin: u32,
    /// Per-origin monotone emission counter (the global sequence number for
    /// plain schedules).
    pub ctr: u64,
}

/// Identifies one scheduled event, for [`Engine::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    key: OrderKey,
}

struct Scheduled<W: World> {
    at: SimTime,
    /// Tie-break class at equal instants: 0 for ordinary events, 1 for
    /// [`Engine::schedule_last`] events (park/wake ticks that must observe
    /// every same-instant delivery first).
    class: u8,
    key: OrderKey,
    ev: W::Event,
}

impl<W: World> Scheduled<W> {
    fn key(&self) -> (u64, u8, OrderKey) {
        (self.at.as_nanos(), self.class, self.key)
    }
}

impl<W: World> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<W: World> Eq for Scheduled<W> {}
impl<W: World> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W: World> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // with the invariant tie-break (class, then key) among same-instant
        // events.
        other.key().cmp(&self.key())
    }
}

/// log2 of the wheel slot granularity in nanoseconds.
const GRAN_SHIFT: u32 = 10;
/// Wheel slot width: 1024 ns — one or two main-loop ticks per slot.
const GRAN: u64 = 1 << GRAN_SHIFT;
/// Number of wheel slots (one rotation covers `SLOTS * GRAN` ≈ 524 µs —
/// wide enough that deliveries behind a full 64-frame egress backlog still
/// land directly in the wheel instead of bouncing through the heap).
const SLOTS: usize = 512;
/// The wheel horizon: events at `base + HORIZON` or later overflow to the heap.
const HORIZON: u64 = GRAN * SLOTS as u64;

/// The two-band calendar: a near-future timer wheel plus an overflow heap.
///
/// Invariants:
/// * every wheel entry `e` satisfies `base <= clamp(e.at) < base + HORIZON`
///   (entries scheduled "behind" the cursor — legal while `now` trails a
///   partially drained slot — are clamped into the cursor slot);
/// * every heap entry is at `base + HORIZON` or later;
/// * `base` is a multiple of `GRAN` and never decreases.
struct Calendar<W: World> {
    slots: Vec<Vec<Scheduled<W>>>,
    wheel_len: usize,
    base: u64,
    heap: BinaryHeap<Scheduled<W>>,
    /// Keys of cancelled, still-queued events: lazily removed when the
    /// cursor reaches them ([`Engine::cancel`]). Keys are never reused
    /// within a run, so a tombstone can only match its own event.
    cancelled: HashSet<OrderKey>,
    /// Memoized earliest-live-event instant (a sharded driver polls it
    /// every window round); invalidated by pops, cancellations and any
    /// push that could undercut it.
    next_cache: Option<SimTime>,
}

impl<W: World> Calendar<W> {
    fn new() -> Self {
        Calendar {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            base: 0,
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_cache: None,
        }
    }

    fn len(&self) -> usize {
        // Saturating: a stale tombstone (cancel() after dispatch — a
        // caller bug) must not wrap the live count.
        (self.wheel_len + self.heap.len()).saturating_sub(self.cancelled.len())
    }

    fn push(&mut self, ev: Scheduled<W>) {
        if self.next_cache.is_some_and(|c| ev.at < c) {
            self.next_cache = None;
        }
        let at = ev.at.as_nanos();
        if at >= self.base.saturating_add(HORIZON) {
            self.heap.push(ev);
        } else {
            // Events at or behind the cursor window land in the cursor slot;
            // the per-slot min-scan orders them correctly regardless.
            let eff = at.max(self.base);
            self.slots[((eff >> GRAN_SHIFT) as usize) % SLOTS].push(ev);
            self.wheel_len += 1;
        }
    }

    /// Pulls heap entries that the advancing horizon now covers.
    fn migrate(&mut self) {
        let horizon = self.base.saturating_add(HORIZON);
        while let Some(top) = self.heap.peek() {
            if top.at.as_nanos() >= horizon {
                break;
            }
            let ev = self.heap.pop().expect("peeked entry pops");
            if !self.cancelled.is_empty() && self.cancelled.remove(&ev.key) {
                continue;
            }
            let eff = ev.at.as_nanos().max(self.base);
            self.slots[((eff >> GRAN_SHIFT) as usize) % SLOTS].push(ev);
            self.wheel_len += 1;
        }
    }

    /// Pops the globally earliest live event if its instant is `<= deadline`.
    fn pop_if(&mut self, deadline: SimTime) -> Option<Scheduled<W>> {
        loop {
            if self.wheel_len == 0 {
                // Fast-forward: jump the cursor straight to the heap head.
                let top_at = self.heap.peek()?.at;
                if top_at > deadline {
                    return None;
                }
                self.base = top_at.as_nanos() & !(GRAN - 1);
                self.migrate();
                continue;
            }
            let idx = ((self.base >> GRAN_SHIFT) as usize) % SLOTS;
            if self.slots[idx].is_empty() {
                // Advance the cursor one slot; the horizon moves with it.
                self.base += GRAN;
                self.migrate();
                continue;
            }
            // Min-scan the cursor slot: entries within a slot are unordered.
            let best = self.slots[idx]
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.key())
                .map(|(i, e)| (i, e.at))
                .expect("slot is nonempty");
            if best.1 > deadline {
                return None;
            }
            self.wheel_len -= 1;
            let ev = self.slots[idx].swap_remove(best.0);
            // The is_empty guard keeps the tombstone hash off the
            // steady-state dispatch path (most runs never cancel).
            if !self.cancelled.is_empty() && self.cancelled.remove(&ev.key) {
                continue;
            }
            self.next_cache = None;
            return Some(ev);
        }
    }

    /// The instant of the earliest live event, without removing it. Advances
    /// the cursor over empty slots (state-neutral) and reaps cancelled
    /// entries it encounters.
    fn peek_next_at(&mut self) -> Option<SimTime> {
        if let Some(c) = self.next_cache {
            return Some(c);
        }
        let next = self.peek_next_at_uncached();
        self.next_cache = next;
        next
    }

    fn peek_next_at_uncached(&mut self) -> Option<SimTime> {
        loop {
            if self.wheel_len == 0 {
                // Reap cancelled heap heads so the answer is a live event.
                while let Some(top) = self.heap.peek() {
                    if !self.cancelled.is_empty() && self.cancelled.contains(&top.key) {
                        let ev = self.heap.pop().expect("peeked entry pops");
                        self.cancelled.remove(&ev.key);
                    } else {
                        return Some(top.at);
                    }
                }
                return None;
            }
            let idx = ((self.base >> GRAN_SHIFT) as usize) % SLOTS;
            if self.slots[idx].is_empty() {
                self.base += GRAN;
                self.migrate();
                continue;
            }
            let best = self.slots[idx]
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.key())
                .map(|(i, e)| (i, e.at, e.key))
                .expect("slot is nonempty");
            if !self.cancelled.is_empty() && self.cancelled.remove(&best.2) {
                self.slots[idx].swap_remove(best.0);
                self.wheel_len -= 1;
                continue;
            }
            return Some(best.1);
        }
    }

    fn clear(&mut self) {
        for s in &mut self.slots {
            s.clear();
        }
        self.wheel_len = 0;
        self.heap.clear();
        self.cancelled.clear();
        self.next_cache = None;
    }
}

/// A discrete-event engine over a caller-owned world type `W`.
///
/// # Example
///
/// The world's event enum is stored inline in the calendar, so the steady
/// state of a simulation schedules without allocating.
///
/// ```
/// use simkern::engine::{Engine, World};
/// use simkern::time::{SimDuration, SimTime};
///
/// struct Counter { ticks: u32 }
/// enum Ev { Tick }
///
/// impl World for Counter {
///     type Event = Ev;
///     fn handle(&mut self, ev: Ev, eng: &mut Engine<Self>) {
///         let Ev::Tick = ev;
///         self.ticks += 1;
///         if self.ticks < 10 {
///             eng.schedule_in(SimDuration::from_nanos(100), Ev::Tick);
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// let mut world = Counter { ticks: 0 };
/// engine.schedule(SimTime::ZERO, Ev::Tick);
/// engine.run(&mut world);
/// assert_eq!(world.ticks, 10);
/// ```
pub struct Engine<W: World> {
    now: SimTime,
    seq: u64,
    /// Class of the event currently dispatching (0 outside dispatch) — the
    /// `gen_class` component of keys built for events it schedules.
    cur_class: u8,
    /// Key of the event currently dispatching ([`Engine::current_key`]).
    cur_key: OrderKey,
    /// Per-origin emission counters for [`Engine::schedule_from`].
    origin_ctrs: Vec<u64>,
    queue: Calendar<W>,
    executed: u64,
    event_cap: u64,
}

impl<W: World> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W: World> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World> Engine<W> {
    /// A generous default runaway guard (see [`Engine::set_event_cap`]).
    pub const DEFAULT_EVENT_CAP: u64 = 2_000_000_000;

    /// Creates an engine at virtual time zero with an empty calendar.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            cur_class: 0,
            cur_key: OrderKey {
                gen: 0,
                gen_class: 0,
                origin: PLAIN_ORIGIN,
                ctr: 0,
            },
            origin_ctrs: Vec::new(),
            queue: Calendar::new(),
            executed: 0,
            event_cap: Self::DEFAULT_EVENT_CAP,
        }
    }

    /// The current virtual instant (the timestamp of the running event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Caps the number of events a run may execute, as a guard against
    /// accidentally non-terminating schedules in tests. Both [`Engine::run`]
    /// / [`Engine::run_until`] and single-stepping via [`Engine::step`]
    /// count against the cap.
    pub fn set_event_cap(&mut self, cap: u64) {
        self.event_cap = cap;
    }

    fn push(&mut self, at: SimTime, class: u8, key: OrderKey, ev: W::Event) {
        let at = at.max(self.now);
        self.queue.push(Scheduled { at, class, key, ev });
    }

    /// The key for plain schedules: generation components plus the global
    /// sequence number, preserving FIFO among same-instant ties.
    fn plain_key(&mut self) -> OrderKey {
        self.seq += 1;
        OrderKey {
            gen: self.now.as_nanos(),
            gen_class: self.cur_class,
            origin: PLAIN_ORIGIN,
            ctr: self.seq,
        }
    }

    /// The execution-invariant key for origin-tagged schedules.
    fn origin_key(&mut self, origin: u32) -> OrderKey {
        // Origins index a dense per-origin counter table; a huge id (or
        // the reserved plain origin) is a caller bug that would otherwise
        // surface as a giant allocation.
        debug_assert!(
            origin < PLAIN_ORIGIN,
            "origin {origin} is reserved / not a dense object id"
        );
        let idx = origin as usize;
        if idx >= self.origin_ctrs.len() {
            self.origin_ctrs.resize(idx + 1, 0);
        }
        self.origin_ctrs[idx] += 1;
        OrderKey {
            gen: self.now.as_nanos(),
            gen_class: self.cur_class,
            origin,
            ctr: self.origin_ctrs[idx],
        }
    }

    /// Schedules an event at instant `at` (allocation-free).
    ///
    /// Events scheduled in the past of the current event are executed at the
    /// current instant instead (time never goes backwards); this matches how
    /// a hardware completion that "already happened" is observed at poll time.
    pub fn schedule(&mut self, at: SimTime, ev: W::Event) {
        let key = self.plain_key();
        self.push(at, 0, key, ev);
    }

    /// Schedules an event `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, ev: W::Event) {
        let at = self.now + delay;
        self.schedule(at, ev);
    }

    /// Schedules an event at `at` with an execution-invariant
    /// [`OrderKey`] built from `origin` (the scheduling object's stable id,
    /// below [`u32::MAX`]). Same-instant ties then resolve identically no
    /// matter how the world is sharded across engines. Returns a handle for
    /// [`Engine::cancel`].
    pub fn schedule_from(&mut self, origin: u32, at: SimTime, ev: W::Event) -> EventHandle {
        let key = self.origin_key(origin);
        self.push(at, 0, key, ev);
        EventHandle { key }
    }

    /// Schedules an event at `at`, ordered **after** every ordinary
    /// event at the same instant (regardless of scheduling order). Park/wake
    /// ticks use this so a woken main loop observes every frame delivered at
    /// its wake instant — exactly as the pre-park polling loop did, whose
    /// self-reschedule always carried a later sequence number than any
    /// same-instant delivery.
    pub fn schedule_last(&mut self, at: SimTime, ev: W::Event) {
        let key = self.plain_key();
        self.push(at, 1, key, ev);
    }

    /// [`Engine::schedule_last`] with an origin-tagged key
    /// ([`Engine::schedule_from`]); returns a cancellation handle.
    pub fn schedule_last_from(&mut self, origin: u32, at: SimTime, ev: W::Event) -> EventHandle {
        let key = self.origin_key(origin);
        self.push(at, 1, key, ev);
        EventHandle { key }
    }

    /// Schedules a class-0 event carrying a key built by *another*
    /// engine — how a sharded world injects a peer shard's cross-boundary
    /// events so the merged dispatch order matches the single-engine run.
    pub fn schedule_injected(&mut self, at: SimTime, key: OrderKey, ev: W::Event) {
        self.push(at, 0, key, ev);
    }

    /// Builds (and consumes) the next [`OrderKey`] for `origin` without
    /// scheduling anything locally — for events this world hands to a
    /// *peer* engine ([`Engine::schedule_injected`]). The per-origin
    /// counter advances exactly as a local [`Engine::schedule_from`] would,
    /// so an origin emitting a mix of local and cross-engine events
    /// produces the same key sequence the single-engine run assigns.
    pub fn make_key(&mut self, origin: u32) -> OrderKey {
        self.origin_key(origin)
    }

    /// The [`OrderKey`] of the event currently dispatching — a handler can
    /// record it to reproduce the global dispatch order of its event later
    /// (the sharded trace-digest merge).
    pub fn current_key(&self) -> OrderKey {
        self.cur_key
    }

    /// Cancels a pending event scheduled with
    /// [`Engine::schedule_from`] / [`Engine::schedule_last_from`]: the event
    /// is unlinked from the calendar (lazily, via a tombstone) and will
    /// never dispatch nor count as executed. Cancelling an event that
    /// already dispatched is a caller bug; keys are never reused, so the
    /// stale tombstone can mis-cancel nothing, but it leaks a set entry for
    /// the rest of the run and deflates [`Engine::pending`] by one
    /// (saturating — the count never wraps).
    pub fn cancel(&mut self, handle: EventHandle) {
        self.queue.cancelled.insert(handle.key);
        self.queue.next_cache = None;
    }

    /// Runs events until the calendar is empty.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded (runaway schedule).
    pub fn run(&mut self, world: &mut W) {
        self.run_until(world, SimTime::MAX);
    }

    fn dispatch(&mut self, world: &mut W, ev: Scheduled<W>) {
        self.now = ev.at;
        self.cur_class = ev.class;
        self.cur_key = ev.key;
        self.executed += 1;
        assert!(
            self.executed <= self.event_cap,
            "simulation exceeded event cap of {} events at t={}",
            self.event_cap,
            self.now
        );
        world.handle(ev.ev, self);
        self.cur_class = 0;
    }

    /// Runs events with timestamps `<= deadline`, then stops.
    ///
    /// The virtual clock is left at the later of the last executed event and
    /// any previous `now` — it does *not* jump to `deadline`, so interleaved
    /// `run_until` calls compose.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded (runaway schedule).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while let Some(ev) = self.queue.pop_if(deadline) {
            self.dispatch(world, ev);
        }
    }

    /// Runs events with timestamps **strictly before** `end`, then stops —
    /// one lookahead window of a sharded run. Equivalent to
    /// [`Engine::run_until`] with an inclusive deadline of `end − 1 ns`.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded (runaway schedule).
    pub fn run_window(&mut self, world: &mut W, end: SimTime) {
        let Some(deadline) = end.as_nanos().checked_sub(1) else {
            return;
        };
        self.run_until(world, SimTime::from_nanos(deadline));
    }

    /// The instant of the earliest pending event, if any — what a sharded
    /// driver uses to fast-forward over windows in which this engine has
    /// nothing to do.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        self.queue.peek_next_at()
    }

    /// Runs exactly one event if one is pending, returning `true` if it ran.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded — stepping counts against the cap
    /// exactly as [`Engine::run_until`] does.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.queue.pop_if(SimTime::MAX) {
            Some(ev) => {
                self.dispatch(world, ev);
                true
            }
            None => false,
        }
    }

    /// Discards all pending events (used when tearing a scenario down).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// The test world: each event is a `u32` mark. The handler logs the
    /// mark and its dispatch instant, then schedules every follow-up
    /// `(at, mark)` that `then` lists for the dispatched mark.
    #[derive(Default)]
    struct Log {
        marks: Vec<u32>,
        at: Vec<u64>,
        then: Vec<(u32, SimTime, u32)>,
    }

    impl World for Log {
        type Event = u32;
        fn handle(&mut self, mark: u32, eng: &mut Engine<Self>) {
            self.marks.push(mark);
            self.at.push(eng.now().as_nanos());
            for &(on, at, next) in &self.then {
                if on == mark {
                    eng.schedule(at, next);
                }
            }
        }
    }

    /// An engine holding `(at_ns, mark)` events, scheduled in slice order.
    fn engine_with(events: &[(u64, u32)]) -> Engine<Log> {
        let mut eng = Engine::new();
        for &(at, mark) in events {
            eng.schedule(SimTime::from_nanos(at), mark);
        }
        eng
    }

    /// Ticks every 100 ns until it has ticked `limit` times.
    struct Ticker {
        ticks: u32,
        limit: u32,
    }

    impl World for Ticker {
        type Event = ();
        fn handle(&mut self, (): (), eng: &mut Engine<Self>) {
            self.ticks += 1;
            if self.ticks < self.limit {
                eng.schedule_in(SimDuration::from_nanos(100), ());
            }
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng = engine_with(&[(30, 3), (10, 1), (20, 2)]);
        let mut w = Log::default();
        eng.run(&mut w);
        assert_eq!(w.marks, [1, 2, 3]);
    }

    #[test]
    fn same_instant_events_are_fifo() {
        let events: Vec<_> = (0..5).map(|m| (7, m)).collect();
        let mut eng = engine_with(&events);
        let mut w = Log::default();
        eng.run(&mut w);
        assert_eq!(w.marks, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn handlers_can_reschedule_themselves() {
        let mut eng = Engine::new();
        let mut w = Ticker {
            ticks: 0,
            limit: 10,
        };
        eng.schedule(SimTime::ZERO, ());
        eng.run(&mut w);
        assert_eq!(w.ticks, 10);
        assert_eq!(eng.now(), SimTime::from_nanos(900));
    }

    #[test]
    fn run_until_respects_deadline() {
        let events: Vec<_> = (1..=10).map(|i| (u64::from(i) * 10, i)).collect();
        let mut eng = engine_with(&events);
        let mut w = Log::default();
        eng.run_until(&mut w, SimTime::from_nanos(50));
        assert_eq!(w.marks, [1, 2, 3, 4, 5]);
        assert_eq!(eng.pending(), 5);
        eng.run(&mut w);
        assert_eq!(w.marks.len(), 10);
    }

    #[test]
    fn run_window_excludes_the_end_instant() {
        let events: Vec<_> = (1..=10).map(|i| (u64::from(i) * 10, i)).collect();
        let mut eng = engine_with(&events);
        let mut w = Log::default();
        eng.run_window(&mut w, SimTime::from_nanos(50));
        assert_eq!(
            w.marks.len(),
            4,
            "the event at exactly 50 ns belongs to the next window"
        );
        eng.run_window(&mut w, SimTime::ZERO); // empty window: no-op
        assert_eq!(w.marks.len(), 4);
        eng.run(&mut w);
        assert_eq!(w.marks.len(), 10);
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut eng = engine_with(&[(100, 1)]);
        // Scheduling "in the past" executes at the current instant.
        let mut w = Log {
            then: vec![(1, SimTime::from_nanos(1), 2)],
            ..Log::default()
        };
        eng.run(&mut w);
        assert_eq!(w.marks, [1, 2]);
        assert_eq!(w.at, [100, 100]);
    }

    #[test]
    #[should_panic(expected = "event cap")]
    fn runaway_schedules_trip_the_cap() {
        let mut eng = Engine::new();
        eng.set_event_cap(1_000);
        eng.schedule(SimTime::ZERO, ());
        eng.run(&mut Ticker {
            ticks: 0,
            limit: u32::MAX,
        });
    }

    /// Regression: `step` used to bypass the event-cap guard that
    /// `run_until` enforced, so a runaway schedule driven one event at a
    /// time never tripped the cap.
    #[test]
    #[should_panic(expected = "event cap")]
    fn stepping_counts_against_the_cap() {
        let mut eng = Engine::new();
        eng.set_event_cap(100);
        eng.schedule(SimTime::ZERO, ());
        let mut w = Ticker {
            ticks: 0,
            limit: u32::MAX,
        };
        while eng.step(&mut w) {}
    }

    #[test]
    fn step_runs_one_event() {
        let mut eng = engine_with(&[(1, 1), (2, 2)]);
        let mut w = Log::default();
        assert!(eng.step(&mut w));
        assert_eq!(w.marks, [1]);
        eng.clear();
        assert!(!eng.step(&mut w));
    }

    /// Events far beyond the wheel horizon overflow into the heap band and
    /// migrate back as the cursor advances — order is unaffected.
    #[test]
    fn heap_band_overflow_preserves_order() {
        let mut eng = engine_with(&[
            // Far band (≫ 524 µs), scheduled first.
            (50_000_000, 5),
            (10_000_000, 3),
            // Near band.
            (900, 1),
            (200_000, 2),
            // Mid band: within the horizon of the second event but not the
            // first.
            (10_100_000, 4),
        ]);
        let mut w = Log::default();
        eng.run(&mut w);
        assert_eq!(w.marks, [1, 2, 3, 4, 5]);
    }

    /// A handler scheduling into its own (partially drained) wheel slot and
    /// beyond keeps the total order.
    #[test]
    fn rescheduling_into_the_cursor_slot_is_ordered() {
        let mut eng = engine_with(&[(512, 1)]);
        // Both land in the cursor slot; they order by instant (600 < 700),
        // not by scheduling order.
        let mut w = Log {
            then: vec![
                (1, SimTime::from_nanos(700), 2),
                (1, SimTime::from_nanos(600), 3),
            ],
            ..Log::default()
        };
        eng.run(&mut w);
        assert_eq!(w.marks, [1, 3, 2]);
    }

    #[test]
    fn schedule_last_orders_after_same_instant_events() {
        let mut eng = Engine::new();
        let mut w = Log::default();
        let t = SimTime::from_nanos(500);
        // The late event is scheduled FIRST (lowest seq) yet runs last.
        eng.schedule_last(t, 9);
        eng.schedule(t, 1);
        eng.schedule(t, 2);
        eng.run(&mut w);
        assert_eq!(w.marks, [1, 2, 9]);
    }

    /// Same-instant origin-keyed events order by (gen, gen_class, origin,
    /// ctr) — not by scheduling order.
    #[test]
    fn origin_keys_order_same_instant_ties_invariantly() {
        let t = SimTime::from_nanos(100);
        // Schedule origin 2 first, then origin 1: origin order wins.
        let mut eng = Engine::new();
        let mut w = Log::default();
        eng.schedule_from(2, t, 2);
        eng.schedule_from(1, t, 1);
        eng.schedule_from(1, t, 11); // same origin: ctr keeps order
        eng.run(&mut w);
        assert_eq!(w.marks, [1, 11, 2]);
    }

    /// An injected event (foreign key) interleaves exactly where the key
    /// says, regardless of injection order.
    #[test]
    fn injected_keys_interleave_by_key() {
        let t = SimTime::from_nanos(64);
        let mut eng = Engine::new();
        let mut w = Log::default();
        eng.schedule_from(5, t, 5);
        // A key another engine would have built for origin 3's first
        // emission at gen 0: sorts before origin 5.
        eng.schedule_injected(
            t,
            OrderKey {
                gen: 0,
                gen_class: 0,
                origin: 3,
                ctr: 1,
            },
            3,
        );
        eng.run(&mut w);
        assert_eq!(w.marks, [3, 5]);
    }

    /// A cancelled event never dispatches and never counts as executed —
    /// in the wheel band and in the heap band alike.
    #[test]
    fn cancelled_events_never_dispatch() {
        let mut eng = Engine::new();
        let mut w = Log::default();
        let near = eng.schedule_from(1, SimTime::from_nanos(50), 1);
        let far = eng.schedule_from(1, SimTime::from_millis(10), 2);
        eng.schedule_from(1, SimTime::from_nanos(60), 3);
        assert_eq!(eng.pending(), 3);
        eng.cancel(near);
        eng.cancel(far);
        assert_eq!(eng.pending(), 1, "cancelled events leave the live count");
        eng.run(&mut w);
        assert_eq!(w.marks, [3]);
        assert_eq!(eng.executed(), 1, "cancelled events do not execute");
    }

    /// `next_event_at` reports the earliest live event and skips cancelled
    /// ones.
    #[test]
    fn next_event_at_sees_through_cancellations() {
        let mut eng = Engine::new();
        assert_eq!(eng.next_event_at(), None);
        let h = eng.schedule_from(1, SimTime::from_nanos(40), 1);
        eng.schedule_from(1, SimTime::from_micros(700), 2); // heap band
        assert_eq!(eng.next_event_at(), Some(SimTime::from_nanos(40)));
        eng.cancel(h);
        assert_eq!(eng.next_event_at(), Some(SimTime::from_micros(700)));
        let h2 = eng.schedule_from(2, SimTime::from_micros(600), 3);
        assert_eq!(eng.next_event_at(), Some(SimTime::from_micros(600)));
        eng.cancel(h2);
        assert_eq!(eng.next_event_at(), Some(SimTime::from_micros(700)));
        let mut w = Log::default();
        eng.run(&mut w);
        assert_eq!(w.marks, [2]);
    }
}
