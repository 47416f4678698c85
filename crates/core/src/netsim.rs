//! The end-to-end network simulation driver.
//!
//! Wires [`updk::EthDev`] devices, [`fstack::FStack`] instances and
//! [`iperf`] applications into a discrete-event run on a
//! [`simkern::Engine`]. One `NetSim` is one Table II measurement: the
//! device under test (the dual-port 82576 behind its PCI bus), the remote
//! measurement hosts, the cables between them, and the per-scenario
//! isolation charges (trampolines, cross-cVM wrappers, the Scenario 2
//! service mutex).

use crate::app::{AppClass, AppSlot, FdRoute, Respawn};
use crate::parallel::{LookaheadMatrix, Profitability};
use crate::topology::{partition_shards, ShardGraph, ShardPlan};
use crate::CapnetError;
use capnet_chaos::ChaosReport;
use capnet_httpd::{FleetReport, HttpServerReport};
use cheri::{Capability, TaggedMemory};
use fstack::loop_::{rx_phase, tx_phase, ServiceMutex};
use fstack::{CcAlgo, FStack, StackConfig};
use iperf::BandwidthReport;
use simkern::cost::CostModel;
use simkern::engine::{Engine, EventHandle, OrderKey, World};
use simkern::rng::SimRng;
use simkern::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use updk::ethdev::EthDev;
use updk::kmod::{BindingRegistry, PciAddress};
use updk::nic::{MacAddr, NicModel};
use updk::switch::{LinkFabric, SwitchStats};
use updk::wire::{Frame, ImpairmentStats, Impairments, Wire, MIN_FRAME, WIRE_OVERHEAD};

/// Handle to a node in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Handle to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevId(pub(crate) usize);

/// Handle to a switching fabric added with [`NetSim::add_switch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchId(usize);

/// One cable endpoint: a NIC port or a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ep {
    Dev(usize, usize),
    Sw(usize, usize),
}

impl std::fmt::Display for Ep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ep::Dev(d, p) => write!(f, "device {d} port {p}"),
            Ep::Sw(s, p) => write!(f, "switch {s} port {p}"),
        }
    }
}

/// The typed event vocabulary of the simulation — every event the engine
/// dispatches in steady state is one of these small inline values, so the
/// hot path schedules without boxing (the witness is
/// [`EventCounters::boxed_events`] staying zero across a run).
#[derive(Debug)]
pub enum NetEvent {
    /// One main-loop iteration of a node's poll loop.
    LoopIter {
        /// Node index.
        node: usize,
    },
    /// A parked node's scheduled wake tick (at a poll-lattice instant).
    /// Stale wakes — the node was woken earlier by a frame delivery, or
    /// re-parked since — are recognized by `epoch` and ignored.
    Wake {
        /// Node index.
        node: usize,
        /// The park generation this wake was scheduled for.
        epoch: u64,
    },
    /// A frame arriving at a NIC port at instant `at` (folded into the
    /// trace digest, then DMA'd toward the RX ring).
    Deliver {
        /// Destination device index.
        dev: usize,
        /// Destination port on that device.
        port: usize,
        /// Nominal arrival instant (the digest timestamps with this).
        at: SimTime,
        /// The frame (a shared buffer; cloning is a refcount bump).
        frame: Frame,
    },
    /// A frame arriving at a switch ingress port: run the fabric's
    /// forwarding decision and propagate the surviving egress copies.
    SwitchHop {
        /// Switch index.
        sw: usize,
        /// Ingress port on that switch.
        port: usize,
        /// Arrival instant at the ingress port.
        at: SimTime,
        /// The frame.
        frame: Frame,
    },
    /// A scheduled infrastructure fault firing: entry `idx` of the
    /// resolved fault plan. Scheduled on **every** shard at boot (the
    /// plan is replicated, so keys and instants match at any worker
    /// count); each shard applies the slice of the fault it owns, plus
    /// the shared link-state view every transmitter needs.
    Fault {
        /// Index into the resolved fault plan.
        idx: usize,
    },
}

/// A schedulable infrastructure fault, in scenario-facing terms: the
/// entity it names plus the direction of the transition. Schedule with
/// [`NetSim::add_fault`]; resolution against the cabling happens at
/// [`NetSim::run`] start (so an impossible target is a configuration
/// error, not a silent no-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Administratively downs the cable on `node`'s NIC port: every frame
    /// either end would transmit onto that cable is blackholed at its TX
    /// hop (counted in [`ImpairmentStats::blackholed`]) until a matching
    /// [`Fault::LinkUp`]. Frames already in flight still deliver.
    LinkDown {
        /// The node whose uplink cable goes down.
        node: NodeId,
    },
    /// Restores the cable downed by [`Fault::LinkDown`].
    LinkUp {
        /// The node whose uplink cable comes back.
        node: NodeId,
    },
    /// Fails a switching fabric: every ingress frame is dropped (counted
    /// in [`updk::switch::SwitchStats::fail_drops`]) until recovery.
    SwitchFail {
        /// The failed switch.
        sw: SwitchId,
    },
    /// Recovers a failed switch. Its MAC table is flushed — the fabric
    /// comes back cold and re-floods until it re-learns stations, exactly
    /// like a rebooted switch.
    SwitchRecover {
        /// The recovering switch.
        sw: SwitchId,
    },
    /// Crashes a node: its stack (every TCB, listener, ARP entry) and all
    /// its applications vanish, its poll loop stops, and frames arriving
    /// at its NIC while dead are discarded (counted in
    /// [`FaultStats::frames_to_dead`]). Peers discover the death the way
    /// real peers do: retransmission give-up (`ETIMEDOUT`), or an RST
    /// when the restarted incarnation receives a segment for a
    /// connection it never heard of. Reports of the crashed incarnation's
    /// apps are discarded with it.
    NodeCrash {
        /// The node to crash.
        node: NodeId,
    },
    /// Restarts a crashed node: a fresh stack with the same interface
    /// config (cc/SACK knobs included), every app rebuilt from its
    /// install-time blueprint — listeners re-established, fleets
    /// re-launched on their original seed — and the poll loop rescheduled.
    NodeRestart {
        /// The node to restart.
        node: NodeId,
    },
}

/// A fault resolved against the cabling at run start: link faults carry
/// both cable endpoints (the TX-hop blackhole check tests the local
/// endpoint on whichever shard transmits) plus the device whose owning
/// shard tallies the event exactly once.
#[derive(Debug, Clone, Copy)]
enum ResolvedFault {
    LinkDown { a: Ep, b: Ep, dev: usize },
    LinkUp { a: Ep, b: Ep, dev: usize },
    SwitchFail { sw: usize },
    SwitchRecover { sw: usize },
    NodeCrash { node: usize },
    NodeRestart { node: usize },
}

/// Per-run fault-plan tallies: what the scheduled faults did. Applied
/// exactly once per fault regardless of worker count (each counter bumps
/// only on the shard owning the faulted entity), so these are part of the
/// byte-identical outcome surface the determinism tests compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `LinkDown` events applied.
    pub link_down_events: u64,
    /// `LinkUp` events applied.
    pub link_up_events: u64,
    /// `SwitchFail` events applied.
    pub switch_fail_events: u64,
    /// `SwitchRecover` events applied.
    pub switch_recover_events: u64,
    /// `NodeCrash` events applied.
    pub node_crashes: u64,
    /// `NodeRestart` events applied.
    pub node_restarts: u64,
    /// Frames that arrived at a crashed node's NIC and were discarded
    /// (the wire carried them; nobody was home).
    pub frames_to_dead: u64,
}

impl FaultStats {
    /// Accumulates another tally into this one (shard merge).
    fn absorb(&mut self, o: FaultStats) {
        self.link_down_events += o.link_down_events;
        self.link_up_events += o.link_up_events;
        self.switch_fail_events += o.switch_fail_events;
        self.switch_recover_events += o.switch_recover_events;
        self.node_crashes += o.node_crashes;
        self.node_restarts += o.node_restarts;
        self.frames_to_dead += o.frames_to_dead;
    }
}

/// Per-kind event counters for one run: the *why* behind `events_per_sec`
/// moving across PRs. Emitted into `BENCH_*.json` by the bench targets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Main-loop iterations executed (scheduled polls plus honored wakes).
    pub loop_polls: u64,
    /// Iterations that did no work (no RX, no TX, no app progress).
    pub idle_polls: u64,
    /// Frame deliveries into NIC ports.
    pub deliveries: u64,
    /// Switch ingress/forwarding events.
    pub switch_hops: u64,
    /// Honored timer wakes: a parked node reaching a known deadline
    /// (stack retransmit/delayed-ACK/TIME_WAIT timer or an app's
    /// write-gap/stop instant).
    pub timer_wakes: u64,
    /// Wake events that arrived after the node had already been woken (or
    /// re-parked); recognized by epoch and dropped.
    pub stale_wakes: u64,
    /// Times a quiescent node parked instead of rescheduling its poll.
    pub parks: u64,
    /// Parked nodes woken early by a frame delivery to their port.
    pub wakes: u64,
    /// Boxed closure events scheduled on the engine — zero in steady state
    /// (every hot-path event is a typed [`NetEvent`]).
    pub boxed_events: u64,
}

/// Per-run tallies of the sharded driver itself — rendezvous rounds and
/// cross-shard traffic. Deliberately **not** part of [`EventCounters`]:
/// simulation counters are asserted byte-identical across worker counts,
/// while these describe the driver that happened to run (all zero for a
/// plain single-engine run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundCounters {
    /// Rendezvous rounds driven (max across shards — rounds are lockstep).
    pub rounds: u64,
    /// Rounds in which a shard's window contained no event to execute.
    pub empty_rounds: u64,
    /// Frames handed across a shard boundary (deliveries + switch hops).
    pub xshard_frames: u64,
    /// Bytes copied to hand frames across shards — always zero: every
    /// shard runs on the calling thread and shares its buffer pool, so a
    /// cross-shard frame is a refcount bump. Kept so reports that track
    /// the copy cost keep their column.
    pub rehome_bytes: u64,
}

/// A rolling digest over every frame delivery of a run: the
/// `harness_determinism`-style trace identity witness, cheap enough to keep
/// always-on. Two runs with identical construction and seed must produce
/// identical digests; any divergence in delivery instant, destination or
/// payload bytes changes the FNV-1a fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    /// FNV-1a over `(at_ns, dev, port, len, bytes)` of every delivery.
    pub digest: u64,
    /// Deliveries folded in.
    pub frames: u64,
    /// Frame bytes folded in.
    pub bytes: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest {
            digest: 0xCBF2_9CE4_8422_2325, // FNV-1a offset basis
            frames: 0,
            bytes: 0,
        }
    }
}

impl TraceDigest {
    #[inline]
    fn fold(digest: u64, b: u8) -> u64 {
        (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    }

    fn record(&mut self, at: SimTime, dev: usize, port: usize, frame: &[u8]) {
        // Fold through a local so the per-byte chain (this runs once per
        // delivered frame byte) stays in a register instead of bouncing
        // through `self`.
        let mut d = self.digest;
        for b in at.as_nanos().to_le_bytes() {
            d = Self::fold(d, b);
        }
        d = Self::fold(d, dev as u8);
        d = Self::fold(d, port as u8);
        for b in (frame.len() as u32).to_le_bytes() {
            d = Self::fold(d, b);
        }
        for &b in frame {
            d = Self::fold(d, b);
        }
        self.digest = d;
        self.frames += 1;
        self.bytes += frame.len() as u64;
    }
}

/// How contending app cVMs are scheduled against the Scenario 2 service
/// loop.
///
/// The paper's contended Table II rows are *unbalanced* on the client side
/// (531 vs 410 Mbit/s), which the authors attribute to "the lack of
/// mechanisms for fairness control" — their service mutex lets whichever
/// cVM retries first barge ahead. [`AppSched::Barging`] models that
/// testbed behavior; [`AppSched::RoundRobin`] (the default here) is the
/// fairness-control fix the paper defers to future work, under which the
/// contended flows split the port evenly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AppSched {
    /// Every app cVM steps once per service-loop turn (FIFO-fair).
    #[default]
    RoundRobin,
    /// The first app cVM runs every turn; each later cVM is only granted
    /// `grant` of every `period` turns, as when an unfair mutex plus the
    /// OS scheduler systematically favor one waiter.
    Barging {
        /// Turns (out of `period`) in which a non-first cVM may step.
        grant: u32,
        /// The scheduling period in loop turns.
        period: u32,
    },
    /// Explicit QoS (the paper's deferred future work, via
    /// [`updk::qos`]-style weighted service): the second app cVM steps in
    /// proportion `weight_rest / weight_first` of the first's turns, in
    /// starvation-free convoys. `Weighted { 1, 1 }` behaves like
    /// [`AppSched::RoundRobin`]; `Weighted { 2, 1 }` gives the first cVM
    /// twice the client bandwidth.
    Weighted {
        /// Service weight of the first app cVM.
        weight_first: u32,
        /// Service weight of every other app cVM.
        weight_rest: u32,
    },
}

impl AppSched {
    /// The paper's testbed asymmetry, calibrated so the contended client
    /// split lands near Table II's 531/410 Mbit/s.
    ///
    /// The denial windows must be *convoys* (hundreds of loop turns), not
    /// per-turn interleaving: TCP's send buffer rides out short denials,
    /// so only a starvation burst long enough to drain the buffer (≈130 µs
    /// at line rate) shifts bandwidth — which is exactly how a mutex convoy
    /// plus an unfair scheduler starve a waiter in the real system.
    pub fn paper_barging() -> Self {
        AppSched::Barging {
            grant: 950,
            period: 2_000,
        }
    }

    /// Whether app index `idx` gets to step on loop turn `turn`.
    fn allows(&self, idx: usize, turn: u64) -> bool {
        match *self {
            AppSched::RoundRobin => true,
            AppSched::Barging { grant, period } => {
                idx == 0 || (turn % u64::from(period.max(1))) < u64::from(grant)
            }
            AppSched::Weighted {
                weight_first,
                weight_rest,
            } => {
                // Time-division service in convoys of QUANTUM turns per
                // weight point: long enough that the active flow's TCP
                // pipeline saturates the port during its window, so the
                // bandwidth split equals the weight ratio.
                const QUANTUM: u64 = 500;
                let wf = u64::from(weight_first.max(1)) * QUANTUM;
                let wr = u64::from(weight_rest.max(1)) * QUANTUM;
                let pos = turn % (wf + wr);
                if idx == 0 {
                    pos < wf
                } else {
                    pos >= wf
                }
            }
        }
    }
}

/// Per-node isolation charges for the active scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct IsolationProfile {
    /// Extra nanoseconds charged per application `ff_*` call (0 for
    /// Baseline and Scenario 1 — their `ff_*` calls stay inside one
    /// protection domain; Scenario 2 charges the wrapper cross-call).
    pub per_ff_call_ns: u64,
    /// This node's main loop serializes on the Scenario 2 service mutex.
    pub s2_service: bool,
}

/// Declarative per-node protocol configuration for
/// [`NetSim::configure_node`]: `None` fields keep the stack's current
/// setting, so one struct update can adjust a single knob or several at
/// once. Replaces the accreting `set_node_*` setter family (which now
/// delegate here).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeConfig {
    /// TCP congestion-control algorithm for connections opened or
    /// accepted from now on.
    pub cc: Option<CcAlgo>,
    /// SACK negotiation for connections opened or accepted from now on
    /// (both ends must enable it to be active on a connection).
    pub sack: Option<bool>,
}

struct Node {
    name: String,
    dev: usize,
    port: usize,
    mem: usize,
    stack: FStack,
    /// The node's apps in step order: (class rank, install order).
    apps: Vec<AppSlot>,
    profile: IsolationProfile,
    turns: u64,
    /// `true` when app steps are gated on the stack's dirty-fd set (ideal
    /// measurement hosts only — nodes with per-call isolation charges or
    /// the S2 service mutex step every app every turn, since their skipped
    /// `ff_*` calls would change the accounted iteration cost). Resolved
    /// at `run()` start.
    gated: bool,
    /// fd → index into `apps`, for dirty-fd routing.
    app_of_fd: Vec<Option<u32>>,
    /// Per-app "a step could progress" flags, indexed like `apps`.
    runnable: Vec<bool>,
    /// Scratch for draining the stack's dirty-fd set (no per-turn alloc).
    fd_scratch: Vec<chos::fdtable::Fd>,
    /// What this node's port is cabled to, resolved once at `run()` start
    /// so the TX hot path never touches the topology `HashMap`.
    cabled: Option<Ep>,
    /// `true` while the node's poll loop is parked (quiescent, no event
    /// scheduled except possibly a [`NetEvent::Wake`] at a known deadline).
    parked: bool,
    /// Park generation; bumped on every park and wake. Scheduled wakes are
    /// cancelled in place when superseded, so a dispatched wake must always
    /// match — the epoch survives as the debug assertion of that invariant.
    epoch: u64,
    /// The handle of the pending scheduled [`NetEvent::Wake`], if any, so a
    /// superseding wake (an early frame delivery) cancels it in place
    /// instead of leaving it to dispatch stale.
    wake: Option<EventHandle>,
    /// While parked: the instant the next poll iteration *would* have run.
    /// Wakes land on this lattice (`anchor + k·mainloop_idle_ns`), so a
    /// woken loop observes the world at exactly the instants the
    /// unconditional polling loop would have — wire behavior is preserved
    /// bit for bit.
    anchor: SimTime,
    /// `true` between a [`Fault::NodeCrash`] and its restart: the poll
    /// loop is dead, the stack is an empty husk, and arriving frames are
    /// discarded at the NIC.
    crashed: bool,
}

impl Node {
    /// Marks every app runnable and rebuilds the dirty-fd routing from
    /// each app's fds (run start and restart).
    fn route_fds(&mut self) {
        self.runnable = vec![true; self.apps.len()];
        for (slot, a) in self.apps.iter_mut().enumerate() {
            if let Some(app) = &mut a.app {
                let app_of_fd = &mut self.app_of_fd;
                let slot = slot as u32;
                app.fds(false, &mut FdRoute { app_of_fd, slot });
            }
        }
    }

    /// Takes every live app's report into `out`, in step order.
    fn report(&mut self, end: SimTime, out: &mut SimOutcome) {
        for app in self.apps.iter_mut().filter_map(|a| a.app.take()) {
            app.report(end, out);
        }
    }
}

/// One cross-shard event in flight between lookahead windows: a frame
/// delivery or switch hop whose destination lives in another shard. The
/// [`OrderKey`] built by the sending engine makes the injected event sort
/// exactly where the single-engine run would have dispatched it.
struct XEvent {
    at: SimTime,
    key: OrderKey,
    /// `true`: a [`NetEvent::SwitchHop`] to switch `obj`; `false`: a
    /// [`NetEvent::Deliver`] to device `obj`.
    to_switch: bool,
    obj: u32,
    port: u32,
    /// The frame itself: every shard shares the calling thread's buffer
    /// pool, so the handoff is a refcount bump, never a copy.
    frame: Frame,
}

/// One deferred trace-digest fold of a sharded run: the delivery's
/// identity plus the dispatch key it sorted under. Folding the merged,
/// key-sorted log reproduces the byte-exact digest of the single-engine
/// run (which folds inline, in dispatch order).
struct DeliveryRecord {
    at: SimTime,
    key: OrderKey,
    dev: u32,
    port: u32,
    frame: Frame,
}

/// Per-shard execution context, present only while a sharded run drives
/// this `NetSim` as one of its shard worlds.
struct ShardCtx {
    /// This shard's id.
    id: u32,
    /// Owning shard per node / per device / per switch (global indices).
    node_shard: Vec<u32>,
    dev_shard: Vec<u32>,
    sw_shard: Vec<u32>,
    /// Cross-shard events generated this window, per destination shard;
    /// exchanged at the end of the round.
    outbox: Vec<Vec<XEvent>>,
    /// Driver tallies for this shard (merged into
    /// [`SimOutcome::rounds`] at the end of the run).
    rounds: RoundCounters,
    /// Deferred digest folds, in this shard's execution order (so the
    /// front is always the oldest). The window driver drains and folds
    /// finalized entries every round, bounding retained frames to
    /// roughly one window's deliveries.
    log: std::collections::VecDeque<DeliveryRecord>,
}

/// A shard world paired with its engine — the unit the window driver
/// multiplexes.
struct ShardRun {
    sim: NetSim,
    engine: Engine<NetSim>,
}

/// The assembled simulation world (driven by [`Engine`] events).
pub struct NetSim {
    costs: CostModel,
    devs: Vec<EthDev>,
    mems: Vec<TaggedMemory>,
    mem_bump: Vec<u64>,
    nodes: Vec<Node>,
    links: HashMap<Ep, Ep>,
    switches: Vec<LinkFabric>,
    trace: TraceDigest,
    wire: Wire,
    impairments: Impairments,
    impairment_stats: ImpairmentStats,
    app_sched: AppSched,
    s2_mutex: Option<ServiceMutex>,
    stop_at: SimTime,
    /// Master seed; per-destination-port impairment streams derive from it
    /// at `run()` start (see [`NetSim::port_rng`]).
    seed: u64,
    /// Per-`(dev, port)` impairment RNG streams, derived from the master
    /// seed at `run()` start. Every delivery toward a given NIC port draws
    /// from that port's own stream; since all deliveries to a port come
    /// from its single cabled peer, the draw order is a pure function of
    /// that peer's (deterministic) execution — which is what keeps lossy
    /// runs byte-identical at any worker count.
    port_rng: Vec<Vec<SimRng>>,
    kmod: BindingRegistry,
    next_pci: u8,
    counters: EventCounters,
    /// `(dev, port)` → owning node index, resolved at `run()` start so a
    /// delivery can wake the parked loop that polls that port.
    dev_owner: Vec<Vec<Option<usize>>>,
    /// Switch egress cables (`sw_cabled[sw][port]`), resolved at `run()`
    /// start for the forwarding hot path.
    sw_cabled: Vec<Vec<Option<Ep>>>,
    /// The idle poll period (from the cost model): the lattice step parked
    /// nodes wake on.
    idle_period: u64,
    /// Requested worker (shard) count for [`NetSim::run`]; 1 = the classic
    /// single-engine loop.
    workers: usize,
    /// `true` (the default): [`NetSim::run`] consults the
    /// [`Profitability`] model and transparently collapses an
    /// unprofitable shard plan to the single-engine loop. `false` forces
    /// the requested worker count (tests use this to actually exercise
    /// the sharded driver on small topologies).
    adaptive_workers: bool,
    /// Present while this instance is one shard of a sharded run.
    shard_ctx: Option<Box<ShardCtx>>,
    /// The scheduled fault plan as built ([`NetSim::add_fault`] order).
    fault_plan: Vec<(SimTime, Fault)>,
    /// The plan resolved against the cabling at `run()` start, replicated
    /// verbatim into every shard so fault event keys match everywhere.
    faults: Vec<(SimTime, ResolvedFault)>,
    /// Cable endpoints currently administratively down: a TX hop whose
    /// local endpoint is in this set blackholes the frame.
    link_down: std::collections::HashSet<Ep>,
    /// What the fault plan did (each fault tallied on its owner shard).
    fault_stats: FaultStats,
}

impl std::fmt::Debug for NetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSim")
            .field("nodes", &self.nodes.len())
            .field("devs", &self.devs.len())
            .finish()
    }
}

/// Default per-node memory arena.
const NODE_MEM: u64 = 4 << 20;
/// Packet pool region per port.
const POOL_BYTES: u64 = 1 << 20;
/// App buffer size (per ff_read/ff_write call).
const APP_BUF: u64 = 16 * 1024;

impl NetSim {
    /// Creates an empty simulation with the given cost model.
    pub fn new(costs: CostModel) -> Self {
        let idle_period = costs.mainloop_idle_ns.max(1);
        NetSim {
            costs,
            devs: Vec::new(),
            mems: Vec::new(),
            mem_bump: Vec::new(),
            nodes: Vec::new(),
            links: HashMap::new(),
            switches: Vec::new(),
            trace: TraceDigest::default(),
            wire: Wire::new(SimDuration::from_nanos(1_000)),
            impairments: Impairments::default(),
            impairment_stats: ImpairmentStats::default(),
            app_sched: AppSched::default(),
            s2_mutex: None,
            stop_at: SimTime::MAX,
            seed: 0xCAB1E,
            port_rng: Vec::new(),
            kmod: BindingRegistry::new(),
            next_pci: 3,
            counters: EventCounters::default(),
            dev_owner: Vec::new(),
            sw_cabled: Vec::new(),
            idle_period,
            workers: 1,
            adaptive_workers: true,
            shard_ctx: None,
            fault_plan: Vec::new(),
            faults: Vec::new(),
            link_down: std::collections::HashSet::new(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Sets the worker (shard) count for [`NetSim::run`].
    ///
    /// At `n > 1` the topology is partitioned into up to `n` shards, each
    /// driven by its own engine in conservative lookahead windows, with
    /// cross-shard frames exchanged between windows. Wire behavior is
    /// **byte-identical at any worker count** — same trace digest, same
    /// reports, same counters; `n = 1` (the default) is exactly the classic
    /// single-engine loop. The shards are multiplexed on the calling
    /// thread: a 128-leaf star averages ~4 events per window, far too few
    /// for a cross-thread rendezvous to pay for itself.
    pub fn set_workers(&mut self, n: usize) {
        self.workers = n.max(1);
    }

    /// Enables/disables adaptive worker selection (default: enabled).
    ///
    /// When enabled, a sharded run first asks the [`Profitability`] model
    /// whether the plan's estimated events per rendezvous round cover the
    /// host cost of driving a round; if not, the run transparently
    /// collapses to the single-engine loop ([`SimOutcome::workers`]
    /// reports `1`). Results are byte-identical either way — this knob
    /// only decides which identical-result execution path runs, and
    /// exists so tests and benchmarks can force small topologies through
    /// the sharded driver.
    pub fn set_adaptive_workers(&mut self, adaptive: bool) {
        self.adaptive_workers = adaptive;
    }

    /// Adds a NIC of `model` (kernel-detached and ready to configure).
    pub fn add_dev(&mut self, model: NicModel) -> Result<DevId, CapnetError> {
        let addr = PciAddress::new(0, self.next_pci, 0);
        self.next_pci += 1;
        self.kmod
            .discover(addr, "Intel 82576 Gigabit Network Connection");
        self.kmod.bind_userspace(addr)?;
        self.devs.push(EthDev::new(addr, model, self.costs.clone()));
        Ok(DevId(self.devs.len() - 1))
    }

    /// Cables `(a, port_a)` to `(b, port_b)` (full duplex).
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] if a port index is out of range for its
    /// device, if both endpoints are the same port, or if either port is
    /// already cabled (to a device or a switch) — a port holds one cable.
    pub fn link(
        &mut self,
        a: DevId,
        port_a: usize,
        b: DevId,
        port_b: usize,
    ) -> Result<(), CapnetError> {
        let ea = self.dev_ep(a, port_a)?;
        let eb = self.dev_ep(b, port_b)?;
        self.connect(ea, eb)
    }

    /// Adds an N-port [`LinkFabric`] learning switch with the default
    /// egress queue depth ([`LinkFabric::DEFAULT_QUEUE`]).
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] if `ports < 2`.
    pub fn add_switch(&mut self, ports: usize) -> Result<SwitchId, CapnetError> {
        self.add_switch_with_queue(ports, LinkFabric::DEFAULT_QUEUE)
    }

    /// [`NetSim::add_switch`] with an explicit per-port egress queue depth
    /// (frames); shallow queues drop earlier under convergence, deep queues
    /// trade drops for latency.
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] if `ports < 2` or `queue == 0`.
    pub fn add_switch_with_queue(
        &mut self,
        ports: usize,
        queue: usize,
    ) -> Result<SwitchId, CapnetError> {
        if ports < 2 {
            return Err(CapnetError::Config(format!(
                "a switch needs at least 2 ports, got {ports}"
            )));
        }
        if queue == 0 {
            return Err(CapnetError::Config(
                "switch egress queue depth must be nonzero".into(),
            ));
        }
        self.switches.push(LinkFabric::new(ports, queue));
        Ok(SwitchId(self.switches.len() - 1))
    }

    /// Cables NIC port `(dev, dev_port)` into switch port `(sw, sw_port)`.
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] on out-of-range ports or already-cabled
    /// endpoints.
    pub fn attach(
        &mut self,
        dev: DevId,
        dev_port: usize,
        sw: SwitchId,
        sw_port: usize,
    ) -> Result<(), CapnetError> {
        let ed = self.dev_ep(dev, dev_port)?;
        let es = self.sw_ep(sw, sw_port)?;
        self.connect(ed, es)
    }

    /// Trunks two switches together: `(a, port_a)` to `(b, port_b)`. The
    /// resulting graph must stay loop-free (tree topologies: star, chain,
    /// dumbbell) — there is no spanning-tree protocol, so a cycle floods
    /// forever.
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] on out-of-range ports, a self-trunk, or
    /// already-cabled endpoints.
    pub fn link_switches(
        &mut self,
        a: SwitchId,
        port_a: usize,
        b: SwitchId,
        port_b: usize,
    ) -> Result<(), CapnetError> {
        let ea = self.sw_ep(a, port_a)?;
        let eb = self.sw_ep(b, port_b)?;
        self.connect(ea, eb)
    }

    fn dev_ep(&self, dev: DevId, port: usize) -> Result<Ep, CapnetError> {
        let ports = self
            .devs
            .get(dev.0)
            .ok_or_else(|| CapnetError::Config(format!("no such device {}", dev.0)))?
            .port_count();
        if port >= ports {
            return Err(CapnetError::Config(format!(
                "device {} has {ports} port(s), no port {port}",
                dev.0
            )));
        }
        Ok(Ep::Dev(dev.0, port))
    }

    fn sw_ep(&self, sw: SwitchId, port: usize) -> Result<Ep, CapnetError> {
        let ports = self
            .switches
            .get(sw.0)
            .ok_or_else(|| CapnetError::Config(format!("no such switch {}", sw.0)))?
            .port_count();
        if port >= ports {
            return Err(CapnetError::Config(format!(
                "switch {} has {ports} port(s), no port {port}",
                sw.0
            )));
        }
        Ok(Ep::Sw(sw.0, port))
    }

    fn connect(&mut self, a: Ep, b: Ep) -> Result<(), CapnetError> {
        if a == b {
            return Err(CapnetError::Config(format!("cannot cable {a} to itself")));
        }
        for ep in [a, b] {
            if let Some(peer) = self.links.get(&ep) {
                return Err(CapnetError::Config(format!(
                    "{ep} is already cabled to {peer}"
                )));
            }
        }
        self.links.insert(a, b);
        self.links.insert(b, a);
        Ok(())
    }

    /// Degrades frame delivery with `imp` (loss, corruption, duplication,
    /// reordering, jitter). The default is the ideal cabling of the paper's
    /// testbed. Impairments are applied **once per end-to-end path**, on
    /// the final hop into the destination NIC — on a pairwise link that is
    /// the cable itself; on a switched path the switch hops stay clean and
    /// the last switch-to-NIC cable degrades (loss does *not* compound
    /// with hop count). Decisions are drawn from the simulation's
    /// deterministic RNG, so runs stay reproducible.
    pub fn set_impairments(&mut self, imp: Impairments) {
        self.impairments = imp;
    }

    /// Selects how contending app cVMs are scheduled (see [`AppSched`]).
    pub fn set_app_sched(&mut self, sched: AppSched) {
        self.app_sched = sched;
    }

    /// Reseeds the simulation's deterministic RNG (which drives impairment
    /// draws). Two simulations built identically and seeded identically
    /// produce identical outcomes; without a call the fixed default seed
    /// applies, so unseeded runs are already reproducible.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The per-destination-port impairment stream: the master seed mixed
    /// with the port's identity, so each cable's draws are independent of
    /// every other cable's — and of how the simulation is sharded.
    fn derive_port_rng(seed: u64, dev: usize, port: usize) -> SimRng {
        let mix = seed
            ^ (dev as u64 + 1).wrapping_mul(0x0000_0100_0000_01B3)
            ^ (port as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(mix)
    }

    /// Creates a node: its own memory arena, a stack on `(dev, port)` with
    /// address `ip`, and the given isolation profile.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        dev: DevId,
        port: usize,
        ip: Ipv4Addr,
        profile: IsolationProfile,
    ) -> Result<NodeId, CapnetError> {
        let name = name.into();
        let mem_idx = self.mems.len();
        let mut mem = TaggedMemory::new(NODE_MEM);
        // Carve the packet pool ("correct permission flags") and configure.
        let region = mem
            .root_cap()
            .try_restrict(4096, POOL_BYTES)?
            .try_restrict_perms(cheri::Perms::data())?;
        self.devs[dev.0].configure_port(port, &mut mem, region, 512)?;
        let mac = self.devs[dev.0].mac(port);
        let stack = FStack::new(StackConfig::new(name.clone(), mac, ip));
        self.mems.push(mem);
        self.mem_bump.push(4096 + POOL_BYTES);
        if profile.s2_service && self.s2_mutex.is_none() {
            self.s2_mutex = Some(ServiceMutex::new(&self.costs));
        }
        self.nodes.push(Node {
            name,
            dev: dev.0,
            port,
            mem: mem_idx,
            stack,
            apps: Vec::new(),
            profile,
            turns: 0,
            gated: false,
            app_of_fd: Vec::new(),
            runnable: Vec::new(),
            fd_scratch: Vec::new(),
            cabled: None,
            parked: false,
            epoch: 0,
            wake: None,
            anchor: SimTime::ZERO,
            crashed: false,
        });
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Replaces `node`'s isolation profile. Profiles are only read when
    /// the run starts (loop gating, per-call charges), so any point
    /// between [`Self::add_node`] and [`Self::run`] works — scenario
    /// builders use this to re-cost prebuilt topologies.
    pub fn set_node_profile(&mut self, node: NodeId, profile: IsolationProfile) {
        if profile.s2_service && self.s2_mutex.is_none() {
            self.s2_mutex = Some(ServiceMutex::new(&self.costs));
        }
        self.nodes[node.0].profile = profile;
    }

    /// Applies a [`NodeConfig`] to `node`'s stack: each `Some` field is
    /// set, each `None` leaves the current value. Call between
    /// [`Self::add_node`] and app installation — clients connect the
    /// moment they are installed, so a later change won't touch them.
    pub fn configure_node(&mut self, node: NodeId, cfg: NodeConfig) {
        let stack = &mut self.nodes[node.0].stack;
        if let Some(cc) = cfg.cc {
            stack.set_cc(cc);
        }
        if let Some(sack) = cfg.sack {
            stack.set_sack(sack);
        }
    }

    /// Selects the TCP congestion-control algorithm for connections this
    /// node opens or accepts from now on. Same ordering rule as
    /// [`Self::configure_node`], which this delegates to.
    pub fn set_node_cc(&mut self, node: NodeId, cc: CcAlgo) {
        self.configure_node(
            node,
            NodeConfig {
                cc: Some(cc),
                ..NodeConfig::default()
            },
        );
    }

    /// Enables (or disables) SACK negotiation for connections this node
    /// opens or accepts from now on. Both ends must enable it for SACK to
    /// be active on a connection. Same ordering rule as
    /// [`Self::configure_node`], which this delegates to.
    pub fn set_node_sack(&mut self, node: NodeId, sack: bool) {
        self.configure_node(
            node,
            NodeConfig {
                sack: Some(sack),
                ..NodeConfig::default()
            },
        );
    }

    /// Carves a fresh `APP_BUF`-sized app buffer out of `node`'s arena,
    /// optionally filled with byte `fill`.
    pub(crate) fn carve_app_buf(
        &mut self,
        node: NodeId,
        fill: Option<u8>,
    ) -> Result<Capability, CapnetError> {
        let mem_idx = self.nodes[node.0].mem;
        let base = self.mem_bump[mem_idx].next_multiple_of(16);
        self.mem_bump[mem_idx] = base + APP_BUF;
        let cap = self.mems[mem_idx]
            .root_cap()
            .try_restrict(base, APP_BUF)?
            .try_restrict_perms(cheri::Perms::data())?;
        if let Some(b) = fill {
            self.mems[mem_idx].fill(&cap, base, APP_BUF, b)?;
        }
        Ok(cap)
    }

    /// The RNG seed of the next `class` app on `node`: the scenario seed
    /// mixed with the node index, the app's ordinal within its class on
    /// that node, and a per-class `salt` that keeps the streams apart.
    pub(crate) fn app_seed(&self, node: NodeId, class: AppClass, salt: u64) -> u64 {
        let slot = self.nodes[node.0]
            .apps
            .iter()
            .filter(|a| a.class == class)
            .count();
        self.seed
            ^ (node.0 as u64 + 1).wrapping_mul(0x0000_0100_0000_01B3)
            ^ (slot as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt
    }

    /// Builds an app from its blueprint at t=0 and slots it into `node`'s
    /// list after every app of the same or lower class rank.
    pub(crate) fn install(
        &mut self,
        node: NodeId,
        class: AppClass,
        respawn: Respawn,
    ) -> Result<(), CapnetError> {
        let n = &mut self.nodes[node.0];
        let app = respawn(&mut n.stack, SimTime::ZERO)?;
        let at = n.apps.partition_point(|a| a.class <= class);
        n.apps.insert(
            at,
            AppSlot {
                class,
                clocked: app.clocked(),
                respawn,
                app: Some(app),
            },
        );
        Ok(())
    }

    /// Schedules an infrastructure fault at virtual instant `at`. Faults
    /// are resolved against the cabling when the run starts and executed
    /// as first-class engine events, so an identical plan produces
    /// byte-identical runs at any worker count; an empty plan leaves the
    /// run untouched (no events, no draws, no digest change).
    pub fn add_fault(&mut self, at: SimTime, fault: Fault) {
        self.fault_plan.push((at, fault));
    }

    /// Resolves the built fault plan against the cabling: link faults pin
    /// both endpoints of the target cable (the TX blackhole check is
    /// local to whichever side transmits), node/switch faults validate
    /// their targets exist. Runs on the parent simulation **before**
    /// sharding — shadow nodes carry no cabling to resolve against.
    fn resolve_faults(&mut self) -> Result<(), CapnetError> {
        self.faults.clear();
        for &(at, fault) in &self.fault_plan {
            let resolved = match fault {
                Fault::LinkDown { node } | Fault::LinkUp { node } => {
                    let n = self
                        .nodes
                        .get(node.0)
                        .ok_or_else(|| CapnetError::Config(format!("no such node {}", node.0)))?;
                    let a = Ep::Dev(n.dev, n.port);
                    let b = *self.links.get(&a).ok_or_else(|| {
                        CapnetError::Config(format!(
                            "link fault on node {} ({a}), which is not cabled",
                            node.0
                        ))
                    })?;
                    let dev = n.dev;
                    if matches!(fault, Fault::LinkDown { .. }) {
                        ResolvedFault::LinkDown { a, b, dev }
                    } else {
                        ResolvedFault::LinkUp { a, b, dev }
                    }
                }
                Fault::SwitchFail { sw } => {
                    if sw.0 >= self.switches.len() {
                        return Err(CapnetError::Config(format!("no such switch {}", sw.0)));
                    }
                    ResolvedFault::SwitchFail { sw: sw.0 }
                }
                Fault::SwitchRecover { sw } => {
                    if sw.0 >= self.switches.len() {
                        return Err(CapnetError::Config(format!("no such switch {}", sw.0)));
                    }
                    ResolvedFault::SwitchRecover { sw: sw.0 }
                }
                Fault::NodeCrash { node } => {
                    if node.0 >= self.nodes.len() {
                        return Err(CapnetError::Config(format!("no such node {}", node.0)));
                    }
                    ResolvedFault::NodeCrash { node: node.0 }
                }
                Fault::NodeRestart { node } => {
                    if node.0 >= self.nodes.len() {
                        return Err(CapnetError::Config(format!("no such node {}", node.0)));
                    }
                    ResolvedFault::NodeRestart { node: node.0 }
                }
            };
            self.faults.push((at, resolved));
        }
        Ok(())
    }

    /// Starts every device.
    fn start_devices(&mut self) -> Result<(), CapnetError> {
        for dev in &mut self.devs {
            dev.start(&self.kmod)?;
        }
        Ok(())
    }

    /// Runs the simulation for `duration` of virtual time and returns the
    /// application reports, in node/app installation order.
    ///
    /// # Errors
    ///
    /// Configuration errors (unstarted devices, bad links); datapath
    /// capability faults abort the run as errors.
    pub fn run(mut self, duration: SimDuration) -> Result<SimOutcome, CapnetError> {
        self.start_devices()?;
        self.stop_at = SimTime::ZERO + duration;
        self.resolve_caches();
        self.resolve_faults()?;
        if self.workers > 1 {
            self.run_sharded()
        } else {
            let hint = self.would_be_lookahead();
            self.run_single(hint)
        }
    }

    /// The tightest window a 2-shard plan of this topology would run
    /// under — reported by single-engine runs as
    /// [`SimOutcome::lookahead_ns`], so bench output shows the would-be
    /// window width even for runs that never shard (`0` when a 2-way
    /// plan does not exist or cuts no cable).
    fn would_be_lookahead(&self) -> u64 {
        let graph = self.shard_graph();
        let plan = partition_shards(&graph, 2);
        if plan.workers < 2 {
            return 0;
        }
        let dev_shard = self.dev_shards(&plan);
        let sw_shard: Vec<u32> = plan.switch_shard.iter().map(|&s| s as u32).collect();
        self.lookahead_matrix(&dev_shard, &sw_shard, plan.workers)
            .min_finite()
            .unwrap_or(0)
    }

    /// Resolves the topology once: each node's cabled endpoint, each
    /// switch port's cable, which node owns each NIC port (so deliveries
    /// can wake parked loops), the per-port impairment RNG streams, and
    /// the dirty-fd app routing. The event hot path never touches the
    /// `links` HashMap again.
    fn resolve_caches(&mut self) {
        self.dev_owner = self
            .devs
            .iter()
            .map(|d| vec![None; d.port_count()])
            .collect();
        for i in 0..self.nodes.len() {
            let (d, p) = (self.nodes[i].dev, self.nodes[i].port);
            self.nodes[i].cabled = self.links.get(&Ep::Dev(d, p)).copied();
            self.dev_owner[d][p] = Some(i);
            let node = &mut self.nodes[i];
            node.gated = node.profile.per_ff_call_ns == 0 && !node.profile.s2_service;
            node.route_fds();
        }
        self.sw_cabled = self
            .switches
            .iter()
            .enumerate()
            .map(|(s, sw)| {
                (0..sw.port_count())
                    .map(|p| self.links.get(&Ep::Sw(s, p)).copied())
                    .collect()
            })
            .collect();
        let seed = self.seed;
        self.port_rng = self
            .devs
            .iter()
            .enumerate()
            .map(|(d, dev)| {
                (0..dev.port_count())
                    .map(|p| Self::derive_port_rng(seed, d, p))
                    .collect()
            })
            .collect();
    }

    /// Schedules every node's staggered first loop iteration (the hosts
    /// boot independently, so iterations do not run in lockstep). A shard
    /// schedules only the nodes it owns; the init origin and global node
    /// indices keep the keys consistent with the single-engine run.
    fn schedule_boot(&self, engine: &mut Engine<NetSim>) {
        let init_origin = self.init_origin();
        for i in 0..self.nodes.len() {
            if let Some(ctx) = &self.shard_ctx {
                if ctx.node_shard[i] != ctx.id {
                    continue;
                }
            }
            let at = SimTime::from_nanos(97 * (i as u64 + 1));
            engine.schedule_from(init_origin, at, NetEvent::LoopIter { node: i });
        }
        // The fault plan is scheduled on EVERY shard, in plan order from
        // a dedicated origin: identical keys and instants everywhere, so
        // each shard observes the same fault lattice the single-engine
        // run does and applies the locally-owned slice of each fault.
        let fault_origin = self.fault_origin();
        for (idx, &(at, _)) in self.faults.iter().enumerate() {
            engine.schedule_from(fault_origin, at, NetEvent::Fault { idx });
        }
    }

    /// The classic single-engine run (`workers == 1`): one calendar, one
    /// loop — the path the pinned trace digests prove unchanged.
    /// `lookahead_hint` is purely informational: the window width a shard
    /// plan of this topology would run (or would have run) under.
    fn run_single(mut self, lookahead_hint: u64) -> Result<SimOutcome, CapnetError> {
        let mut engine: Engine<NetSim> = Engine::new();
        self.schedule_boot(&mut engine);
        let stop = self.stop_at;
        engine.run_until(&mut self, stop);
        let end = engine.now();
        let events = engine.executed();
        self.counters.boxed_events = engine.boxed_scheduled();

        let mut port_stats = Vec::new();
        let mut stack_stats = Vec::new();
        for node in &self.nodes {
            port_stats.push((node.name.clone(), self.devs[node.dev].stats(node.port)));
            stack_stats.push((node.name.clone(), node.stack.stats()));
        }
        let switch_stats = self.switches.iter().map(LinkFabric::stats).collect();
        let mutex_stats = self
            .s2_mutex
            .as_ref()
            .map(|m| (m.acquisitions(), m.contentions(), m.total_wait()));
        let mut out = SimOutcome {
            servers: Vec::new(),
            clients: Vec::new(),
            http_servers: Vec::new(),
            http_fleets: Vec::new(),
            chaos: Vec::new(),
            ended_at: end,
            horizon: stop,
            events,
            counters: self.counters,
            port_stats,
            stack_stats,
            switch_stats,
            mutex_stats,
            impairment_stats: self.impairment_stats,
            fault_stats: self.fault_stats,
            trace: self.trace,
            workers: 1,
            lookahead_ns: lookahead_hint,
            rounds: RoundCounters::default(),
        };
        for node in &mut self.nodes {
            node.report(end, &mut out);
        }
        Ok(out)
    }

    /// The topology/constraint view the shard partitioner plans over.
    fn shard_graph(&self) -> ShardGraph {
        let mut g = ShardGraph {
            nodes: self.nodes.len(),
            switches: self.switches.len(),
            node_weight: self.nodes.iter().map(|n| 1 + n.apps.len() as u64).collect(),
            ..ShardGraph::default()
        };
        for (i, node) in self.nodes.iter().enumerate() {
            match node.cabled {
                Some(Ep::Sw(sw, _)) => g.attachments.push((i, sw)),
                Some(Ep::Dev(d, p)) => {
                    // Direct cable: co-locate the two ends (zero barrier
                    // traffic); record once per pair.
                    if let Some(j) = self.dev_owner[d][p] {
                        if i < j {
                            g.node_links.push((i, j));
                        }
                    }
                }
                None => {}
            }
        }
        for (s, ports) in self.sw_cabled.iter().enumerate() {
            for ep in ports.iter().flatten() {
                if let Ep::Sw(s2, _) = *ep {
                    if s < s2 {
                        g.trunks.push((s, s2));
                    }
                }
            }
        }
        // Nodes sharing a multi-port device must co-shard (they share its
        // rings and PCI bus model); iterate devices in index order so the
        // plan is deterministic.
        for owners in &self.dev_owner {
            let group: Vec<usize> = owners.iter().flatten().copied().collect();
            if group.len() > 1 {
                g.bind_groups.push(group);
            }
        }
        // Scenario hosts (per-call isolation charges, the S2 service
        // mutex) interact through shared state — keep them together.
        let scenario: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.profile.s2_service || n.profile.per_ff_call_ns > 0)
            .map(|(i, _)| i)
            .collect();
        if scenario.len() > 1 {
            g.bind_groups.push(scenario);
        }
        g
    }

    /// Owning shard per device: a device follows its owning node(s); an
    /// unowned device (a cable endpoint without a stack) follows its peer.
    fn dev_shards(&self, plan: &ShardPlan) -> Vec<u32> {
        let mut dev_shard = vec![u32::MAX; self.devs.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            dev_shard[n.dev] = plan.node_shard[i] as u32;
        }
        for d in 0..self.devs.len() {
            if dev_shard[d] != u32::MAX {
                continue;
            }
            let mut shard = 0;
            for p in 0..self.devs[d].port_count() {
                match self.links.get(&Ep::Dev(d, p)) {
                    Some(Ep::Sw(sw, _)) => {
                        shard = plan.switch_shard[*sw] as u32;
                        break;
                    }
                    Some(Ep::Dev(pd, _)) if dev_shard[*pd] != u32::MAX => {
                        shard = dev_shard[*pd];
                        break;
                    }
                    _ => {}
                }
            }
            dev_shard[d] = shard;
        }
        dev_shard
    }

    /// The conservative lookahead of a shard plan, per **directed shard
    /// pair**: every cut-cable traversal pays at least its link class's
    /// floor ([`CostModel::link_floor_ns`] — minimum-frame serialization,
    /// NIC- or switch-side, plus propagation), so a shard only waits on
    /// the cut paths that can actually reach it rather than on the single
    /// tightest edge anywhere in the topology (what the old scalar
    /// lookahead throttled every window to). The nominal model floor is
    /// clamped by the cable actually in use, in case a model claims more
    /// propagation than the wire delivers.
    fn lookahead_matrix(
        &self,
        dev_shard: &[u32],
        sw_shard: &[u32],
        workers: usize,
    ) -> LookaheadMatrix {
        let min_wire = MIN_FRAME as u64 + WIRE_OVERHEAD;
        let cable = self.wire.latency().as_nanos() + self.costs.wire_cost(min_wire).as_nanos();
        let floor = |from_switch: bool| {
            let extra = if from_switch {
                self.costs.switch_latency_ns
            } else {
                0
            };
            self.costs
                .link_floor_ns(min_wire, from_switch)
                .min(cable + extra)
        };
        let shard_of = |ep: &Ep| match *ep {
            Ep::Dev(d, _) => dev_shard[d] as usize,
            Ep::Sw(s, _) => sw_shard[s] as usize,
        };
        let mut matrix = LookaheadMatrix::new(workers);
        for (a, b) in &self.links {
            // `links` stores both directions, so `a` is the emitting side.
            matrix.note_edge(shard_of(a), shard_of(b), floor(matches!(a, Ep::Sw(..))));
        }
        matrix.close();
        matrix
    }

    /// A placeholder for a foreign (other-shard) node slot: shard worlds
    /// keep full-length, globally indexed vectors so every handler keeps
    /// using global ids, and these slots are never touched.
    fn shadow_node(i: usize) -> Node {
        Node {
            name: String::new(),
            dev: 0,
            port: 0,
            mem: 0,
            stack: FStack::with_socket_capacity(
                StackConfig::new(
                    format!("shadow{i}"),
                    MacAddr::local(0),
                    Ipv4Addr::UNSPECIFIED,
                ),
                0, // never opens a socket; size no per-fd bookkeeping
            ),
            apps: Vec::new(),
            profile: IsolationProfile::default(),
            turns: 0,
            gated: false,
            app_of_fd: Vec::new(),
            runnable: Vec::new(),
            fd_scratch: Vec::new(),
            cabled: None,
            parked: false,
            epoch: 0,
            wake: None,
            anchor: SimTime::ZERO,
            crashed: false,
        }
    }

    /// Splits this simulation into shard worlds per `plan` and runs them
    /// in conservative lookahead windows, merging an outcome that is
    /// byte-identical to the single-engine run's.
    fn run_sharded(mut self) -> Result<SimOutcome, CapnetError> {
        let graph = self.shard_graph();
        let plan = partition_shards(&graph, self.workers);
        let dev_shard = self.dev_shards(&plan);
        let sw_shard: Vec<u32> = plan.switch_shard.iter().map(|&s| s as u32).collect();
        let matrix = self.lookahead_matrix(&dev_shard, &sw_shard, plan.workers);
        if matrix.min_finite() == Some(0) {
            // Degenerate cost model (zero-latency cut edges): no window
            // width is conservative, so run single-engine.
            return self.run_single(0);
        }
        if self.adaptive_workers {
            let total_weight: u64 = graph.node_weight.iter().sum();
            let fit = Profitability::assess(
                total_weight,
                matrix.min_finite(),
                self.idle_period,
                plan.workers,
            );
            if !fit.profitable {
                // The plan's windows are too narrow for its event density:
                // each rendezvous round would cost more host time than the
                // events it amortizes (the committed BENCH_parallel.json
                // showed 0.88–0.93x on exactly such plans). Collapse to
                // the byte-identical single-engine loop, still reporting
                // the window the plan would have run under.
                let hint = matrix.min_finite().unwrap_or(0);
                return self.run_single(hint);
            }
        }
        let stop = self.stop_at;
        let workers = plan.workers;

        // Build the shard worlds: every vector keeps its global length,
        // with foreign slots replaced by untouched placeholders; real
        // state MOVES to its owning shard.
        let mut cells: Vec<ShardRun> = (0..workers)
            .map(|sid| ShardRun {
                sim: NetSim {
                    costs: self.costs.clone(),
                    devs: Vec::with_capacity(self.devs.len()),
                    mems: Vec::with_capacity(self.mems.len()),
                    mem_bump: Vec::new(),
                    nodes: Vec::with_capacity(self.nodes.len()),
                    links: HashMap::new(),
                    switches: Vec::with_capacity(self.switches.len()),
                    trace: TraceDigest::default(),
                    wire: self.wire.clone(),
                    impairments: self.impairments,
                    impairment_stats: ImpairmentStats::default(),
                    app_sched: self.app_sched,
                    s2_mutex: None,
                    stop_at: stop,
                    seed: self.seed,
                    port_rng: self.port_rng.clone(),
                    kmod: BindingRegistry::new(),
                    next_pci: 0,
                    counters: EventCounters::default(),
                    dev_owner: self.dev_owner.clone(),
                    sw_cabled: self.sw_cabled.clone(),
                    idle_period: self.idle_period,
                    workers: 1,
                    adaptive_workers: true,
                    shard_ctx: Some(Box::new(ShardCtx {
                        id: sid as u32,
                        node_shard: plan.node_shard.iter().map(|&s| s as u32).collect(),
                        dev_shard: dev_shard.clone(),
                        sw_shard: sw_shard.clone(),
                        outbox: (0..workers).map(|_| Vec::new()).collect(),
                        rounds: RoundCounters::default(),
                        log: std::collections::VecDeque::new(),
                    })),
                    fault_plan: Vec::new(),
                    faults: self.faults.clone(),
                    link_down: std::collections::HashSet::new(),
                    fault_stats: FaultStats::default(),
                },
                engine: Engine::new(),
            })
            .collect();
        let costs = self.costs.clone();
        let s2_owner = self
            .nodes
            .iter()
            .position(|n| n.profile.s2_service)
            .map_or(0, |i| plan.node_shard[i]);
        for (i, node) in self.nodes.drain(..).enumerate() {
            let owner = plan.node_shard[i];
            for (sid, cell) in cells.iter_mut().enumerate() {
                if sid != owner {
                    cell.sim.nodes.push(Self::shadow_node(i));
                }
            }
            cells[owner].sim.nodes.push(node);
        }
        for (i, mem) in self.mems.drain(..).enumerate() {
            let owner = plan.node_shard[i];
            for (sid, cell) in cells.iter_mut().enumerate() {
                if sid != owner {
                    cell.sim.mems.push(TaggedMemory::new(16));
                }
            }
            cells[owner].sim.mems.push(mem);
        }
        for (d, dev) in self.devs.drain(..).enumerate() {
            let owner = dev_shard[d] as usize;
            for (sid, cell) in cells.iter_mut().enumerate() {
                if sid != owner {
                    cell.sim.devs.push(EthDev::new(
                        PciAddress::new(0, 0, 0),
                        NicModel::Host,
                        costs.clone(),
                    ));
                }
            }
            cells[owner].sim.devs.push(dev);
        }
        for (s, sw) in self.switches.drain(..).enumerate() {
            let owner = plan.switch_shard[s];
            for (sid, cell) in cells.iter_mut().enumerate() {
                if sid != owner {
                    cell.sim.switches.push(LinkFabric::new(2, 1));
                }
            }
            cells[owner].sim.switches.push(sw);
        }
        if let Some(m) = self.s2_mutex.take() {
            cells[s2_owner].sim.s2_mutex = Some(m);
        }
        for cell in cells.iter_mut() {
            let ShardRun { sim, engine } = cell;
            sim.schedule_boot(engine);
        }

        let mut trace = TraceDigest::default();
        Self::drive_windows_sequential(&mut cells, stop, &matrix, &mut trace);
        Ok(Self::merge_outcome(
            cells,
            &plan,
            stop,
            matrix.min_finite().unwrap_or(0),
            trace,
        ))
    }

    /// One-thread window multiplexing: each round runs every shard up to
    /// its safe bound ([`LookaheadMatrix::window_end`]), then exchanges
    /// and injects the cross-shard events generated in it — skipping the
    /// exchange sweep entirely on rounds where no shard produced any.
    /// Deferred digest entries older than every shard's next event are
    /// final, so they fold into `trace` as the run goes — retained frames
    /// stay bounded by a round's deliveries instead of the whole run's.
    fn drive_windows_sequential(
        cells: &mut [ShardRun],
        stop: SimTime,
        matrix: &LookaheadMatrix,
        trace: &mut TraceDigest,
    ) {
        let workers = cells.len();
        let mut inject: Vec<Vec<XEvent>> = (0..workers).map(|_| Vec::new()).collect();
        let mut nexts = vec![u64::MAX; workers];
        let mut final_folds: Vec<DeliveryRecord> = Vec::new();
        loop {
            for (cell, next) in cells.iter_mut().zip(nexts.iter_mut()) {
                *next = cell
                    .engine
                    .next_event_at()
                    .map_or(u64::MAX, |t| t.as_nanos());
            }
            let min_next = nexts.iter().copied().min().unwrap_or(u64::MAX);
            // No shard can execute anything before `min_next`, so every
            // logged delivery strictly older than it is final: fold those
            // now, in merged key order, and release their frames.
            if min_next > 0 {
                for cell in cells.iter_mut() {
                    let log = &mut cell.sim.shard_ctx.as_mut().expect("shard ctx").log;
                    while log.front().is_some_and(|r| r.at.as_nanos() < min_next) {
                        final_folds.push(log.pop_front().expect("checked front"));
                    }
                }
                if !final_folds.is_empty() {
                    final_folds.sort_unstable_by_key(|r| (r.at, r.key));
                    for r in final_folds.drain(..) {
                        trace.record(r.at, r.dev as usize, r.port as usize, r.frame.bytes());
                    }
                }
            }
            if min_next == u64::MAX || min_next > stop.as_nanos() {
                break;
            }
            let mut any_out = false;
            for (me, cell) in cells.iter_mut().enumerate() {
                let ctx = cell.sim.shard_ctx.as_mut().expect("shard ctx");
                ctx.rounds.rounds += 1;
                let end = matrix.window_end(&nexts, me);
                if nexts[me] >= end {
                    ctx.rounds.empty_rounds += 1;
                    continue; // nothing due inside this shard's bound
                }
                let ShardRun { sim, engine } = cell;
                if end > stop.as_nanos() {
                    engine.run_until(sim, stop);
                } else {
                    engine.run_window(sim, SimTime::from_nanos(end));
                }
                any_out = any_out
                    || sim
                        .shard_ctx
                        .as_ref()
                        .expect("shard ctx")
                        .outbox
                        .iter()
                        .any(|o| !o.is_empty());
            }
            if !any_out {
                continue;
            }
            for cell in cells.iter_mut() {
                let ctx = cell.sim.shard_ctx.as_mut().expect("shard ctx");
                for (dst, outgoing) in ctx.outbox.iter_mut().enumerate() {
                    if !outgoing.is_empty() {
                        inject[dst].append(outgoing);
                    }
                }
            }
            for (cell, incoming) in cells.iter_mut().zip(inject.iter_mut()) {
                Self::inject_sorted(cell, incoming);
            }
        }
    }

    /// Sorts a window's incoming cross-shard events by `(at, key)` — the
    /// single-engine dispatch order — and schedules them. Frames are used
    /// in place, never re-materialized.
    fn inject_sorted(cell: &mut ShardRun, incoming: &mut Vec<XEvent>) {
        if incoming.is_empty() {
            return;
        }
        incoming.sort_unstable_by_key(|x| (x.at, x.key));
        for x in incoming.drain(..) {
            let ev = if x.to_switch {
                NetEvent::SwitchHop {
                    sw: x.obj as usize,
                    port: x.port as usize,
                    at: x.at,
                    frame: x.frame,
                }
            } else {
                NetEvent::Deliver {
                    dev: x.obj as usize,
                    port: x.port as usize,
                    at: x.at,
                    frame: x.frame,
                }
            };
            cell.engine.schedule_injected(x.at, x.key, ev);
        }
    }

    /// Merges the shard worlds back into one [`SimOutcome`]: counters and
    /// stats sum, reports collect in global installation order, and the
    /// deferred delivery log folds into the trace digest in `(at, key)`
    /// order — the exact order the single-engine run folded inline.
    fn merge_outcome(
        mut cells: Vec<ShardRun>,
        plan: &ShardPlan,
        stop: SimTime,
        lookahead_ns: u64,
        mut trace: TraceDigest,
    ) -> SimOutcome {
        let end = cells
            .iter()
            .map(|c| c.engine.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        let events = cells.iter().map(|c| c.engine.executed()).sum();
        let mut counters = EventCounters::default();
        let mut rounds = RoundCounters::default();
        let mut impairment_stats = ImpairmentStats::default();
        let mut fault_stats = FaultStats::default();
        for cell in &cells {
            let c = cell.sim.counters;
            counters.loop_polls += c.loop_polls;
            counters.idle_polls += c.idle_polls;
            counters.deliveries += c.deliveries;
            counters.switch_hops += c.switch_hops;
            counters.timer_wakes += c.timer_wakes;
            counters.stale_wakes += c.stale_wakes;
            counters.parks += c.parks;
            counters.wakes += c.wakes;
            counters.boxed_events += cell.engine.boxed_scheduled();
            let r = cell.sim.shard_ctx.as_ref().expect("shard ctx").rounds;
            // Rounds are lockstep across shards (max, not sum); the
            // traffic tallies genuinely accumulate.
            rounds.rounds = rounds.rounds.max(r.rounds);
            rounds.empty_rounds += r.empty_rounds;
            rounds.xshard_frames += r.xshard_frames;
            rounds.rehome_bytes += r.rehome_bytes;
            impairment_stats.absorb(cell.sim.impairment_stats);
            fault_stats.absorb(cell.sim.fault_stats);
        }
        // The deferred digest: whatever the driver has not already folded
        // incrementally, appended in global dispatch order on top of the
        // accumulated fold.
        let mut log: Vec<DeliveryRecord> = Vec::new();
        for cell in cells.iter_mut() {
            let ctx = cell.sim.shard_ctx.as_mut().expect("shard ctx");
            log.extend(ctx.log.drain(..));
        }
        log.sort_unstable_by_key(|r| (r.at, r.key));
        for r in &log {
            trace.record(r.at, r.dev as usize, r.port as usize, r.frame.bytes());
        }
        drop(log);

        let mut port_stats = Vec::new();
        let mut stack_stats = Vec::new();
        for i in 0..plan.node_shard.len() {
            let sim = &cells[plan.node_shard[i]].sim;
            let n = &sim.nodes[i];
            port_stats.push((n.name.clone(), sim.devs[n.dev].stats(n.port)));
            stack_stats.push((n.name.clone(), n.stack.stats()));
        }
        let switch_stats = (0..plan.switch_shard.len())
            .map(|s| cells[plan.switch_shard[s]].sim.switches[s].stats())
            .collect();
        let mutex_stats = cells.iter().find_map(|c| {
            c.sim
                .s2_mutex
                .as_ref()
                .map(|m| (m.acquisitions(), m.contentions(), m.total_wait()))
        });
        let mut out = SimOutcome {
            servers: Vec::new(),
            clients: Vec::new(),
            http_servers: Vec::new(),
            http_fleets: Vec::new(),
            chaos: Vec::new(),
            ended_at: end,
            horizon: stop,
            events,
            counters,
            port_stats,
            stack_stats,
            switch_stats,
            mutex_stats,
            impairment_stats,
            fault_stats,
            trace,
            workers: plan.workers,
            lookahead_ns,
            rounds,
        };
        for (i, &shard) in plan.node_shard.iter().enumerate() {
            cells[shard].sim.nodes[i].report(end, &mut out);
        }
        out
    }

    /// Stable [`simkern::engine::OrderKey`] origin of node `i`'s handlers.
    ///
    /// The origin space is global and identical at any worker count —
    /// nodes first, then switches, then the pre-run initializer — so the
    /// keys built by a sharded run match the single-engine run's exactly.
    fn node_origin(i: usize) -> u32 {
        i as u32
    }

    /// Stable order-key origin of switch `sw`'s forwarding handler.
    fn switch_origin(&self, sw: usize) -> u32 {
        (self.nodes.len() + sw) as u32
    }

    /// Order-key origin of the pre-run initializer (the staggered start-up
    /// loop-iteration schedules).
    fn init_origin(&self) -> u32 {
        (self.nodes.len() + self.switches.len()) as u32
    }

    /// Order-key origin of the fault plan (one origin after the
    /// initializer; its counter advances identically on every shard
    /// because the whole plan is scheduled everywhere, in plan order).
    fn fault_origin(&self) -> u32 {
        (self.nodes.len() + self.switches.len() + 1) as u32
    }

    /// `true` when node `i` is handled by this world.
    #[inline]
    fn local_node(&self, i: usize) -> bool {
        match &self.shard_ctx {
            None => true,
            Some(ctx) => ctx.node_shard[i] == ctx.id,
        }
    }

    /// `true` when device `dev` is handled by this world (always, outside
    /// a sharded run).
    #[inline]
    fn local_dev(&self, dev: usize) -> bool {
        match &self.shard_ctx {
            None => true,
            Some(ctx) => ctx.dev_shard[dev] == ctx.id,
        }
    }

    /// `true` when switch `sw` is handled by this world.
    #[inline]
    fn local_sw(&self, sw: usize) -> bool {
        match &self.shard_ctx {
            None => true,
            Some(ctx) => ctx.sw_shard[sw] == ctx.id,
        }
    }

    /// Applies resolved fault `idx` (event handler). Every shard
    /// dispatches every fault event; link state is shared knowledge (the
    /// TX blackhole check runs wherever the transmitter lives), while
    /// node/switch mutations and the tallies land only on the owner
    /// shard — so the merged [`FaultStats`] counts each fault once.
    fn apply_fault(&mut self, idx: usize, engine: &mut Engine<NetSim>) {
        let (_, fault) = self.faults[idx];
        match fault {
            ResolvedFault::LinkDown { a, b, dev } => {
                self.link_down.insert(a);
                self.link_down.insert(b);
                if self.local_dev(dev) {
                    self.fault_stats.link_down_events += 1;
                }
            }
            ResolvedFault::LinkUp { a, b, dev } => {
                self.link_down.remove(&a);
                self.link_down.remove(&b);
                if self.local_dev(dev) {
                    self.fault_stats.link_up_events += 1;
                }
            }
            ResolvedFault::SwitchFail { sw } => {
                if self.local_sw(sw) {
                    self.switches[sw].fail();
                    self.fault_stats.switch_fail_events += 1;
                }
            }
            ResolvedFault::SwitchRecover { sw } => {
                if self.local_sw(sw) {
                    self.switches[sw].recover();
                    self.fault_stats.switch_recover_events += 1;
                }
            }
            ResolvedFault::NodeCrash { node } => {
                if self.local_node(node) {
                    self.crash_node(node, engine);
                    self.fault_stats.node_crashes += 1;
                }
            }
            ResolvedFault::NodeRestart { node } => {
                if self.local_node(node) {
                    self.restart_node(node, engine);
                    self.fault_stats.node_restarts += 1;
                }
            }
        }
    }

    /// [`Fault::NodeCrash`]: volatile state vanishes. Every app is
    /// dropped (its report with it), the stack is replaced by an empty
    /// husk (every TCB, listener and ARP entry gone — peers get no FIN,
    /// exactly like a real power loss), the poll loop stops, and frames
    /// arriving at the NIC are discarded until restart. Idempotent.
    fn crash_node(&mut self, i: usize, engine: &mut Engine<NetSim>) {
        let node = &mut self.nodes[i];
        if node.crashed {
            return;
        }
        node.crashed = true;
        // A parked wake is cancelled in place; a pending LoopIter
        // dispatches into the crashed guard and dies there.
        if let Some(stale) = node.wake.take() {
            engine.cancel(stale);
        }
        node.parked = false;
        node.epoch += 1;
        for slot in &mut node.apps {
            slot.app = None;
        }
        node.app_of_fd.clear();
        node.runnable.clear();
        node.fd_scratch.clear();
        let cfg = node.stack.config().clone();
        node.stack = FStack::with_socket_capacity(cfg, 0);
    }

    /// [`Fault::NodeRestart`]: a fresh stack with the same interface
    /// config, every app rebuilt from its install-time blueprint in step
    /// order (same labels, configs, seeds and arena buffers — listeners
    /// come back, fleets re-launch their schedule from `now`), and the
    /// poll loop boots again shortly after. A no-op unless the node is
    /// crashed.
    fn restart_node(&mut self, i: usize, engine: &mut Engine<NetSim>) {
        let now = engine.now();
        let node = &mut self.nodes[i];
        if !node.crashed {
            return;
        }
        node.crashed = false;
        let cfg = node.stack.config().clone();
        node.stack = FStack::new(cfg);
        node.turns = 0;
        node.parked = false;
        node.epoch += 1;
        node.anchor = now;
        for slot in &mut node.apps {
            slot.app = (slot.respawn)(&mut node.stack, now).ok();
        }
        node.route_fds();
        // The reborn host boots like the originals did: first poll
        // iteration a beat after the restart instant.
        engine.schedule_from(
            Self::node_origin(i),
            now + SimDuration::from_nanos(97),
            NetEvent::LoopIter { node: i },
        );
    }

    /// Queues a cross-shard frame delivery for the window exchange: the
    /// frame is shared (a refcount bump) and the order key is drawn from
    /// this engine's origin counter, exactly as a local schedule would
    /// have.
    fn outbox_deliver(
        &mut self,
        engine: &mut Engine<NetSim>,
        origin: u32,
        dev: usize,
        port: usize,
        at: SimTime,
        frame: &Frame,
    ) {
        let key = engine.make_key(origin);
        let ctx = self.shard_ctx.as_mut().expect("cross-shard send has a ctx");
        let dst = ctx.dev_shard[dev] as usize;
        ctx.rounds.xshard_frames += 1;
        ctx.outbox[dst].push(XEvent {
            at,
            key,
            to_switch: false,
            obj: dev as u32,
            port: port as u32,
            frame: frame.clone(),
        });
    }

    /// Queues a cross-shard switch hop for the window exchange.
    fn outbox_hop(
        &mut self,
        engine: &mut Engine<NetSim>,
        origin: u32,
        sw: usize,
        port: usize,
        at: SimTime,
        frame: &Frame,
    ) {
        let key = engine.make_key(origin);
        let ctx = self.shard_ctx.as_mut().expect("cross-shard send has a ctx");
        let dst = ctx.sw_shard[sw] as usize;
        ctx.rounds.xshard_frames += 1;
        ctx.outbox[dst].push(XEvent {
            at,
            key,
            to_switch: true,
            obj: sw as u32,
            port: port as u32,
            frame: frame.clone(),
        });
    }

    /// The first poll-lattice instant at or after `at`: `anchor + k·period`
    /// with the smallest `k ≥ 0` such that the tick is `≥ at`. Parked nodes
    /// wake on this lattice so their iterations land exactly where the
    /// unconditional polling loop's would have.
    fn lattice_tick(anchor: SimTime, at: SimTime, period: u64) -> SimTime {
        if at <= anchor {
            return anchor;
        }
        let gap = at.as_nanos() - anchor.as_nanos();
        anchor + SimDuration::from_nanos(gap.div_ceil(period) * period)
    }

    /// One main-loop iteration of node `i` (event handler).
    fn loop_iter(&mut self, i: usize, engine: &mut Engine<NetSim>) {
        if self.nodes[i].crashed {
            // The host is dead: its loop stops (no reschedule) until a
            // [`Fault::NodeRestart`] boots a fresh iteration.
            return;
        }
        self.counters.loop_polls += 1;
        let now = engine.now();
        if now >= self.stop_at {
            return;
        }
        let (di, pi, mi) = {
            let n = &self.nodes[i];
            (n.dev, n.port, n.mem)
        };
        // Split-borrow the distinct world fields.
        let node = &mut self.nodes[i];
        let dev = &mut self.devs[di];
        let mem = &mut self.mems[mi];

        // (i) RX ring → stack.
        let rx = rx_phase(&mut node.stack, dev, pi, mem, now).unwrap_or(0);

        // (ii) the user-defined function: application steps, gated by the
        // app-cVM scheduling policy (RoundRobin steps everyone; Barging
        // starves non-first cVMs on a fraction of turns). The policy is a
        // property of the DUT's service mutex, so it only applies to app
        // cVMs behind the Scenario 2 service node — never to the ideal
        // measurement hosts.
        let sched = if node.profile.s2_service {
            self.app_sched
        } else {
            AppSched::RoundRobin
        };
        let turn = node.turns;
        node.turns += 1;
        let mut ff_calls: u64 = 0;
        let mut progressed = false;
        // Route the stack's changed fds to their owning apps. On a gated
        // (ideal) host only runnable apps step: an app with no changed fd
        // and no due deadline would repeat its previous no-op step, so
        // skipping it is behaviourally invisible — the hub of an N-client
        // star steps O(frames received) server apps per poll instead of
        // all N. Charged hosts (per-call isolation, the S2 service loop)
        // step everything, because even a no-op step's ff_* calls carry an
        // accounted cost there.
        let Node {
            stack,
            apps,
            gated,
            app_of_fd,
            runnable,
            fd_scratch,
            ..
        } = node;
        let gated = *gated;
        if gated {
            fd_scratch.clear();
            stack.take_dirty_fds(fd_scratch);
            for &fd in fd_scratch.iter() {
                if let Some(&Some(slot)) = app_of_fd.get(fd as usize) {
                    runnable[slot as usize] = true;
                }
            }
        }
        // Apps step in class rank × install order (servers, clients, HTTP
        // servers, fleets, chaos), so each newer class steps after every
        // older one and never perturbs an older scenario's digest. The
        // scheduling policy gates clients by their ordinal among the
        // node's client slots, empty ones included. Servers never gate
        // on it: the convoy forms on the write path (ff_write holds the
        // service mutex against the main loop), while reads of
        // already-sorted RX data are short — which is why the paper's
        // server rows stay even (470/470) on the same testbed whose client
        // rows split 531/410.
        let mut client_ord = 0;
        for (slot, a) in apps.iter_mut().enumerate() {
            if a.class == AppClass::Client {
                client_ord += 1;
                if !sched.allows(client_ord - 1, turn) {
                    continue;
                }
            }
            let Some(app) = &mut a.app else { continue };
            if gated && !runnable[slot] && !(a.clocked && app.due(now)) {
                continue;
            }
            runnable[slot] = false;
            let out = app.step(stack, mem, now);
            ff_calls += u64::from(out.ff_calls);
            progressed |= out.progressed;
            if out.progressed {
                // Accepts and arrivals may have opened fds: re-route.
                let slot = slot as u32;
                app.fds(true, &mut FdRoute { app_of_fd, slot });
            }
        }

        // (iii) stack timers + TX ring.
        let tx = tx_phase(&mut node.stack, dev, pi, mem, now).unwrap_or_default();

        // Wire propagation to whatever the port is cabled to (a peer NIC
        // directly, or a switch that forwards hop by hop). The endpoint was
        // resolved once at run() start — no topology lookup per iteration.
        let n_tx = tx.len();
        if n_tx > 0 && !self.link_down.is_empty() && self.link_down.contains(&Ep::Dev(di, pi)) {
            // The uplink cable is administratively down: every frame is
            // blackholed at this TX hop. No impairment draws happen — the
            // wire never sees the frame, so a healed link's RNG streams
            // are exactly where a fault-free run's would be minus the
            // frames that never crossed.
            self.impairment_stats.blackholed += n_tx as u64;
        } else if n_tx > 0 {
            let origin = Self::node_origin(i);
            match self.nodes[i].cabled {
                Some(Ep::Dev(pd, pp)) => {
                    for (frame, departure) in tx {
                        let arrival = self.wire.propagate(departure);
                        self.schedule_delivery(engine, origin, pd, pp, arrival, frame);
                    }
                }
                Some(Ep::Sw(sw, sp)) => {
                    for (frame, departure) in tx {
                        let arrival = self.wire.propagate(departure);
                        if self.local_sw(sw) {
                            engine.schedule_from(
                                origin,
                                arrival,
                                NetEvent::SwitchHop {
                                    sw,
                                    port: sp,
                                    at: arrival,
                                    frame,
                                },
                            );
                        } else {
                            self.outbox_hop(engine, origin, sw, sp, arrival, &frame);
                        }
                    }
                }
                None => {}
            }
        }

        // Iteration cost: loop work + per-call isolation charges.
        let work = self.costs.mainloop_idle_ns
            + self.costs.mainloop_per_frame_ns * (rx as u64 + n_tx as u64)
            + self.nodes[i].profile.per_ff_call_ns * ff_calls;
        let work = SimDuration::from_nanos(work);
        // Scenario 2: the service loop holds the F-Stack mutex for its
        // iteration; app calls contend (their wait shows up as lock delay
        // on the next loop turn).
        let next = if self.nodes[i].profile.s2_service {
            let m = self.s2_mutex.as_mut().expect("s2 mutex exists");
            let grant = m.acquire(now, work);
            grant.released_at
        } else {
            now + work
        };

        // Quiescence: an iteration that did no work and owes the wire
        // nothing parks the loop instead of rescheduling it. Eligibility is
        // strict so behavior is provably identical to polling:
        //  * the iteration was a no-op (no RX, no TX, no app progress), so
        //    replaying it at every tick until something external happens
        //    would change nothing;
        //  * no frame is queued mid-DMA on the port (it would become
        //    readable without a further delivery event);
        //  * the node carries no per-call isolation charge and no service
        //    mutex, so its idle tick period is exactly `mainloop_idle_ns`
        //    and the poll lattice is predictable from `next` alone.
        // The node wakes on the first lattice tick at/after a frame
        // delivery to its port, or at/after the earliest known deadline
        // (stack timers, app write-gap/stop instants).
        let idle = rx == 0 && n_tx == 0 && !progressed;
        if idle {
            self.counters.idle_polls += 1;
        }
        let node = &self.nodes[i];
        let parkable = idle
            && !node.profile.s2_service
            && node.profile.per_ff_call_ns == 0
            && self.devs[di].rx_pending(pi) == 0;
        if parkable {
            let node = &mut self.nodes[i];
            // App clocks (client write gaps and stop instants, fleet
            // arrivals and think timers, the HTTP idle reaper, chaos
            // rounds) must wake a parked node as well as stack timers.
            let deadline = node
                .apps
                .iter()
                .filter(|a| a.clocked)
                .filter_map(|a| a.app.as_ref()?.next_deadline(now))
                .chain(node.stack.next_timer_deadline())
                .min();
            let period = self.idle_period;
            let node = &mut self.nodes[i];
            node.parked = true;
            node.epoch += 1;
            node.anchor = next;
            self.counters.parks += 1;
            debug_assert!(node.wake.is_none(), "parking with a wake still scheduled");
            if let Some(d) = deadline {
                let tick = Self::lattice_tick(next, d, period);
                let epoch = node.epoch;
                let handle = engine.schedule_last_from(
                    Self::node_origin(i),
                    tick,
                    NetEvent::Wake { node: i, epoch },
                );
                self.nodes[i].wake = Some(handle);
            }
        } else {
            engine.schedule_from(Self::node_origin(i), next, NetEvent::LoopIter { node: i });
        }
    }

    /// One switch hop: run the fabric's forwarding decision for a frame
    /// arriving on `(sw, sp)` at `now`, then propagate every surviving
    /// egress copy down its cable — to a NIC (final hop, impairments
    /// apply) or into the next switch of a chain.
    fn switch_ingress(
        &mut self,
        sw: usize,
        sp: usize,
        now: SimTime,
        frame: Frame,
        engine: &mut Engine<NetSim>,
    ) {
        let outputs = self.switches[sw].ingress(sp, now, frame, &self.costs);
        let origin = self.switch_origin(sw);
        for tx in outputs {
            if !self.link_down.is_empty() && self.link_down.contains(&Ep::Sw(sw, tx.port)) {
                // This egress cable is administratively down: the copy is
                // blackholed at the switch's TX hop.
                self.impairment_stats.blackholed += 1;
                continue;
            }
            match self.sw_cabled[sw][tx.port] {
                Some(Ep::Dev(pd, pp)) => {
                    let arrival = self.wire.propagate(tx.departure);
                    self.schedule_delivery(engine, origin, pd, pp, arrival, tx.frame);
                }
                Some(Ep::Sw(sw2, sp2)) => {
                    let arrival = self.wire.propagate(tx.departure);
                    if self.local_sw(sw2) {
                        engine.schedule_from(
                            origin,
                            arrival,
                            NetEvent::SwitchHop {
                                sw: sw2,
                                port: sp2,
                                at: arrival,
                                frame: tx.frame,
                            },
                        );
                    } else {
                        self.outbox_hop(engine, origin, sw2, sp2, arrival, &tx.frame);
                    }
                }
                None => { /* unattached switch port: the copy goes nowhere */ }
            }
        }
    }

    /// Schedules delivery of `frame` to NIC `(dev, port)` at nominal
    /// instant `at`, applying the configured cable impairments (loss,
    /// corruption, duplication, reordering, jitter) on this final hop.
    fn schedule_delivery(
        &mut self,
        engine: &mut Engine<NetSim>,
        origin: u32,
        dev: usize,
        port: usize,
        at: SimTime,
        frame: Frame,
    ) {
        let local = self.local_dev(dev);
        if self.impairments.is_ideal() {
            if local {
                engine.schedule_from(
                    origin,
                    at,
                    NetEvent::Deliver {
                        dev,
                        port,
                        at,
                        frame,
                    },
                );
            } else {
                self.outbox_deliver(engine, origin, dev, port, at, &frame);
            }
            return;
        }
        // Impairments are drawn on the sending side from the destination
        // port's own stream — all deliveries to a port come from its one
        // cabled peer, so the draw order is that peer's deterministic
        // emission order, independent of sharding.
        let rng = &mut self.port_rng[dev][port];
        let plan = self.impairments.plan(rng, at);
        self.impairment_stats.absorb(plan.stats);
        for (at, corrupt) in plan.deliveries {
            let copy = if corrupt {
                frame.corrupted(&mut self.port_rng[dev][port])
            } else {
                frame.clone()
            };
            if local {
                engine.schedule_from(
                    origin,
                    at,
                    NetEvent::Deliver {
                        dev,
                        port,
                        at,
                        frame: copy,
                    },
                );
            } else {
                self.outbox_deliver(engine, origin, dev, port, at, &copy);
            }
        }
    }

    /// Folds the delivery into the run's [`TraceDigest`], hands the frame
    /// to the NIC, and wakes the port's owning node if its loop is parked:
    /// the wake lands on the first tick of the node's poll lattice at or
    /// after the arrival, which is exactly when the polling loop would have
    /// seen the frame.
    fn record_and_deliver(
        &mut self,
        dev: usize,
        port: usize,
        at: SimTime,
        frame: Frame,
        engine: &mut Engine<NetSim>,
    ) {
        if let Some(ctx) = &mut self.shard_ctx {
            // Sharded runs defer the digest: folds must happen in the
            // *merged* dispatch order across all shards, not this shard's
            // arrival order, so the delivery is logged under its dispatch
            // key and folded at merge time.
            ctx.log.push_back(DeliveryRecord {
                at,
                key: engine.current_key(),
                dev: dev as u32,
                port: port as u32,
                frame: frame.clone(),
            });
        } else {
            self.trace.record(at, dev, port, frame.bytes());
        }
        if self.dev_owner[dev][port].is_some_and(|ni| self.nodes[ni].crashed) {
            // The wire carried the frame (it is in the digest), but the
            // host is dead: the NIC discards it instead of ringing DMA
            // into a stack that no longer exists.
            self.fault_stats.frames_to_dead += 1;
            return;
        }
        self.devs[dev].deliver(port, at, frame);
        if let Some(ni) = self.dev_owner[dev][port] {
            let node = &mut self.nodes[ni];
            if node.parked {
                node.parked = false;
                node.epoch += 1;
                self.counters.wakes += 1;
                // Supersede the parked deadline wake in place: cancelling it
                // is what keeps `ev_stale_wakes` at zero (the epoch check on
                // dispatch survives as a debug assertion of this invariant).
                if let Some(stale) = node.wake.take() {
                    engine.cancel(stale);
                }
                let epoch = node.epoch;
                let tick = Self::lattice_tick(node.anchor, engine.now(), self.idle_period);
                let handle = engine.schedule_last_from(
                    Self::node_origin(ni),
                    tick,
                    NetEvent::Wake { node: ni, epoch },
                );
                self.nodes[ni].wake = Some(handle);
            }
        }
    }
}

impl World for NetSim {
    type Event = NetEvent;

    fn handle(&mut self, ev: NetEvent, engine: &mut Engine<NetSim>) {
        match ev {
            NetEvent::LoopIter { node } => self.loop_iter(node, engine),
            NetEvent::Wake { node, epoch } => {
                // Superseded wakes are cancelled in place and never
                // dispatch; a mismatched epoch here would mean a
                // cancellation was missed.
                debug_assert_eq!(
                    self.nodes[node].epoch, epoch,
                    "stale wake leaked past cancellation"
                );
                if self.nodes[node].epoch != epoch {
                    // Release-mode safety net (kept for robustness; the
                    // counter stays visible in BENCH json as the witness
                    // that cancellation works).
                    self.counters.stale_wakes += 1;
                    return;
                }
                self.nodes[node].wake = None;
                if self.nodes[node].parked {
                    // A parked node reaching its scheduled deadline.
                    self.nodes[node].parked = false;
                    self.counters.timer_wakes += 1;
                }
                self.loop_iter(node, engine);
            }
            NetEvent::Deliver {
                dev,
                port,
                at,
                frame,
            } => {
                self.counters.deliveries += 1;
                self.record_and_deliver(dev, port, at, frame, engine);
            }
            NetEvent::SwitchHop {
                sw,
                port,
                at,
                frame,
            } => {
                self.counters.switch_hops += 1;
                self.switch_ingress(sw, port, at, frame, engine);
            }
            NetEvent::Fault { idx } => self.apply_fault(idx, engine),
        }
    }
}

/// The results of one simulation run.
#[derive(Debug)]
pub struct SimOutcome {
    /// Server (receiver) reports, in installation order.
    pub servers: Vec<BandwidthReport>,
    /// Client (sender) reports, in installation order.
    pub clients: Vec<BandwidthReport>,
    /// HTTP serving-plane server reports, in installation order.
    pub http_servers: Vec<HttpServerReport>,
    /// HTTP open-loop fleet reports, in installation order.
    pub http_fleets: Vec<FleetReport>,
    /// Fault-injection campaign reports, in installation order.
    pub chaos: Vec<ChaosReport>,
    /// The virtual instant the last event executed. With the
    /// quiescence-aware engine this can be well before [`SimOutcome::horizon`]:
    /// once every node is parked with nothing pending, the remaining virtual
    /// time passes without a single event.
    pub ended_at: SimTime,
    /// The virtual instant the run was asked to simulate to ([`NetSim::run`]'s
    /// `duration`). The whole `[0, horizon]` span *is* simulated — an empty
    /// calendar tail is the engine being fast, not the run being short — so
    /// host-speed metrics (`host_ns_per_sim_sec`) divide by this, keeping
    /// them comparable with pre-parking baselines whose polling filled the
    /// tail with idle events.
    pub horizon: SimTime,
    /// Discrete events the engine executed — the denominator of the
    /// events-per-second speed metric in the perf trajectory.
    pub events: u64,
    /// Per-kind event counters: why `events` is what it is (loop polls vs
    /// deliveries vs switch hops vs wakes), and the zero-boxed-events
    /// steady-state witness.
    pub counters: EventCounters,
    /// `(node name, port hardware stats)`.
    pub port_stats: Vec<(String, updk::ethdev::PortStats)>,
    /// `(node name, protocol stack counters)`.
    pub stack_stats: Vec<(String, fstack::StackStats)>,
    /// Per-fabric forwarding counters, in [`NetSim::add_switch`] order.
    pub switch_stats: Vec<SwitchStats>,
    /// `(acquisitions, contentions, total wait)` of the S2 mutex, if any.
    pub mutex_stats: Option<(u64, u64, SimDuration)>,
    /// What the (possibly impaired) cables did over the run.
    pub impairment_stats: ImpairmentStats,
    /// What the scheduled fault plan did over the run (all zero for a
    /// fault-free run — an empty plan schedules no events at all).
    pub fault_stats: FaultStats,
    /// The run's delivery-trace digest (the determinism witness) —
    /// byte-identical at any [`SimOutcome::workers`] count.
    pub trace: TraceDigest,
    /// Shards the run actually used (1 = the classic single-engine loop).
    pub workers: usize,
    /// The tightest conservative lookahead of the run's shard plan, in
    /// nanoseconds ([`crate::parallel::LookaheadMatrix::min_finite`]; per-pair
    /// windows are at least this wide). Single-engine runs report the
    /// window a 2-shard plan *would* run under (0 when no such plan cuts
    /// a cable), so the would-be width shows up in bench output too.
    pub lookahead_ns: u64,
    /// Sharded-driver tallies (rendezvous rounds, cross-shard frames).
    /// All zero for single-engine runs; unlike
    /// [`SimOutcome::counters`], these describe the driver rather than
    /// the simulation, so they legitimately vary across worker counts.
    pub rounds: RoundCounters,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_allows_everyone_always() {
        let s = AppSched::RoundRobin;
        for turn in 0..100 {
            for idx in 0..4 {
                assert!(s.allows(idx, turn));
            }
        }
    }

    #[test]
    fn barging_never_gates_the_first_cvm() {
        let s = AppSched::paper_barging();
        for turn in 0..10_000 {
            assert!(s.allows(0, turn));
        }
    }

    #[test]
    fn barging_grant_fraction_matches_parameters() {
        let AppSched::Barging { grant, period } = AppSched::paper_barging() else {
            panic!("paper_barging is Barging");
        };
        let s = AppSched::paper_barging();
        let allowed = (0..u64::from(period)).filter(|&t| s.allows(1, t)).count();
        assert_eq!(allowed as u32, grant);
        // And the denial is one contiguous convoy, not interleaved.
        let first_denied = (0..u64::from(period)).find(|&t| !s.allows(1, t)).unwrap();
        assert!((first_denied..u64::from(period)).all(|t| !s.allows(1, t)));
    }

    #[test]
    fn weighted_windows_partition_every_turn() {
        let s = AppSched::Weighted {
            weight_first: 2,
            weight_rest: 1,
        };
        let mut first = 0u64;
        let mut rest = 0u64;
        for turn in 0..3_000 {
            let a0 = s.allows(0, turn);
            let a1 = s.allows(1, turn);
            assert!(a0 ^ a1, "exactly one side owns each turn");
            if a0 {
                first += 1;
            } else {
                rest += 1;
            }
        }
        // One full period (3 × 500 turns): 2:1 exactly.
        assert_eq!(first, 2_000);
        assert_eq!(rest, 1_000);
    }

    #[test]
    fn weighted_tolerates_zero_weights_defensively() {
        let s = AppSched::Weighted {
            weight_first: 0,
            weight_rest: 0,
        };
        // max(1) clamping: no panic, both sides get turns over a period.
        let first = (0..1_000u64).filter(|&t| s.allows(0, t)).count();
        assert!(first > 0 && first < 1_000);
    }

    /// A port holds one cable: re-linking a connected port must fail
    /// loudly instead of silently overwriting the topology.
    #[test]
    fn linking_a_connected_port_is_an_error() {
        let mut sim = NetSim::new(CostModel::morello());
        let a = sim.add_dev(NicModel::Host).unwrap();
        let b = sim.add_dev(NicModel::Host).unwrap();
        let c = sim.add_dev(NicModel::Host).unwrap();
        sim.link(a, 0, b, 0).unwrap();
        let err = sim.link(a, 0, c, 0).unwrap_err();
        assert!(
            matches!(&err, CapnetError::Config(m) if m.contains("already cabled")),
            "got {err}"
        );
        // The same port cannot be attached to a switch either.
        let sw = sim.add_switch(2).unwrap();
        assert!(sim.attach(a, 0, sw, 0).is_err());
        // A fresh port attaches fine; its switch port is then taken too.
        sim.attach(c, 0, sw, 0).unwrap();
        let d = sim.add_dev(NicModel::Host).unwrap();
        assert!(sim.attach(d, 0, sw, 0).is_err());
        sim.attach(d, 0, sw, 1).unwrap();
    }

    #[test]
    fn link_validates_port_ranges_and_self_links() {
        let mut sim = NetSim::new(CostModel::morello());
        let a = sim.add_dev(NicModel::Host).unwrap();
        let b = sim.add_dev(NicModel::Host).unwrap();
        assert!(sim.link(a, 1, b, 0).is_err(), "Host NIC has one port");
        assert!(sim.link(a, 0, a, 0).is_err(), "self-link rejected");
        assert!(sim.add_switch(1).is_err(), "one-port switch rejected");
        assert!(sim.add_switch_with_queue(2, 0).is_err(), "zero queue");
        let sw = sim.add_switch(2).unwrap();
        assert!(sim.attach(a, 0, sw, 7).is_err(), "switch port range");
        let sw2 = sim.add_switch(2).unwrap();
        assert!(sim.link_switches(sw, 0, sw, 0).is_err(), "self-trunk");
        sim.link_switches(sw, 0, sw2, 0).unwrap();
        assert!(sim.link_switches(sw, 0, sw2, 1).is_err(), "trunk port busy");
    }

    /// A single 1 Gbit/s flow between two ideal hosts must reach the
    /// 941 Mbit/s TCP goodput ceiling — the physics check underneath all of
    /// Table II.
    #[test]
    fn single_flow_hits_941() {
        let costs = CostModel::morello();
        let mut sim = NetSim::new(costs);
        let a = sim.add_dev(NicModel::Host).unwrap();
        let b = sim.add_dev(NicModel::Host).unwrap();
        sim.link(a, 0, b, 0).unwrap();
        let srv = sim
            .add_node(
                "srv",
                a,
                0,
                Ipv4Addr::new(10, 0, 0, 1),
                IsolationProfile::default(),
            )
            .unwrap();
        let cli = sim
            .add_node(
                "cli",
                b,
                0,
                Ipv4Addr::new(10, 0, 0, 2),
                IsolationProfile::default(),
            )
            .unwrap();
        sim.add_server(srv, "srv", 5201).unwrap();
        sim.add_client(
            cli,
            "cli",
            (Ipv4Addr::new(10, 0, 0, 1), 5201),
            SimDuration::from_millis(180),
            SimDuration::ZERO,
        )
        .unwrap();
        let out = sim.run(SimDuration::from_millis(200)).unwrap();
        let bw = out.servers[0].mbit_per_sec();
        assert!(
            (bw - 941.0).abs() < 15.0,
            "single flow should reach ≈941 Mbit/s, got {bw:.0}"
        );
    }
}
