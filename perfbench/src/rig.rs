//! The layer rig: each workload's shape rebuilt from the layers' public
//! functions alone — `updk` NICs and a `LinkFabric`, `fstack` stacks,
//! the `iperf`/`capnet_httpd` apps — and driven by a `simkern::Engine`
//! over a world this module owns, with a span around every layer call.
//!
//! It follows `NetSim`'s main loop (RX → app steps → TX, per-call
//! isolation charges, the service mutex, parking idle hosts until a frame
//! or a deadline) closely enough that its calls per unit of work match
//! the timed run's, which the benchmark prints side by side. It is not
//! `NetSim`: it has no shards and no trace digest, and wakes a parked
//! host at the delivery instant rather than on its poll lattice.

use crate::trace::{Span, SpanCost, Tracer};
use crate::workload::{Workload, APP_BUF};
use capnet_httpd::{FleetApp, HttpServerApp, HttpServerConfig, HTTPD_PORT};
use cheri::{Capability, Perms, TaggedMemory};
use chos::fdtable::Fd;
use fstack::loop_::ServiceMutex;
use fstack::{FStack, StackConfig};
use iperf::{ClientApp, ServerApp};
use simkern::engine::{Engine, World};
use simkern::{CostModel, SimDuration, SimTime};
use std::error::Error;
use std::net::Ipv4Addr;
use std::time::Instant;
use updk::{BindingRegistry, EthDev, Frame, LinkFabric, NicModel, PciAddress, Wire};

/// Per-node memory arena and packet-pool region, as `NetSim` carves them.
const NODE_MEM: u64 = 4 << 20;
const POOL_BASE: u64 = 4096;
const POOL_BYTES: u64 = 1 << 20;
/// Standalone capability-checked copies timed after the run.
const COPIES: u64 = 4096;

type Res<T> = Result<T, Box<dyn Error>>;

enum App {
    Server(ServerApp),
    Client(ClientApp),
    Http(HttpServerApp),
    Fleet(FleetApp),
}

impl App {
    fn span(&self) -> Span {
        match self {
            App::Server(_) => Span::IperfServer,
            App::Client(_) => Span::IperfClient,
            App::Http(_) => Span::HttpServer,
            App::Fleet(_) => Span::HttpFleet,
        }
    }

    fn due(&self, now: SimTime) -> bool {
        match self {
            App::Server(_) => false,
            App::Client(a) => a.due(now),
            App::Http(a) => a.due(now),
            App::Fleet(a) => a.due(now),
        }
    }

    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        match self {
            App::Server(_) => None,
            App::Client(a) => a.next_deadline(now),
            App::Http(a) => a.next_deadline(now),
            App::Fleet(a) => a.next_deadline(now),
        }
    }

    /// One step: `(ff_* calls, progressed)`, or `None` on a socket error
    /// (which `NetSim` also ignores).
    fn step(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
    ) -> Option<(u64, bool)> {
        match self {
            App::Server(a) => a
                .step(stack, mem, now)
                .ok()
                .map(|o| (o.ff_calls.into(), o.progressed)),
            App::Client(a) => a
                .step(stack, mem, now)
                .ok()
                .map(|o| (o.ff_calls.into(), o.progressed)),
            App::Http(a) => a
                .step(stack, mem, now)
                .ok()
                .map(|o| (o.ff_calls.into(), o.progressed)),
            App::Fleet(a) => a
                .step(stack, mem, now)
                .ok()
                .map(|o| (o.ff_calls.into(), o.progressed)),
        }
    }

    /// Routes every fd this app owns to `slot`.
    fn note_fds(&mut self, app_of_fd: &mut Vec<Option<u32>>, slot: u32) {
        let mut note = |fd: Fd| {
            let i = fd as usize;
            if i >= app_of_fd.len() {
                app_of_fd.resize(i + 1, None);
            }
            app_of_fd[i] = Some(slot);
        };
        match self {
            App::Server(a) => {
                note(a.listen_fd());
                a.conn_fds().iter().for_each(|&fd| note(fd));
            }
            App::Client(a) => note(a.sock_fd()),
            App::Http(a) => {
                note(a.listen_fd());
                a.conn_fds().iter().for_each(|&fd| note(fd));
            }
            App::Fleet(a) => a.conn_fds().iter().for_each(|&fd| note(fd)),
        }
    }

    /// Payload bytes the app received (iperf) or served (httpd), by the
    /// same definition as the timed run's `sim.payload_bytes`.
    fn payload(self, now: SimTime) -> u64 {
        match self {
            App::Server(a) => a.report(now).bytes,
            App::Http(a) => a.report(now).bytes_out,
            App::Client(_) | App::Fleet(_) => 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Link {
    Peer(usize),
    Switch(usize),
}

struct Node {
    stack: FStack,
    dev: EthDev,
    mem: TaggedMemory,
    bump: u64,
    apps: Vec<App>,
    app_of_fd: Vec<Option<u32>>,
    runnable: Vec<bool>,
    dirty: Vec<Fd>,
    per_call_ns: u64,
    s2: bool,
    parked: bool,
    epoch: u64,
    link: Link,
}

impl Node {
    fn gated(&self) -> bool {
        self.per_call_ns == 0 && !self.s2
    }

    fn carve(&mut self, fill: Option<u8>) -> Res<Capability> {
        let base = self.bump.next_multiple_of(16);
        self.bump = base + APP_BUF as u64;
        let cap = self
            .mem
            .root_cap()
            .try_restrict(base, APP_BUF as u64)?
            .try_restrict_perms(Perms::data())?;
        if let Some(b) = fill {
            self.mem.fill(&cap, base, APP_BUF as u64, b)?;
        }
        Ok(cap)
    }
}

/// The rig's events.
enum Ev {
    Poll {
        node: usize,
        epoch: u64,
    },
    Deliver {
        node: usize,
        at: SimTime,
        frame: Frame,
    },
    Hop {
        port: usize,
        frame: Frame,
    },
}

/// What one rig run did, in the timed run's units.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    events: u64,
    loop_polls: u64,
    deliveries: u64,
    switch_hops: u64,
    frames_in: u64,
    frames_out: u64,
    parks: u64,
    mutex_acquisitions: u64,
    payload_bytes: u64,
    copies: u64,
}

struct Rig {
    nodes: Vec<Node>,
    fabric: Option<LinkFabric>,
    port_node: Vec<usize>,
    costs: CostModel,
    wire: Wire,
    mutex: ServiceMutex,
    stop: SimTime,
    tracer: Tracer,
    counts: Counts,
}

/// The result of one rig run.
pub struct Report {
    /// The spans (totals, and the first [`crate::trace::KEEP`] verbatim).
    pub tracer: Tracer,
    /// Wall seconds of the whole rig: build, engine run, copies.
    wall_s: f64,
    /// Work done.
    counts: Counts,
    /// The recorder's own per-span cost, taken out of every self time.
    span_cost: SpanCost,
}

impl Report {
    /// `layer.<layer>.calls` / `.self_ns` for each reported layer (self
    /// times net of the recorder's own cost), plus the rig's counts as
    /// `rig.*`.
    pub fn record(&self) -> Vec<(String, f64)> {
        let mut r = Vec::new();
        let self_ns = |s: Span| self.tracer.corrected_self_ns(s, self.span_cost);
        for span in Span::ALL {
            let (name, ns) = match span {
                Span::EngineSchedule => continue,
                // The engine's own cost: stepping minus the handler, plus
                // every schedule call made from inside the handler.
                Span::EngineStep => ("simkern", self_ns(span) + self_ns(Span::EngineSchedule)),
                s => (s.name(), self_ns(s)),
            };
            r.push((
                format!("layer.{name}.calls"),
                self.tracer.totals(span).calls as f64,
            ));
            r.push((format!("layer.{name}.self_ns"), ns));
        }
        r.push(("rig.span_cost_inner_ns".into(), self.span_cost.inner));
        r.push(("rig.span_cost_outer_ns".into(), self.span_cost.outer));
        let c = self.counts;
        for (k, v) in [
            ("rig.events", c.events),
            ("rig.loop_polls", c.loop_polls),
            ("rig.deliveries", c.deliveries),
            ("rig.switch_hops", c.switch_hops),
            ("rig.frames_in", c.frames_in),
            ("rig.frames_out", c.frames_out),
            ("rig.parks", c.parks),
            ("rig.mutex_acquisitions", c.mutex_acquisitions),
            ("rig.payload_bytes", c.payload_bytes),
            ("rig.copies", c.copies),
        ] {
            r.push((k.to_string(), v as f64));
        }
        r.push(("rig.wall_s".into(), self.wall_s));
        r
    }
}

/// The host address of star leaf `i`, as `capnet::topology` pages them.
fn leaf_ip(i: usize) -> Ipv4Addr {
    if i < 90 {
        Ipv4Addr::new(10, 1, 0, 1 + i as u8)
    } else {
        let j = i - 90;
        Ipv4Addr::new(10, 1, 1 + (j / 200) as u8, 1 + (j % 200) as u8)
    }
}

fn add_node(
    kmod: &mut BindingRegistry,
    costs: &CostModel,
    index: usize,
    model: NicModel,
    ip: Ipv4Addr,
    link: Link,
) -> Res<Node> {
    let addr = PciAddress::new(0, 3 + index as u8, 0);
    kmod.discover(addr, "Intel 82576 Gigabit Network Connection");
    kmod.bind_userspace(addr)?;
    let mut dev = EthDev::new(addr, model, costs.clone());
    let mut mem = TaggedMemory::new(NODE_MEM);
    let region = mem
        .root_cap()
        .try_restrict(POOL_BASE, POOL_BYTES)?
        .try_restrict_perms(Perms::data())?;
    dev.configure_port(0, &mut mem, region, 512)?;
    dev.start(kmod)?;
    let stack = FStack::new(StackConfig::new(format!("rig{index}"), dev.mac(0), ip));
    Ok(Node {
        stack,
        dev,
        mem,
        bump: POOL_BASE + POOL_BYTES,
        apps: Vec::new(),
        app_of_fd: Vec::new(),
        runnable: Vec::new(),
        dirty: Vec::new(),
        per_call_ns: 0,
        s2: false,
        parked: false,
        epoch: 0,
        link,
    })
}

/// The simulated traffic window the rig replays: half the workload's,
/// which keeps a rig run near a second of host time.
fn rig_traffic(w: Workload) -> SimDuration {
    SimDuration::from_nanos(w.traffic().as_nanos() / 2)
}

fn build(w: Workload, seed: u64, tracer: Tracer) -> Res<Rig> {
    let costs = CostModel::morello();
    let mut kmod = BindingRegistry::new();
    let traffic = rig_traffic(w);
    let mut nodes = Vec::new();
    let mut fabric = None;
    let mut port_node = Vec::new();
    if w == Workload::PaperS4Bulk {
        let dut_ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut dut = add_node(
            &mut kmod,
            &costs,
            0,
            NicModel::Dual82576,
            dut_ip,
            Link::Peer(1),
        )?;
        let profile = Workload::s4_profile(&costs);
        dut.per_call_ns = profile.per_ff_call_ns;
        dut.s2 = profile.s2_service;
        let peer_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut peer = add_node(&mut kmod, &costs, 1, NicModel::Host, peer_ip, Link::Peer(0))?;
        let buf = dut.carve(None)?;
        dut.apps.push(App::Server(ServerApp::start(
            &mut dut.stack,
            "rig-rx",
            5201,
            buf,
        )?));
        let buf = peer.carve(Some(0xA5))?;
        let client = ClientApp::start(
            &mut peer.stack,
            "rig-tx",
            (dut_ip, 5201),
            buf,
            traffic,
            SimTime::ZERO,
        )?;
        peer.apps.push(App::Client(client));
        nodes.push(dut);
        nodes.push(peer);
    } else {
        let leaves = w.leaves();
        fabric = Some(LinkFabric::new(leaves + 1, 64 * (leaves + 1)));
        let hub_ip = Ipv4Addr::new(10, 1, 0, 100);
        let mut hub = add_node(
            &mut kmod,
            &costs,
            0,
            NicModel::Host,
            hub_ip,
            Link::Switch(0),
        )?;
        port_node.push(0);
        let mut leaf_nodes = Vec::new();
        for i in 0..leaves {
            let mut leaf = add_node(
                &mut kmod,
                &costs,
                i + 1,
                NicModel::Host,
                leaf_ip(i),
                Link::Switch(i + 1),
            )?;
            port_node.push(i + 1);
            if w.is_http() {
                let buf = leaf.carve(Some(0x5A))?;
                let fleet_seed =
                    seed ^ (i as u64 + 2).wrapping_mul(0x0000_0100_0000_01B3) ^ 0x4854_5450;
                let mut cfg = w.fleet(hub_ip);
                cfg.open_for = traffic;
                let fleet = FleetApp::start(
                    format!("rig-fleet{i}"),
                    &mut leaf.stack,
                    buf,
                    cfg,
                    fleet_seed,
                    SimTime::ZERO,
                );
                leaf.apps.push(App::Fleet(fleet));
            } else {
                let port = 5301 + i as u16;
                let buf = hub.carve(None)?;
                hub.apps.push(App::Server(ServerApp::start(
                    &mut hub.stack,
                    format!("rig-rx{i}"),
                    port,
                    buf,
                )?));
                let buf = leaf.carve(Some(0xA5))?;
                let client = ClientApp::start(
                    &mut leaf.stack,
                    format!("rig-tx{i}"),
                    (hub_ip, port),
                    buf,
                    traffic,
                    SimTime::ZERO,
                )?;
                leaf.apps.push(App::Client(client));
            }
            leaf_nodes.push(leaf);
        }
        if w.is_http() {
            let buf = hub.carve(None)?;
            let server = HttpServerApp::start(
                &mut hub.stack,
                "rig-httpd",
                HTTPD_PORT,
                buf,
                HttpServerConfig::default(),
            )?;
            hub.apps.push(App::Http(server));
        }
        nodes.push(hub);
        nodes.extend(leaf_nodes);
    }
    for node in &mut nodes {
        node.runnable = vec![true; node.apps.len()];
        let Node {
            apps, app_of_fd, ..
        } = node;
        for (slot, app) in apps.iter_mut().enumerate() {
            app.note_fds(app_of_fd, slot as u32);
        }
    }
    Ok(Rig {
        nodes,
        fabric,
        port_node,
        mutex: ServiceMutex::new(&costs),
        costs,
        wire: Wire::new(SimDuration::from_nanos(1_000)),
        stop: SimTime::ZERO + traffic + SimDuration::from_millis(30),
        tracer,
        counts: Counts::default(),
    })
}

impl Rig {
    fn schedule(&mut self, engine: &mut Engine<Rig>, at: SimTime, ev: Ev) {
        self.tracer.enter(Span::EngineSchedule, u32::MAX);
        engine.schedule(at, ev);
        self.tracer.exit();
    }

    fn poll(&mut self, i: usize, engine: &mut Engine<Rig>) {
        let now = engine.now();
        if now >= self.stop {
            return;
        }
        self.counts.loop_polls += 1;
        let flow = i as u32;
        let Rig { nodes, tracer, .. } = self;
        let gated = nodes[i].gated();
        let Node {
            stack,
            dev,
            mem,
            apps,
            app_of_fd,
            runnable,
            dirty,
            ..
        } = &mut nodes[i];

        // (i) RX ring → stack.
        tracer.enter(Span::NicRx, flow);
        let rx = dev.rx_burst_shared(0, now, 32, mem).unwrap_or_default();
        let n_rx = rx.len();
        for (mbuf, frame) in rx {
            tracer.enter(Span::FstackInput, flow);
            stack.input_buf(now, frame.buf());
            tracer.exit();
            dev.free_mbuf(0, mbuf);
        }
        tracer.exit();

        // (ii) app steps, gated on changed fds like NetSim's ideal hosts.
        if gated {
            dirty.clear();
            stack.take_dirty_fds(dirty);
            for &fd in dirty.iter() {
                if let Some(&Some(slot)) = app_of_fd.get(fd as usize) {
                    runnable[slot as usize] = true;
                }
            }
        }
        let mut ff_calls = 0u64;
        let mut progressed = false;
        for (slot, app) in apps.iter_mut().enumerate() {
            if gated && !runnable[slot] && !app.due(now) {
                continue;
            }
            runnable[slot] = false;
            tracer.enter(app.span(), flow);
            let stepped = app.step(stack, mem, now);
            tracer.exit();
            if let Some((calls, moved)) = stepped {
                ff_calls += calls;
                progressed |= moved;
                if moved {
                    app.note_fds(app_of_fd, slot as u32);
                }
            }
        }

        // (iii) stack timers + TX ring.
        tracer.enter(Span::FstackPollTx, flow);
        let out = stack.poll_tx(now);
        tracer.exit();
        let mut tx = Vec::new();
        if !out.is_empty() {
            tracer.enter(Span::NicTx, flow);
            let mut batch = Vec::with_capacity(out.len());
            for fb in out {
                let Ok(mut m) = dev.alloc_mbuf(0) else { break };
                if m.set_data(mem, &fb).is_err() {
                    dev.free_mbuf(0, m);
                    break;
                }
                batch.push((m, Frame::from_buf(fb)));
            }
            tx = dev.tx_burst_shared(0, now, batch).unwrap_or_default();
            tracer.exit();
        }
        let n_tx = tx.len();

        let node = &mut nodes[i];
        let work = self.costs.mainloop_idle_ns
            + self.costs.mainloop_per_frame_ns * (n_rx + n_tx) as u64
            + node.per_call_ns * ff_calls;
        let work = SimDuration::from_nanos(work);
        let next = if node.s2 {
            self.counts.mutex_acquisitions += 1;
            self.tracer.enter(Span::Mutex, flow);
            let grant = self.mutex.acquire(now, work);
            self.tracer.exit();
            grant.released_at
        } else {
            now + work
        };

        let link = node.link;
        for (frame, departure) in tx {
            let at = self.wire.propagate(departure);
            let ev = match link {
                Link::Peer(p) => Ev::Deliver { node: p, at, frame },
                Link::Switch(port) => Ev::Hop { port, frame },
            };
            self.schedule(engine, at, ev);
        }

        let node = &mut self.nodes[i];
        let idle = n_rx == 0 && n_tx == 0 && !progressed;
        if idle && node.gated() && node.dev.rx_pending(0) == 0 {
            self.tracer.enter(Span::FstackTimer, flow);
            let mut deadline = node.stack.next_timer_deadline();
            self.tracer.exit();
            for app in &node.apps {
                if let Some(d) = app.next_deadline(now) {
                    deadline = Some(deadline.map_or(d, |m| m.min(d)));
                }
            }
            self.counts.parks += 1;
            node.parked = true;
            node.epoch += 1;
            let epoch = node.epoch;
            if let Some(d) = deadline {
                self.schedule(engine, d.max(next), Ev::Poll { node: i, epoch });
            }
        } else {
            let epoch = node.epoch;
            self.schedule(engine, next, Ev::Poll { node: i, epoch });
        }
    }

    fn deliver(&mut self, i: usize, at: SimTime, frame: Frame, engine: &mut Engine<Rig>) {
        self.counts.deliveries += 1;
        self.tracer.enter(Span::NicDeliver, i as u32);
        self.nodes[i].dev.deliver(0, at, frame);
        self.tracer.exit();
        let node = &mut self.nodes[i];
        if node.parked {
            node.parked = false;
            node.epoch += 1;
            let epoch = node.epoch;
            let now = engine.now();
            self.schedule(engine, now, Ev::Poll { node: i, epoch });
        }
    }

    fn hop(&mut self, port: usize, frame: Frame, engine: &mut Engine<Rig>) {
        self.counts.switch_hops += 1;
        let now = engine.now();
        let fabric = self.fabric.as_mut().expect("hops only happen on a star");
        self.tracer.enter(Span::Switch, port as u32);
        let outs = fabric.ingress(port, now, frame, &self.costs);
        self.tracer.exit();
        for tx in outs {
            let node = self.port_node[tx.port];
            let at = self.wire.propagate(tx.departure);
            self.schedule(
                engine,
                at,
                Ev::Deliver {
                    node,
                    at,
                    frame: tx.frame,
                },
            );
        }
    }
}

impl World for Rig {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, engine: &mut Engine<Rig>) {
        self.tracer.enter(Span::World, u32::MAX);
        match ev {
            Ev::Poll { node, epoch } => {
                if self.nodes[node].epoch == epoch {
                    self.nodes[node].parked = false;
                    self.poll(node, engine);
                }
            }
            Ev::Deliver { node, at, frame } => self.deliver(node, at, frame, engine),
            Ev::Hop { port, frame } => self.hop(port, frame, engine),
        }
        self.tracer.exit();
    }
}

/// Runs the rig for workload `w` at `seed`, recording spans when `spans`.
///
/// # Errors
///
/// Wiring failures and capability faults in the standalone copies.
pub fn run(w: Workload, seed: u64, spans: bool) -> Res<Report> {
    let span_cost = if spans {
        SpanCost::measure(100_000)
    } else {
        SpanCost::default()
    };
    let t0 = Instant::now();
    let mut rig = build(w, seed, Tracer::new(spans))?;
    let mut engine: Engine<Rig> = Engine::new();
    for i in 0..rig.nodes.len() {
        let at = SimTime::from_nanos(97 * (i as u64 + 1));
        engine.schedule(at, Ev::Poll { node: i, epoch: 0 });
    }
    let stop = rig.stop;
    loop {
        rig.tracer.enter(Span::EngineStep, u32::MAX);
        let more = match engine.next_event_at() {
            Some(at) if at < stop => engine.step(&mut rig),
            _ => false,
        };
        rig.tracer.exit();
        if !more {
            break;
        }
    }
    let end = engine.now();
    rig.counts.events = engine.executed();
    for node in std::mem::take(&mut rig.nodes) {
        let s = node.stack.stats();
        rig.counts.frames_in += s.frames_in;
        rig.counts.frames_out += s.frames_out;
        rig.counts.payload_bytes += node.apps.into_iter().map(|a| a.payload(end)).sum::<u64>();
    }

    // Standalone copies at the app-buffer size: one checked store and one
    // checked load of a whole buffer each, as ff_write/ff_read stage them.
    let mut mem = TaggedMemory::new(4 * APP_BUF as u64);
    let cap = mem.root_cap();
    let src = vec![0xA5u8; APP_BUF];
    let mut dst = vec![0u8; APP_BUF];
    for i in 0..COPIES {
        let addr = (i % 2) * APP_BUF as u64;
        rig.tracer.enter(Span::CheriCopy, u32::MAX);
        mem.write(&cap, addr, &src)?;
        mem.read_into(&cap, addr, &mut dst)?;
        rig.tracer.exit();
    }
    std::hint::black_box(&dst);
    rig.counts.copies = COPIES;
    Ok(Report {
        tracer: rig.tracer,
        wall_s: t0.elapsed().as_secs_f64(),
        counts: rig.counts,
        span_cost,
    })
}
