//! The applications a node's poll loop steps — F-Stack's user-defined
//! loop function, one compartment per app.
//!
//! Every workload implements [`SimApp`] and installs through one
//! `NetSim::add_*` installer here, which hands [`NetSim::install`] an
//! [`AppClass`] tag and a [`Respawn`] blueprint. The node keeps one
//! [`AppSlot`] list ordered by (class rank, install order); the driver
//! steps, routes, parks, crashes, restarts and reports through that list
//! alone, so a new workload is one `SimApp` impl plus its installer in
//! this file and no edit to the driver.

use crate::netsim::{NetSim, NodeId, SimOutcome};
use crate::CapnetError;
use capnet_chaos::{ChaosApp, ChaosConfig};
use capnet_httpd::{FleetApp, FleetConfig, HttpServerApp, HttpServerConfig};
use cheri::TaggedMemory;
use chos::fdtable::Fd;
use chos::Errno;
use fstack::{FStack, StepOutcome};
use iperf::{ClientApp, ServerApp};
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// One application as the node's poll loop sees it.
pub(crate) trait SimApp {
    /// One poll-mode step at `now`. A step that fails with a socket error
    /// counts as a step that did nothing.
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> StepOutcome;

    /// Routes every fd whose stack events should wake this app to it.
    /// `refresh` marks the re-route after a step that progressed: apps
    /// whose steps never open an fd route nothing then.
    fn fds(&mut self, refresh: bool, route: &mut FdRoute<'_>);

    /// `true` when a step at `now` could progress without any stack event.
    fn due(&self, now: SimTime) -> bool;

    /// `false` for an app driven purely by stack events: it is never
    /// `due` and never has a `next_deadline`. Fixed for the app's life
    /// (and its respawns), so the loop reads it once at install and skips
    /// both calls for such apps — the hub of a 128-leaf star holds 128.
    fn clocked(&self) -> bool {
        true
    }

    /// The next instant this app acts on its own clock, if any — a parked
    /// node wakes for it.
    fn next_deadline(&self, now: SimTime) -> Option<SimTime>;

    /// Pushes the app's report into its [`SimOutcome`] vector.
    fn report(self: Box<Self>, end: SimTime, out: &mut SimOutcome);
}

/// The step rank of an app: a node steps its apps class by class in this
/// order, each class in install order. Every class was appended after the
/// existing ones, so adding a class never reorders an older scenario's
/// steps (nor moves its digest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum AppClass {
    /// iperf receivers.
    Server,
    /// iperf senders — the only class `AppSched` gates, by ordinal.
    Client,
    /// HTTP serving plane.
    HttpServer,
    /// Open-loop HTTP client fleets.
    Fleet,
    /// Fault-injection campaigns.
    Chaos,
}

/// Builds an app on a node's stack at an instant: called once by the
/// installer at t=0 and again by every node restart. It captures only
/// plain configuration (labels, configs, seeds, arena capabilities) —
/// never an `Rc` — which is what lets a shard world move across threads.
pub(crate) type Respawn =
    Box<dyn Fn(&mut FStack, SimTime) -> Result<Box<dyn SimApp>, Errno> + Send>;

/// One entry of a node's app list.
pub(crate) struct AppSlot {
    pub(crate) class: AppClass,
    /// [`SimApp::clocked`] of the blueprint's apps.
    pub(crate) clocked: bool,
    /// The install-time blueprint.
    pub(crate) respawn: Respawn,
    /// The live app: `None` while the node is crashed, after a restart
    /// whose respawn failed, and once its report has been taken.
    pub(crate) app: Option<Box<dyn SimApp>>,
}

/// One app's view of its node's dirty-fd routing table.
pub(crate) struct FdRoute<'a> {
    /// fd → index of the owning app in the node's list.
    pub(crate) app_of_fd: &'a mut Vec<Option<u32>>,
    /// This app's index.
    pub(crate) slot: u32,
}

impl FdRoute<'_> {
    /// Routes `fd` to this app (the table grows on demand; an entry is
    /// overwritten when its fd is reused).
    pub(crate) fn note(&mut self, fd: Fd) {
        let idx = fd as usize;
        if idx >= self.app_of_fd.len() {
            self.app_of_fd.resize(idx + 1, None);
        }
        self.app_of_fd[idx] = Some(self.slot);
    }
}

impl SimApp for ServerApp {
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> StepOutcome {
        ServerApp::step(self, stack, mem, now).unwrap_or_default()
    }

    fn fds(&mut self, _refresh: bool, route: &mut FdRoute<'_>) {
        // Accepts add connections; all server progress is input-driven.
        route.note(self.listen_fd());
        self.conn_fds().iter().for_each(|&fd| route.note(fd));
    }

    fn due(&self, _now: SimTime) -> bool {
        false
    }

    fn clocked(&self) -> bool {
        false
    }

    fn next_deadline(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    fn report(self: Box<Self>, end: SimTime, out: &mut SimOutcome) {
        out.servers.push(ServerApp::report(*self, end));
    }
}

impl SimApp for ClientApp {
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> StepOutcome {
        ClientApp::step(self, stack, mem, now).unwrap_or_default()
    }

    fn fds(&mut self, refresh: bool, route: &mut FdRoute<'_>) {
        // The one socket is opened at start; steps never add another.
        if !refresh {
            route.note(self.sock_fd());
        }
    }

    fn due(&self, now: SimTime) -> bool {
        ClientApp::due(self, now)
    }

    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        ClientApp::next_deadline(self, now)
    }

    fn report(self: Box<Self>, end: SimTime, out: &mut SimOutcome) {
        out.clients.push(ClientApp::report(*self, end));
    }
}

impl SimApp for HttpServerApp {
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> StepOutcome {
        HttpServerApp::step(self, stack, mem, now).unwrap_or_default()
    }

    fn fds(&mut self, _refresh: bool, route: &mut FdRoute<'_>) {
        route.note(self.listen_fd());
        self.conn_fds().iter().for_each(|&fd| route.note(fd));
    }

    fn due(&self, now: SimTime) -> bool {
        // The idle reaper fires without stack events (never, knob off).
        HttpServerApp::due(self, now)
    }

    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        HttpServerApp::next_deadline(self, now)
    }

    fn report(self: Box<Self>, end: SimTime, out: &mut SimOutcome) {
        out.http_servers.push(HttpServerApp::report(*self, end));
    }
}

impl SimApp for FleetApp {
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> StepOutcome {
        FleetApp::step(self, stack, mem, now).unwrap_or_default()
    }

    fn fds(&mut self, _refresh: bool, route: &mut FdRoute<'_>) {
        // Arrivals open connections.
        self.conn_fds().iter().for_each(|&fd| route.note(fd));
    }

    fn due(&self, now: SimTime) -> bool {
        FleetApp::due(self, now)
    }

    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        FleetApp::next_deadline(self, now)
    }

    fn report(self: Box<Self>, end: SimTime, out: &mut SimOutcome) {
        out.http_fleets.push(FleetApp::report(*self, end));
    }
}

impl SimApp for ChaosApp {
    fn step(&mut self, stack: &mut FStack, _mem: &mut TaggedMemory, now: SimTime) -> StepOutcome {
        // Infallible: injected frames cannot raise an Errno.
        ChaosApp::step(self, stack, now)
    }

    fn fds(&mut self, _refresh: bool, _route: &mut FdRoute<'_>) {}

    fn due(&self, now: SimTime) -> bool {
        ChaosApp::due(self, now)
    }

    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        ChaosApp::next_deadline(self, now)
    }

    fn report(self: Box<Self>, _end: SimTime, out: &mut SimOutcome) {
        out.chaos.push(ChaosApp::report(&self));
    }
}

impl NetSim {
    /// Installs an iperf server (receiver) on `node` listening at `port`.
    pub fn add_server(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        port: u16,
    ) -> Result<(), CapnetError> {
        let label = label.into();
        let buf = self.carve_app_buf(node, None)?;
        self.install(
            node,
            AppClass::Server,
            Box::new(move |stack, _now| {
                let app = ServerApp::start(stack, label.clone(), port, buf)?;
                Ok(Box::new(app) as Box<dyn SimApp>)
            }),
        )
    }

    /// Installs an iperf client (sender) on `node`, targeting
    /// `remote:port`, sending for `duration` once connected.
    pub fn add_client(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        remote: (Ipv4Addr, u16),
        duration: SimDuration,
        write_gap: SimDuration,
    ) -> Result<(), CapnetError> {
        let label = label.into();
        let buf = self.carve_app_buf(node, Some(0xA5))?;
        self.install(
            node,
            AppClass::Client,
            Box::new(move |stack, now| {
                let mut app = ClientApp::start(stack, label.clone(), remote, buf, duration, now)?;
                app.set_write_gap(write_gap);
                Ok(Box::new(app) as Box<dyn SimApp>)
            }),
        )
    }

    /// Installs an HTTP static server (the serving plane) on `node`,
    /// listening at `port` with the given server policy.
    pub fn add_http_server(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        port: u16,
        cfg: HttpServerConfig,
    ) -> Result<(), CapnetError> {
        let label = label.into();
        let buf = self.carve_app_buf(node, None)?;
        self.install(
            node,
            AppClass::HttpServer,
            Box::new(move |stack, _now| {
                let app = HttpServerApp::start(stack, label.clone(), port, buf, cfg.clone())?;
                Ok(Box::new(app) as Box<dyn SimApp>)
            }),
        )
    }

    /// Installs an open-loop HTTP client fleet on `node`. Its RNG stream
    /// derives from the scenario seed, the node index and the fleet's
    /// slot, so parallel fleets draw independently and a run is a pure
    /// function of [`Self::set_seed`].
    pub fn add_http_fleet(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        cfg: FleetConfig,
    ) -> Result<(), CapnetError> {
        let buf = self.carve_app_buf(node, Some(0x5A))?;
        // "HTTP": keep fleet streams off the port-RNG streams.
        let seed = self.app_seed(node, AppClass::Fleet, 0x4854_5450);
        let label = label.into();
        self.install(
            node,
            AppClass::Fleet,
            Box::new(move |stack, now| {
                let app = FleetApp::start(label.clone(), stack, buf, cfg.clone(), seed, now);
                Ok(Box::new(app) as Box<dyn SimApp>)
            }),
        )
    }

    /// Installs a fault-injection campaign on `node`. The campaign's RNG
    /// streams derive from the scenario seed, the node index and the
    /// campaign slot (same scheme as [`Self::add_http_fleet`]), so a run
    /// is a pure function of [`Self::set_seed`]. Wire chaos transmits
    /// through the node's own stack; the capability walker and bit-flip
    /// injector own private arenas and never touch workload memory.
    pub fn add_chaos(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        cfg: ChaosConfig,
    ) -> Result<(), CapnetError> {
        // "CHAO": keep chaos streams off the fleet/port streams.
        let seed = self.app_seed(node, AppClass::Chaos, 0x4348_414F);
        let label = label.into();
        self.install(
            node,
            AppClass::Chaos,
            Box::new(move |stack, _now| {
                let (mac, ip) = (stack.config().mac, stack.config().ip);
                let app = ChaosApp::new(label.clone(), cfg.clone(), seed, mac, ip);
                Ok(Box::new(app) as Box<dyn SimApp>)
            }),
        )
    }
}
