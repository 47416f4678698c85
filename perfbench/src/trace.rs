//! The span recorder the layer rig wraps around every call into a layer.
//!
//! A span is `(name, start, end, parent, flow)`. Open spans form a stack,
//! so each one's self time is its duration minus its children's. Totals
//! per name are kept for the whole run; the first [`KEEP`] spans are kept
//! verbatim and written out when the rig ends. A disabled recorder reads
//! no clock, which is what the untraced rig runs measure against.

use std::io::Write;
use std::time::Instant;

/// Spans kept verbatim for the dump (the totals cover every span).
pub const KEEP: usize = 1 << 16;

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Engine::step`, including the `Engine::next_event_at` peek.
    EngineStep,
    /// `Engine::schedule`.
    EngineSchedule,
    /// The rig's own event handler (its stand-in for `NetSim` bookkeeping).
    World,
    /// `LinkFabric::ingress`.
    Switch,
    /// `EthDev::deliver`.
    NicDeliver,
    /// `EthDev::rx_burst_shared` and `free_mbuf`.
    NicRx,
    /// `EthDev::alloc_mbuf`, `Mbuf::set_data` and `tx_burst_shared`.
    NicTx,
    /// `FStack::input_buf`.
    FstackInput,
    /// `FStack::poll_tx`.
    FstackPollTx,
    /// `FStack::next_timer_deadline`.
    FstackTimer,
    /// `ServiceMutex::acquire` (the S2/S4 service mutex).
    Mutex,
    /// `iperf::ClientApp::step`, with the `ff_*` and `cheri` work it calls.
    IperfClient,
    /// `iperf::ServerApp::step`, likewise inclusive.
    IperfServer,
    /// `capnet_httpd::HttpServerApp::step`, likewise inclusive.
    HttpServer,
    /// `capnet_httpd::FleetApp::step`, likewise inclusive.
    HttpFleet,
    /// A standalone `TaggedMemory::write` + `read_into` of one app buffer.
    CheriCopy,
}

impl Span {
    /// Every span kind, in index order.
    pub const ALL: [Span; 16] = [
        Span::EngineStep,
        Span::EngineSchedule,
        Span::World,
        Span::Switch,
        Span::NicDeliver,
        Span::NicRx,
        Span::NicTx,
        Span::FstackInput,
        Span::FstackPollTx,
        Span::FstackTimer,
        Span::Mutex,
        Span::IperfClient,
        Span::IperfServer,
        Span::HttpServer,
        Span::HttpFleet,
        Span::CheriCopy,
    ];

    /// The span's name in the dump and in `layer.<name>.*` rig records.
    pub fn name(self) -> &'static str {
        match self {
            Span::EngineStep => "simkern.step",
            Span::EngineSchedule => "simkern.schedule",
            Span::World => "rig.world",
            Span::Switch => "updk.switch",
            Span::NicDeliver => "updk.nic_deliver",
            Span::NicRx => "updk.nic_rx",
            Span::NicTx => "updk.nic_tx",
            Span::FstackInput => "fstack.input",
            Span::FstackPollTx => "fstack.poll_tx",
            Span::FstackTimer => "fstack.timer",
            Span::Mutex => "intravisor.mutex",
            Span::IperfClient => "iperf.client_incl",
            Span::IperfServer => "iperf.server_incl",
            Span::HttpServer => "httpd.server_incl",
            Span::HttpFleet => "httpd.fleet_incl",
            Span::CheriCopy => "cheri.copy",
        }
    }
}

/// Totals for one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the child spans inside them, ns.
    pub self_ns: u64,
    /// Child spans closed directly inside these spans.
    pub children: u64,
}

/// What recording one span costs, measured by [`SpanCost::measure`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCost {
    /// Recorder time inside a span's own interval, ns.
    pub inner: f64,
    /// Recorder time a child span adds to its parent's self time, ns.
    pub outer: f64,
}

impl SpanCost {
    /// Times `n` empty spans nested in one parent.
    pub fn measure(n: u64) -> SpanCost {
        let mut t = Tracer::new(true);
        t.enter(Span::World, u32::MAX);
        for _ in 0..n {
            t.enter(Span::EngineSchedule, u32::MAX);
            t.exit();
        }
        t.exit();
        let child = t.totals(Span::EngineSchedule);
        let parent = t.totals(Span::World);
        let n = n.max(1) as f64;
        SpanCost {
            inner: child.total_ns as f64 / n,
            outer: parent.self_ns as f64 / n,
        }
    }
}

/// One recorded span. Times are ns since the recorder started; `parent`
/// indexes the kept spans (`u32::MAX` for none or not kept); `flow` is
/// the rig node the call acted for (`u32::MAX` for none).
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub span: Span,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub flow: u32,
}

#[derive(Debug)]
struct Open {
    span: Span,
    start_ns: u64,
    child_ns: u64,
    children: u64,
    kept: u32,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<Open>,
    totals: [Totals; Span::ALL.len()],
    kept: Vec<Record>,
}

impl Tracer {
    /// A recorder that records (`on`) or does nothing at all.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            totals: [Totals::default(); Span::ALL.len()],
            kept: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `span` acting for `flow`.
    #[inline]
    pub fn enter(&mut self, span: Span, flow: u32) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let kept = if self.kept.len() < KEEP {
            let parent = self.open.last().map_or(u32::MAX, |o| o.kept);
            self.kept.push(Record {
                span,
                start_ns,
                end_ns: start_ns,
                parent,
                flow,
            });
            (self.kept.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.open.push(Open {
            span,
            start_ns,
            child_ns: 0,
            children: 0,
            kept,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced enter/exit in the rig).
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(o.start_ns);
        let t = &mut self.totals[o.span as usize];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        t.children += o.children;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
            parent.children += 1;
        }
        if let Some(r) = self.kept.get_mut(o.kept as usize) {
            r.end_ns = end_ns;
        }
    }

    /// Totals for `span`.
    pub fn totals(&self, span: Span) -> Totals {
        self.totals[span as usize]
    }

    /// Self time of `span` with the recorder's own cost taken out: each
    /// span's recorded interval holds `cost.inner` of clock bookkeeping,
    /// and each direct child adds `cost.outer` to its parent's self time.
    pub fn corrected_self_ns(&self, span: Span, cost: SpanCost) -> f64 {
        let t = self.totals(span);
        (t.self_ns as f64 - t.calls as f64 * cost.inner - t.children as f64 * cost.outer).max(0.0)
    }

    /// Writes the kept spans as tab-separated lines to
    /// `perfbench/out/spans-<label>.tsv` under the current directory.
    ///
    /// # Errors
    ///
    /// I/O failures, or no `perfbench` directory here.
    pub fn dump(&self, label: &str) -> std::io::Result<()> {
        let dir = std::path::Path::new("perfbench/out");
        if !dir.parent().is_some_and(std::path::Path::is_dir) {
            return Err(std::io::Error::other("no perfbench directory here"));
        }
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(dir.join(format!("spans-{label}.tsv")))?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tflow")?;
        for (i, r) in self.kept.iter().enumerate() {
            let parent = if r.parent == u32::MAX {
                -1
            } else {
                i64::from(r.parent)
            };
            let flow = if r.flow == u32::MAX {
                -1
            } else {
                i64::from(r.flow)
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{flow}",
                r.span.name(),
                r.start_ns,
                r.end_ns
            )?;
        }
        out.flush()
    }
}
