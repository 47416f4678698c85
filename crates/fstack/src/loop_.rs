//! The F-Stack poll-mode main loop and the Scenario 2 service mutex.
//!
//! Paper §III.B: *"After an initialization phase, a main-loop is executed,
//! with the key tasks being: (i) process the ring buffers of the DPDK
//! Ethernet driver; and, (ii) execute a user-defined function where calls to
//! F-Stack API functions can be made."* [`iterate`] is one turn of that
//! loop; the scenario driver supplies the user-defined function between
//! iterations and propagates the returned frames over the wire.
//!
//! Scenario 2 additionally serializes the F-Stack API against the loop with
//! a mutex: *"This scenario requires a mutex to coordinate the execution of
//! the F-Stack API functions and the main-loop execution, which creates a
//! potential contention issue."* That mutex is [`ServiceMutex`], whose
//! timing model (umtx block/wake) produces Fig. 6's ≈19 µs contended cost.

use crate::api::FStack;
use cheri::TaggedMemory;
use simkern::cost::CostModel;
use simkern::resource::{FifoMutex, LockGrant};
use simkern::time::{SimDuration, SimTime};
use updk::ethdev::EthDev;
use updk::wire::Frame;
use updk::UpdkError;

/// What one main-loop iteration did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationOutcome {
    /// Frames handed to the NIC: `(frame, departure_instant)` — the driver
    /// must propagate each to the cabled peer.
    pub tx: Vec<(Frame, SimTime)>,
    /// Frames received and processed.
    pub rx: usize,
    /// CPU time this iteration consumed (cost-model accounted).
    pub cost: SimDuration,
}

/// What one step of the user-defined function (an application) did, for
/// driver-side cost accounting and loop parking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// `ff_*` API calls issued during the step (each one crosses the
    /// compartment boundary in Scenarios 1/2).
    pub ff_calls: u32,
    /// Payload bytes moved (through `ff_read`/`ff_write`, or onto the
    /// wire) this step.
    pub bytes: u64,
    /// `true` once the app has nothing further to do.
    pub finished: bool,
    /// `true` when the step changed application state (connected,
    /// accepted, moved bytes, closed, …). A step that only probed and got
    /// `EAGAIN` leaves this `false`; together with the stack's timer
    /// deadlines and the app's own deadlines, the quiescence-aware driver
    /// uses it to park the main loop instead of re-polling an unchanged
    /// world.
    pub progressed: bool,
}

/// Runs one main-loop iteration: drain RX ring → protocol input → TCP
/// timers/output → TX ring.
///
/// # Errors
///
/// Driver errors ([`UpdkError`]), including capability faults in packet
/// memory.
pub fn iterate(
    stack: &mut FStack,
    dev: &mut EthDev,
    port: usize,
    mem: &mut TaggedMemory,
    now: SimTime,
    costs: &CostModel,
) -> Result<IterationOutcome, UpdkError> {
    let rx = rx_phase(stack, dev, port, mem, now)?;
    let tx = tx_phase(stack, dev, port, mem, now)?;
    let cost = SimDuration::from_nanos(
        costs.mainloop_idle_ns + costs.mainloop_per_frame_ns * (rx as u64 + tx.len() as u64),
    );
    Ok(IterationOutcome { tx, rx, cost })
}

/// The receive half of one iteration: drain the RX ring into the stack.
/// Returns the number of frames processed. Exposed separately so scenario
/// drivers can run the paper's "user-defined function" (the application
/// step) between RX and TX, exactly where F-Stack calls it.
///
/// # Errors
///
/// Driver errors ([`UpdkError`]).
pub fn rx_phase(
    stack: &mut FStack,
    dev: &mut EthDev,
    port: usize,
    mem: &mut TaggedMemory,
    now: SimTime,
) -> Result<usize, UpdkError> {
    let rx = dev.rx_burst_shared(port, now, 32, mem)?;
    let n = rx.len();
    for (mbuf, frame) in rx {
        // The mbuf holds the capability-checked DMA copy in packet memory;
        // the stack parses the shared frame buffer by slicing it — no
        // read-back copy out of `mem`.
        stack.input_buf(now, frame.buf());
        dev.free_mbuf(port, mbuf);
    }
    Ok(n)
}

/// The transmit half of one iteration: TCP timers/output into the TX ring.
/// Returns `(frame, departure)` pairs for wire propagation.
///
/// # Errors
///
/// Driver errors ([`UpdkError`]).
pub fn tx_phase(
    stack: &mut FStack,
    dev: &mut EthDev,
    port: usize,
    mem: &mut TaggedMemory,
    now: SimTime,
) -> Result<Vec<(Frame, SimTime)>, UpdkError> {
    let out_frames = stack.poll_tx(now);
    if out_frames.is_empty() {
        return Ok(Vec::new());
    }
    let mut batch = Vec::with_capacity(out_frames.len());
    for fb in out_frames {
        // DMA-write the frame into packet memory through the mbuf's
        // capability (the checked store), then hand the *shared* buffer to
        // the NIC — no read-back copy.
        let mut m = dev.alloc_mbuf(port)?;
        m.set_data(mem, &fb)?;
        batch.push((m, Frame::from_buf(fb)));
    }
    dev.tx_burst_shared(port, now, batch)
}

/// The Scenario 2 F-Stack service mutex: serializes app-side `ff_*` calls
/// against the service cVM's main loop, with umtx-backed blocking costs.
#[derive(Debug, Clone)]
pub struct ServiceMutex {
    inner: FifoMutex,
}

impl ServiceMutex {
    /// Builds the mutex from the cost model's fast/block/wake parameters.
    pub fn new(costs: &CostModel) -> Self {
        ServiceMutex {
            inner: FifoMutex::new(costs.mutex_fast_ns, costs.umtx_block_ns, costs.umtx_wake_ns),
        }
    }

    /// Acquires for a critical section of `hold` (virtual) duration.
    pub fn acquire(&mut self, now: SimTime, hold: SimDuration) -> LockGrant {
        self.inner.acquire(now, hold)
    }

    /// Total acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.inner.acquisitions()
    }

    /// Acquisitions that had to block on umtx.
    pub fn contentions(&self) -> u64 {
        self.inner.contentions()
    }

    /// Aggregate waiting time.
    pub fn total_wait(&self) -> SimDuration {
        self.inner.total_wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StackConfig;
    use crate::socket::SockType;
    use std::net::Ipv4Addr;
    use updk::kmod::{BindingRegistry, PciAddress};
    use updk::nic::NicModel;

    fn rig() -> (TaggedMemory, EthDev, FStack) {
        let mut mem = TaggedMemory::new(1 << 20);
        let addr = PciAddress::new(0, 3, 0);
        let mut kmod = BindingRegistry::new();
        kmod.discover(addr, "82576");
        kmod.bind_userspace(addr).unwrap();
        let mut dev = EthDev::new(addr, NicModel::Host, CostModel::morello());
        let region = mem.root_cap().try_restrict(0x10000, 0x40000).unwrap();
        dev.configure_port(0, &mut mem, region, 128).unwrap();
        dev.start(&kmod).unwrap();
        let stack = FStack::new(StackConfig::new(
            "t",
            dev.mac(0),
            Ipv4Addr::new(10, 0, 0, 1),
        ));
        (mem, dev, stack)
    }

    #[test]
    fn idle_iteration_costs_idle_time() {
        let (mut mem, mut dev, mut stack) = rig();
        let costs = CostModel::morello();
        let out = iterate(&mut stack, &mut dev, 0, &mut mem, SimTime::ZERO, &costs).unwrap();
        assert_eq!(out.rx, 0);
        assert!(out.tx.is_empty());
        assert_eq!(out.cost.as_nanos(), costs.mainloop_idle_ns);
    }

    #[test]
    fn tx_path_emits_frames_with_departures() {
        let (mut mem, mut dev, mut stack) = rig();
        let costs = CostModel::morello();
        // A connect generates an ARP request (no cache entry) on first poll.
        let fd = stack.ff_socket(SockType::Stream).unwrap();
        stack
            .ff_connect(fd, (Ipv4Addr::new(10, 0, 0, 2), 5201), SimTime::ZERO)
            .unwrap();
        let out = iterate(&mut stack, &mut dev, 0, &mut mem, SimTime::ZERO, &costs).unwrap();
        assert_eq!(out.tx.len(), 1, "ARP request frame");
        assert!(out.cost.as_nanos() > costs.mainloop_idle_ns);
        assert!(out.tx[0].1 > SimTime::ZERO);
    }

    #[test]
    fn rx_path_feeds_the_stack() {
        let (mut mem, mut dev, mut stack) = rig();
        let costs = CostModel::morello();
        // Deliver a broadcast ARP request for our IP; the stack must answer.
        let req = crate::arp::ArpPacket::request(
            updk::nic::MacAddr::local(9),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let frame = crate::ether::EthHdr {
            dst: updk::nic::MacAddr::BROADCAST,
            src: updk::nic::MacAddr::local(9),
            ethertype: crate::ether::EtherType::Arp,
        }
        .build(&req.build());
        dev.deliver(0, SimTime::ZERO, Frame::new(frame));
        let out = iterate(
            &mut stack,
            &mut dev,
            0,
            &mut mem,
            SimTime::from_micros(50),
            &costs,
        )
        .unwrap();
        assert_eq!(out.rx, 1);
        assert_eq!(out.tx.len(), 1, "ARP reply");
        assert_eq!(stack.stats().frames_in, 1);
    }

    #[test]
    fn service_mutex_matches_cost_model() {
        let costs = CostModel::morello();
        let mut m = ServiceMutex::new(&costs);
        let g1 = m.acquire(SimTime::ZERO, SimDuration::from_micros(10));
        assert!(!g1.contended);
        let g2 = m.acquire(SimTime::from_nanos(100), SimDuration::from_micros(1));
        assert!(g2.contended);
        assert_eq!(m.acquisitions(), 2);
        assert_eq!(m.contentions(), 1);
        assert!(m.total_wait().as_nanos() > 9_000);
    }
}
