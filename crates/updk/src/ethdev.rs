//! The DPDK-flavoured Ethernet device API.
//!
//! [`EthDev`] bundles a [`Nic`] with per-port mempools and
//! enforces the poll-mode driver lifecycle the paper's port implements:
//! discover → detach from the kernel ([`crate::kmod`]) → configure queues
//! and pools (capability-bounded) → start → poll with
//! [`EthDev::rx_burst_shared`]/[`EthDev::tx_burst_shared`].

use crate::kmod::{BindingRegistry, PciAddress};
use crate::mbuf::Mbuf;
use crate::mempool::Mempool;
use crate::nic::{HwStats, MacAddr, Nic, NicModel};
use crate::wire::Frame;
use crate::UpdkError;
use cheri::{Capability, TaggedMemory};
use simkern::cost::CostModel;
use simkern::time::SimTime;

/// Combined driver-visible statistics for one port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Hardware counters.
    pub hw: HwStats,
    /// Mempool buffers currently in flight.
    pub bufs_in_use: u32,
    /// Mempool allocation failures (RX drops due to buffer starvation).
    pub alloc_failures: u64,
}

/// A poll-mode Ethernet device.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct EthDev {
    addr: PciAddress,
    nic: Nic,
    costs: CostModel,
    pools: Vec<Option<Mempool>>,
    started: bool,
}

impl EthDev {
    /// Creates a (stopped, unconfigured) device at `addr`. Port MACs derive
    /// from the PCI address, so distinct devices never share a station
    /// address (a learning switch relies on that).
    pub fn new(addr: PciAddress, model: NicModel, costs: CostModel) -> Self {
        let nic = Nic::new(model, addr.mac_seed());
        let ports = nic.port_count();
        EthDev {
            addr,
            nic,
            costs,
            pools: (0..ports).map(|_| None).collect(),
            started: false,
        }
    }

    /// The device's PCI address.
    pub fn addr(&self) -> PciAddress {
        self.addr
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.nic.port_count()
    }

    /// The MAC address of `port`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid port index.
    pub fn mac(&self, port: usize) -> MacAddr {
        self.nic.mac(port)
    }

    /// Attaches a packet-buffer pool (carved from `region`) to `port`.
    /// `mem` is only borrowed to validate the region is real memory.
    ///
    /// # Errors
    ///
    /// [`UpdkError::NoSuchPort`], or pool-construction failures (wrong
    /// permission flags, region too small).
    pub fn configure_port(
        &mut self,
        port: usize,
        mem: &mut TaggedMemory,
        region: Capability,
        _n_desc: usize,
    ) -> Result<(), UpdkError> {
        if port >= self.pools.len() {
            return Err(UpdkError::NoSuchPort);
        }
        // Touch the region once through the capability: a misconfigured
        // (out-of-arena) region must fail at configure time, not in the
        // datapath.
        mem.read_u8(&region, region.base())
            .map_err(UpdkError::Cap)?;
        let pool = Mempool::new(
            format!("port{port}-pool"),
            region,
            crate::mempool::DEFAULT_BUF_SIZE,
        )?;
        self.pools[port] = Some(pool);
        Ok(())
    }

    /// Starts the device: requires a userspace binding and at least one
    /// configured port; brings all configured links up.
    ///
    /// # Errors
    ///
    /// [`UpdkError::DeviceBoundToKernel`] / [`UpdkError::NoSuchDevice`] from
    /// the binding check, [`UpdkError::PortNotConfigured`] if no pool is
    /// attached.
    pub fn start(&mut self, kmod: &BindingRegistry) -> Result<(), UpdkError> {
        kmod.require_userspace(self.addr)?;
        if self.pools.iter().all(Option::is_none) {
            return Err(UpdkError::PortNotConfigured);
        }
        for p in 0..self.nic.port_count() {
            if self.pools[p].is_some() {
                self.nic.set_link(p, true);
            }
        }
        self.started = true;
        Ok(())
    }

    /// Stops the device (links down; pools retained).
    pub fn stop(&mut self) {
        for p in 0..self.nic.port_count() {
            self.nic.set_link(p, false);
        }
        self.started = false;
    }

    /// `true` once started.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Link state of `port`.
    pub fn link_up(&self, port: usize) -> bool {
        self.nic.link_up(port)
    }

    /// Allocates a TX mbuf from `port`'s pool.
    ///
    /// # Errors
    ///
    /// [`UpdkError::PortNotConfigured`] or [`UpdkError::MempoolExhausted`].
    pub fn alloc_mbuf(&mut self, port: usize) -> Result<Mbuf, UpdkError> {
        self.pools
            .get_mut(port)
            .and_then(Option::as_mut)
            .ok_or(UpdkError::PortNotConfigured)?
            .alloc()
    }

    /// Returns an mbuf to `port`'s pool without transmitting it.
    ///
    /// # Panics
    ///
    /// Panics if the port has no pool or the mbuf is foreign (see
    /// [`Mempool::free`]).
    pub fn free_mbuf(&mut self, port: usize, mbuf: Mbuf) {
        self.pools[port]
            .as_mut()
            .expect("port has a pool")
            .free(mbuf);
    }

    /// Transmits a burst of frames whose bytes were already DMA-written
    /// into the paired mbufs, returning `(frame, departure_instant)` pairs
    /// for the scenario to propagate over the wire. The capability window
    /// of each mbuf is re-derived (the DMA-read check) and the buffer
    /// freed, but the wire gets the *shared* frame buffer: no read-back
    /// copy, no fresh allocation.
    ///
    /// # Errors
    ///
    /// [`UpdkError::NotStarted`] when the link is down; capability faults
    /// if an mbuf's data window is corrupt. Already-transmitted frames of
    /// the burst follow DPDK's error-free-prefix semantics
    /// (`nb_tx < nb_pkts`): we stop at the first failure.
    pub fn tx_burst_shared(
        &mut self,
        port: usize,
        now: SimTime,
        batch: Vec<(Mbuf, Frame)>,
    ) -> Result<Vec<(Frame, SimTime)>, UpdkError> {
        let mut out = Vec::with_capacity(batch.len());
        for (mbuf, frame) in batch {
            // The DMA engine reads through the mbuf's capability: deriving
            // the data window performs the tag/bounds check the paper's
            // port relies on, without copying the bytes back out.
            mbuf.data_cap().map_err(UpdkError::Cap)?;
            debug_assert!(usize::from(mbuf.data_len()) <= frame.len());
            let departure = self.nic.tx(port, now, &frame, &self.costs)?;
            self.pools[port]
                .as_mut()
                .ok_or(UpdkError::PortNotConfigured)?
                .free(mbuf);
            out.push((frame, departure));
        }
        Ok(out)
    }

    /// Hands an arriving frame to the NIC (wire side; scenario calls this).
    pub fn deliver(&mut self, port: usize, arrival: SimTime, frame: Frame) {
        self.nic.deliver(port, arrival, frame, &self.costs);
    }

    /// Frames queued on `port` that a poll has not yet consumed (delivered
    /// but possibly still mid-DMA). A quiescence-aware main loop must keep
    /// polling — not park — while this is nonzero, or it would sleep
    /// through a frame whose DMA completes without any further delivery.
    pub fn rx_pending(&self, port: usize) -> usize {
        self.nic.rx_pending(port)
    }

    /// Polls up to `max` DMA-complete frames, pairing each fresh mbuf (the
    /// capability-checked DMA write into packet memory) with the *shared*
    /// frame buffer so the stack can parse by slicing instead of copying.
    ///
    /// # Errors
    ///
    /// [`UpdkError::PortNotConfigured`]; buffer starvation silently drops
    /// the frame and counts an allocation failure, like real PMDs.
    pub fn rx_burst_shared(
        &mut self,
        port: usize,
        now: SimTime,
        max: usize,
        mem: &mut TaggedMemory,
    ) -> Result<Vec<(Mbuf, Frame)>, UpdkError> {
        if self.pools.get(port).map(Option::is_none).unwrap_or(true) {
            return Err(UpdkError::PortNotConfigured);
        }
        let frames = self.nic.rx_burst(port, now, max);
        let mut out = Vec::with_capacity(frames.len());
        for frame in frames {
            let pool = self.pools[port].as_mut().expect("checked above");
            match pool.alloc() {
                Ok(mut mbuf) => {
                    mbuf.set_data(mem, frame.bytes()).map_err(UpdkError::Cap)?;
                    mbuf.set_port(port as u16);
                    out.push((mbuf, frame));
                }
                Err(_) => { /* starvation: frame dropped, failure counted */ }
            }
        }
        Ok(out)
    }

    /// Combined statistics for `port`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid port index.
    pub fn stats(&self, port: usize) -> PortStats {
        let pool = self.pools[port].as_ref();
        PortStats {
            hw: self.nic.stats(port),
            bufs_in_use: pool.map_or(0, Mempool::in_use),
            alloc_failures: pool.map_or(0, |p| p.stats().2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TaggedMemory, BindingRegistry, EthDev) {
        let mut mem = TaggedMemory::new(1 << 20);
        let mut kmod = BindingRegistry::new();
        let addr = PciAddress::new(0, 3, 0);
        kmod.discover(addr, "Intel 82576");
        kmod.bind_userspace(addr).unwrap();
        let mut dev = EthDev::new(addr, NicModel::Dual82576, CostModel::morello());
        for port in 0..2 {
            let region = mem
                .root_cap()
                .try_restrict(0x10000 + port as u64 * 0x40000, 0x40000)
                .unwrap();
            dev.configure_port(port, &mut mem, region, 128).unwrap();
        }
        dev.start(&kmod).unwrap();
        (mem, kmod, dev)
    }

    #[test]
    fn lifecycle_is_enforced() {
        let mut mem = TaggedMemory::new(1 << 20);
        let kmod = BindingRegistry::new();
        let addr = PciAddress::new(0, 3, 0);
        let mut dev = EthDev::new(addr, NicModel::Dual82576, CostModel::morello());
        // Start without binding: refused.
        assert_eq!(dev.start(&kmod).unwrap_err(), UpdkError::NoSuchDevice);
        let mut kmod = BindingRegistry::new();
        kmod.discover(addr, "82576");
        // Kernel-bound: refused ("detach first").
        assert_eq!(
            dev.start(&kmod).unwrap_err(),
            UpdkError::DeviceBoundToKernel
        );
        kmod.bind_userspace(addr).unwrap();
        // No pools: refused.
        assert_eq!(dev.start(&kmod).unwrap_err(), UpdkError::PortNotConfigured);
        let region = mem.root_cap().try_restrict(0x10000, 0x40000).unwrap();
        dev.configure_port(0, &mut mem, region, 128).unwrap();
        dev.start(&kmod).unwrap();
        assert!(dev.is_started());
        assert!(dev.link_up(0));
        assert!(!dev.link_up(1), "unconfigured port stays down");
        dev.stop();
        assert!(!dev.is_started());
    }

    #[test]
    fn tx_rx_round_trip_through_two_ports() {
        let (mut mem, _kmod, mut dev) = setup();
        // Build a packet in a port-0 mbuf.
        let bytes = b"ping across the card";
        let mut m = dev.alloc_mbuf(0).unwrap();
        m.set_data(&mut mem, bytes).unwrap();
        let sent = dev
            .tx_burst_shared(
                0,
                SimTime::from_micros(1),
                vec![(m, Frame::new(bytes.to_vec()))],
            )
            .unwrap();
        assert_eq!(sent.len(), 1);
        let (frame, departure) = sent.into_iter().next().unwrap();
        assert!(departure > SimTime::from_micros(1));
        // Loop it back into port 1 (as if cabled).
        dev.deliver(1, departure, frame);
        let got = dev
            .rx_burst_shared(1, SimTime::from_secs(1), 32, &mut mem)
            .unwrap();
        assert_eq!(got.len(), 1);
        let (mbuf, frame) = &got[0];
        let payload = mbuf.read(&mut mem).unwrap();
        assert!(payload.starts_with(bytes));
        assert_eq!(frame.bytes(), payload.as_slice());
        assert_eq!(mbuf.port(), 1);
        // Stats reflect both directions.
        assert_eq!(dev.stats(0).hw.opackets, 1);
        assert_eq!(dev.stats(1).hw.ipackets, 1);
    }

    #[test]
    fn mbufs_return_to_the_pool_after_tx() {
        let (mut mem, _kmod, mut dev) = setup();
        let before = dev.stats(0).bufs_in_use;
        let mut m = dev.alloc_mbuf(0).unwrap();
        m.set_data(&mut mem, &[1, 2, 3]).unwrap();
        assert_eq!(dev.stats(0).bufs_in_use, before + 1);
        dev.tx_burst_shared(0, SimTime::ZERO, vec![(m, Frame::new(vec![1, 2, 3]))])
            .unwrap();
        assert_eq!(dev.stats(0).bufs_in_use, before);
    }

    #[test]
    fn misconfigured_region_fails_at_configure_time() {
        let (mut mem, _kmod, mut dev) = setup();
        // A region capability for memory beyond the arena.
        let bogus = cheri::Capability::root(1 << 30, 0x40000, cheri::Perms::data());
        let e = dev.configure_port(0, &mut mem, bogus, 128).unwrap_err();
        assert!(matches!(e, UpdkError::Cap(_)));
    }

    #[test]
    fn unconfigured_port_operations_fail() {
        let mut mem = TaggedMemory::new(1 << 20);
        let addr = PciAddress::new(0, 3, 0);
        let mut dev = EthDev::new(addr, NicModel::Dual82576, CostModel::morello());
        assert_eq!(dev.alloc_mbuf(0).unwrap_err(), UpdkError::PortNotConfigured);
        assert_eq!(
            dev.rx_burst_shared(0, SimTime::ZERO, 1, &mut mem)
                .unwrap_err(),
            UpdkError::PortNotConfigured
        );
        let root = mem.root_cap();
        assert_eq!(
            dev.configure_port(7, &mut mem, root, 1).unwrap_err(),
            UpdkError::NoSuchPort
        );
    }
}
