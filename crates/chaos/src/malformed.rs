//! The wire-level adversary: seeded malformed-frame generation.
//!
//! Every frame starts life *valid* — built with the same
//! [`fstack::ether`]/[`fstack::ip`]/[`fstack::tcp`]/[`fstack::udp`]/
//! [`fstack::arp`] builders the stack itself uses — and is then mutated
//! by one seeded corruption class. The mutations target exactly the
//! trust boundaries a receive parser must defend: length fields that
//! lie, checksums that do not cover what they claim, header-size fields
//! pointing past the frame, protocol constants that make no sense, and
//! semantically-valid-but-hostile ARP replies (cache poisoning).
//!
//! Frames leave through [`fstack::FStack::inject_raw_tx`] — the normal
//! transmit path — so they traverse the NIC, the switch and the victim's
//! receive path like any legitimate frame. Victim stacks account every
//! rejection in their `parse_drop_*` counters; the campaign asserts the
//! sum is positive and nothing panics.

use crate::{ChaosDigest, StepOutcome};
use fstack::arp::ArpPacket;
use fstack::ether::{EthHdr, EtherType, ETH_HDR_LEN};
use fstack::ip::{IpProto, Ipv4Hdr, IPV4_HDR_LEN};
use fstack::tcp::{TcpFlags, TcpOptions, TcpSegment};
use fstack::udp::UdpDatagram;
use fstack::FStack;
use simkern::rng::SimRng;
use std::net::Ipv4Addr;
use updk::framebuf::FrameBuf;
use updk::nic::MacAddr;

/// Number of distinct corruption classes the adversary cycles through.
const N_CLASSES: u64 = 11;

/// Wire-adversary knobs.
#[derive(Debug, Clone)]
pub struct WireChaosConfig {
    /// The host the frames claim to be for (L3 destination).
    pub target_ip: Ipv4Addr,
    /// L4 destination port for the TCP/UDP mutations (default 8080).
    pub target_port: u16,
    /// Frames emitted per campaign round (default 4).
    pub frames_per_round: u32,
}

impl Default for WireChaosConfig {
    fn default() -> Self {
        WireChaosConfig {
            target_ip: Ipv4Addr::new(10, 0, 0, 1),
            target_port: 8080,
            frames_per_round: 4,
        }
    }
}

/// Wire-adversary accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireChaosReport {
    /// Frames handed to the transmit path.
    pub frames_emitted: u64,
    /// Bytes of those frames.
    pub bytes_emitted: u64,
    /// Semantically valid ARP poison replies among them.
    pub arp_poison: u64,
    /// Frames the stack refused to queue (oversized fuzz) — still counted
    /// as campaign work, just never on the wire.
    pub rejected_oversize: u64,
}

/// The adversarial app: one seeded RNG, one corruption pipeline.
#[derive(Debug)]
pub struct MalformedFrameApp {
    cfg: WireChaosConfig,
    rng: SimRng,
    src_mac: MacAddr,
    src_ip: Ipv4Addr,
    report: WireChaosReport,
}

impl MalformedFrameApp {
    /// Builds the adversary transmitting as `src_mac`/`src_ip`.
    pub fn new(cfg: WireChaosConfig, seed: u64, src_mac: MacAddr, src_ip: Ipv4Addr) -> Self {
        MalformedFrameApp {
            cfg,
            rng: SimRng::seed_from_u64(seed),
            src_mac,
            src_ip,
            report: WireChaosReport::default(),
        }
    }

    /// Emits one round of mutated frames through `stack`'s transmit path.
    pub fn round(&mut self, stack: &mut FStack, digest: &mut ChaosDigest, out: &mut StepOutcome) {
        for _ in 0..self.cfg.frames_per_round {
            let class = self.rng.below(N_CLASSES);
            let frame = self.craft(class);
            digest.fold_u64(class);
            digest.fold(&frame);
            if stack.inject_raw_tx(&frame) {
                self.report.frames_emitted += 1;
                self.report.bytes_emitted += frame.len() as u64;
                out.ff_calls += 1;
                out.bytes += frame.len() as u64;
            } else {
                self.report.rejected_oversize += 1;
            }
            out.progressed = true;
        }
    }

    /// Accounting so far.
    pub fn report(&self) -> WireChaosReport {
        self.report.clone()
    }

    /// An Ethernet header to the broadcast address (so every stack on the
    /// segment runs its parser over the payload).
    fn eth(&self, ethertype: EtherType) -> EthHdr {
        EthHdr {
            dst: MacAddr::BROADCAST,
            src: self.src_mac,
            ethertype,
        }
    }

    /// A valid IPv4+TCP frame to the target — the starting point the
    /// TCP/IP mutation classes corrupt.
    fn tcp_frame(&mut self) -> Vec<u8> {
        let seg = TcpSegment {
            src_port: 40_000 + (self.rng.below(20_000) as u16),
            dst_port: self.cfg.target_port,
            seq: self.rng.next_u64() as u32,
            ack: 0,
            flags: TcpFlags {
                syn: true,
                ..TcpFlags::default()
            },
            window: 65_535,
            options: TcpOptions::default(),
            payload: FrameBuf::copy_from(&[]),
        };
        let l4 = seg.build(self.src_ip, self.cfg.target_ip);
        let ip = Ipv4Hdr::build(
            self.src_ip,
            self.cfg.target_ip,
            IpProto::Tcp,
            self.rng.next_u64() as u16,
            &l4,
        );
        self.eth(EtherType::Ipv4).build(&ip)
    }

    /// A valid IPv4+UDP frame to the target.
    fn udp_frame(&mut self) -> Vec<u8> {
        let len = self.rng.range_inclusive(8, 64) as usize;
        let payload: Vec<u8> = (0..len).map(|_| self.rng.next_u64() as u8).collect();
        let dg = UdpDatagram {
            src_port: 40_000 + (self.rng.below(20_000) as u16),
            dst_port: self.cfg.target_port,
            payload: FrameBuf::copy_from(&payload),
        };
        let l4 = dg.build(self.src_ip, self.cfg.target_ip);
        let ip = Ipv4Hdr::build(
            self.src_ip,
            self.cfg.target_ip,
            IpProto::Udp,
            self.rng.next_u64() as u16,
            &l4,
        );
        self.eth(EtherType::Ipv4).build(&ip)
    }

    /// Recomputes the IPv4 header checksum in place after a header
    /// mutation, so the lie survives the checksum gate and reaches the
    /// deeper validation it targets.
    fn refresh_ip_checksum(frame: &mut [u8]) {
        let h = &mut frame[ETH_HDR_LEN..ETH_HDR_LEN + IPV4_HDR_LEN];
        h[10] = 0;
        h[11] = 0;
        let csum = fstack::ip::finish_checksum(fstack::ip::sum_words(h, 0));
        h[10..12].copy_from_slice(&csum.to_be_bytes());
    }

    /// One frame of the given corruption class.
    fn craft(&mut self, class: u64) -> Vec<u8> {
        match class {
            // IPv4 header checksum wrong: flip a header byte, keep the
            // stale checksum.
            0 => {
                let mut f = self.tcp_frame();
                f[ETH_HDR_LEN + 8] ^= 0x40; // TTL
                f
            }
            // total_len lies beyond the frame (checksum refreshed so the
            // length check itself must catch it).
            1 => {
                let mut f = self.tcp_frame();
                let lie = (f.len() + self.rng.range_inclusive(1, 1000) as usize) as u16;
                f[ETH_HDR_LEN + 2..ETH_HDR_LEN + 4].copy_from_slice(&lie.to_be_bytes());
                Self::refresh_ip_checksum(&mut f);
                f
            }
            // total_len shorter than the IP header itself.
            2 => {
                let mut f = self.tcp_frame();
                let lie = self.rng.below(IPV4_HDR_LEN as u64) as u16;
                f[ETH_HDR_LEN + 2..ETH_HDR_LEN + 4].copy_from_slice(&lie.to_be_bytes());
                Self::refresh_ip_checksum(&mut f);
                f
            }
            // Bad version / IHL nibble.
            3 => {
                let mut f = self.tcp_frame();
                f[ETH_HDR_LEN] = if self.rng.chance_per_mille(500) {
                    0x65 // version 6, ihl 5
                } else {
                    0x41 // version 4, ihl 1 (header shorter than minimum)
                };
                Self::refresh_ip_checksum(&mut f);
                f
            }
            // TCP data-offset field points past the frame (truncated
            // header claim).
            4 => {
                let mut f = self.tcp_frame();
                f[ETH_HDR_LEN + IPV4_HDR_LEN + 12] = 0xF0; // doff = 15 words
                f
            }
            // TCP checksum corrupted.
            5 => {
                let mut f = self.tcp_frame();
                f[ETH_HDR_LEN + IPV4_HDR_LEN + 16] ^= 0xFF;
                f
            }
            // UDP length field lies beyond the datagram.
            6 => {
                let mut f = self.udp_frame();
                let lie = (f.len() + 100) as u16;
                f[ETH_HDR_LEN + IPV4_HDR_LEN + 4..ETH_HDR_LEN + IPV4_HDR_LEN + 6]
                    .copy_from_slice(&lie.to_be_bytes());
                f
            }
            // UDP checksum corrupted.
            7 => {
                let mut f = self.udp_frame();
                f[ETH_HDR_LEN + IPV4_HDR_LEN + 6] ^= 0xA5;
                f
            }
            // ARP structural garbage: bad htype/hlen/op constants.
            8 => {
                let req = ArpPacket::request(self.src_mac, self.src_ip, self.cfg.target_ip);
                let mut p = req.build();
                match self.rng.below(3) {
                    0 => p[1] = 9, // htype
                    1 => p[4] = 8, // hlen
                    _ => p[7] = 7, // op
                }
                self.eth(EtherType::Arp).build(&p)
            }
            // ARP poison: a fully valid gratuitous is-at claiming the
            // target's IP lives at the adversary's MAC.
            9 => {
                self.report.arp_poison += 1;
                let poison = ArpPacket {
                    op: fstack::arp::ArpOp::Reply,
                    sha: self.src_mac,
                    spa: self.cfg.target_ip,
                    tha: MacAddr::BROADCAST,
                    tpa: self.cfg.target_ip,
                };
                self.eth(EtherType::Arp).build(&poison.build())
            }
            // Unknown EtherType carrying random bytes.
            _ => {
                let len = self.rng.range_inclusive(0, 180) as usize;
                let junk: Vec<u8> = (0..len).map(|_| self.rng.next_u64() as u8).collect();
                self.eth(EtherType::Other(0x88B5)).build(&junk)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstack::StackConfig;
    use simkern::time::SimTime;

    /// Every corruption class, replayed into a victim stack: the victim
    /// must reject-and-count (or, for the poison/junk classes, at least
    /// not panic), and the adversary's own stack must queue the frames.
    #[test]
    fn every_class_is_rejected_not_panicked() {
        let victim_ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut attacker = MalformedFrameApp::new(
            WireChaosConfig {
                target_ip: victim_ip,
                ..WireChaosConfig::default()
            },
            42,
            MacAddr::local(7),
            Ipv4Addr::new(10, 0, 0, 7),
        );
        let mut victim = FStack::new(StackConfig::new("victim", MacAddr::local(1), victim_ip));
        let mut digest = ChaosDigest::new();
        for class in 0..N_CLASSES {
            for _ in 0..32 {
                let frame = attacker.craft(class);
                digest.fold(&frame);
                victim.input_buf(SimTime::ZERO, &FrameBuf::copy_from(&frame));
            }
        }
        let stats = victim.stats();
        assert!(
            stats.parse_drops() > 0,
            "malformed frames must be counted, got {stats:?}"
        );
        // The poison replies parse fine — they are the classes that do
        // NOT show up as parse drops.
        assert!(attacker.report().arp_poison > 0);
    }

    #[test]
    fn rounds_are_deterministic_in_the_seed() {
        let mk = || {
            MalformedFrameApp::new(
                WireChaosConfig::default(),
                3,
                MacAddr::local(2),
                Ipv4Addr::new(10, 0, 0, 5),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let mut stack_a = FStack::new(StackConfig::new(
            "a",
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 5),
        ));
        let mut stack_b = FStack::new(StackConfig::new(
            "b",
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 5),
        ));
        let (mut da, mut db) = (ChaosDigest::new(), ChaosDigest::new());
        let (mut oa, mut ob) = (StepOutcome::default(), StepOutcome::default());
        for _ in 0..16 {
            a.round(&mut stack_a, &mut da, &mut oa);
            b.round(&mut stack_b, &mut db, &mut ob);
        }
        assert_eq!(da.value(), db.value());
        assert_eq!(a.report(), b.report());
    }
}
