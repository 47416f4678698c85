//! Property tests of the TCP/IP library: codec round trips, checksum laws,
//! buffer invariants, and — most importantly — TCP's reliable-delivery
//! invariant under adversarial segment arrival orders.

use fstack::buffer::{RecvBuffer, SendBuffer};
use fstack::ether::{EthHdr, EtherType};
use fstack::icmp::IcmpEcho;
use fstack::ip::{checksum, sum_words, IpProto, Ipv4Hdr};
use fstack::tcp::seq::{seq_diff, seq_ge, seq_le, seq_lt};
use fstack::tcp::tcb::Tcb;
use fstack::tcp::{SegPayload, TcpFlags, TcpOptions, TcpSegment};
use fstack::udp::UdpDatagram;
use proptest::prelude::*;
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use updk::framebuf::FrameBuf;
use updk::nic::MacAddr;

fn ip(a: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, a)
}

/// Reference copy of a send-buffer range (the production path copies into
/// a frame buffer via `range_into`).
fn range_vec(buf: &SendBuffer, seq: u32, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let n = buf.range_into(seq, &mut v);
    v.truncate(n);
    v
}

/// Every segment `tcb` owes the wire at `now`, with data payloads copied
/// out of the send buffer into owned segments.
fn output(tcb: &mut Tcb, now: SimTime) -> Vec<TcpSegment> {
    let mut out = Vec::new();
    tcb.poll_output_into(now, &mut |seg, payload| {
        let mut seg = seg.clone();
        if let SegPayload::Range(buf, seq, len) = payload {
            seg.payload = FrameBuf::copy_from(&range_vec(buf, seq, len));
        }
        out.push(seg);
    });
    out
}

proptest! {
    /// Internet checksum: appending the checksum makes the sum verify to 0,
    /// for any payload.
    #[test]
    fn checksum_self_verifies(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let c = checksum(&data);
        let mut with = data.clone();
        with.extend_from_slice(&c.to_be_bytes());
        // Odd-length payloads pad differently; verify on even lengths.
        if data.len() % 2 == 0 {
            prop_assert_eq!(checksum(&with), 0);
        }
        // Incremental equivalence: one pass equals two chunked passes.
        let split = data.len() / 2 - data.len() / 2 % 2;
        let (lo, hi) = data.split_at(split);
        let acc = sum_words(hi, sum_words(lo, 0));
        prop_assert_eq!(fstack::ip::finish_checksum(acc), c);
    }

    /// Ethernet + IPv4 + TCP round trip for arbitrary field values.
    #[test]
    fn tcp_over_ip_over_eth_round_trip(
        src_port in 1u16..u16::MAX,
        dst_port in 1u16..u16::MAX,
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
        syn in any::<bool>(),
        fin in any::<bool>(),
    ) {
        let seg = TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags { syn, fin, ack: true, rst: false, psh: false },
            window,
            options: TcpOptions { mss: Some(1460), ts: Some((seq, ack)), ..Default::default() },
            payload: payload.into(),
        };
        let l4 = seg.build(ip(1), ip(2));
        let pkt = Ipv4Hdr::build(ip(1), ip(2), IpProto::Tcp, 7, &l4);
        let frame = EthHdr {
            dst: MacAddr::local(2),
            src: MacAddr::local(1),
            ethertype: EtherType::Ipv4,
        }
        .build(&pkt);
        let (eh, ip_bytes) = EthHdr::parse(&frame).expect("eth");
        prop_assert_eq!(eh.ethertype, EtherType::Ipv4);
        let (ih, l4_bytes) = Ipv4Hdr::parse(ip_bytes).expect("ip");
        prop_assert_eq!(ih.proto, IpProto::Tcp);
        let parsed = TcpSegment::parse(ih.src, ih.dst, l4_bytes).expect("tcp");
        prop_assert_eq!(parsed, seg);
    }

    /// Single-bit corruption anywhere in the L4 bytes is detected.
    #[test]
    fn tcp_checksum_catches_bit_flips(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip_byte in 0usize..100,
        flip_bit in 0u8..8,
    ) {
        let seg = TcpSegment {
            src_port: 1, dst_port: 2, seq: 3, ack: 4,
            flags: TcpFlags::only_ack(),
            window: 100,
            options: TcpOptions::default(),
            payload: payload.into(),
        };
        let mut bytes = seg.build(ip(1), ip(2));
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        prop_assert!(TcpSegment::parse(ip(1), ip(2), &bytes).is_none());
    }

    /// UDP and ICMP round trips.
    #[test]
    fn udp_icmp_round_trips(
        sp in 1u16..u16::MAX,
        dp in 1u16..u16::MAX,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        ident in any::<u16>(),
        sq in any::<u16>(),
    ) {
        let d = UdpDatagram { src_port: sp, dst_port: dp, payload: payload.clone().into() };
        prop_assert_eq!(UdpDatagram::parse(ip(1), ip(2), &d.build(ip(1), ip(2))).expect("udp"), d);
        let e = IcmpEcho::request(ident, sq, &payload);
        prop_assert_eq!(IcmpEcho::parse(&e.build()).expect("icmp"), e);
    }

    /// Sequence arithmetic is a strict total order on any window < 2^31.
    #[test]
    fn seq_order_laws(base in any::<u32>(), a in 0u32..1 << 30, b in 0u32..1 << 30) {
        let x = base.wrapping_add(a);
        let y = base.wrapping_add(b);
        prop_assert_eq!(seq_lt(x, y), a < b);
        prop_assert_eq!(seq_le(x, y), a <= b);
        prop_assert_eq!(seq_ge(x, y), a >= b);
        prop_assert_eq!(seq_diff(y, x), b.wrapping_sub(a));
    }

    /// SendBuffer: what goes in comes out of `range`, acked bytes vanish.
    #[test]
    fn send_buffer_invariants(
        base in any::<u32>(),
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..100), 1..20),
        ack_fraction in 0u32..100,
    ) {
        let mut buf = SendBuffer::new(base, 4096);
        let mut model: Vec<u8> = Vec::new();
        for chunk in &chunks {
            let n = buf.push(chunk);
            model.extend_from_slice(&chunk[..n]);
        }
        prop_assert_eq!(buf.len(), model.len());
        prop_assert_eq!(range_vec(&buf, base, model.len()), model.clone());
        // Ack a prefix.
        let k = (model.len() as u32 * ack_fraction / 100) as usize;
        buf.ack_to(base.wrapping_add(k as u32));
        prop_assert_eq!(buf.len(), model.len() - k);
        prop_assert_eq!(
            range_vec(&buf, base.wrapping_add(k as u32), model.len()),
            model[k..].to_vec()
        );
    }

    /// RecvBuffer reassembles any permutation of MSS-ish segments into the
    /// original byte stream — TCP's reliability invariant at the buffer
    /// level.
    #[test]
    fn recv_buffer_reassembles_any_order(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        seed in any::<u64>(),
        base in any::<u32>(),
    ) {
        // Split into segments of varying sizes.
        let mut segs: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut off = 0usize;
        let mut sz = 37usize;
        while off < data.len() {
            let n = sz.min(data.len() - off);
            segs.push((base.wrapping_add(off as u32), data[off..off + n].to_vec()));
            off += n;
            sz = (sz * 7 + 11) % 97 + 1;
        }
        // Shuffle deterministically.
        let mut rng = simkern::rng::SimRng::seed_from_u64(seed);
        for i in (1..segs.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            segs.swap(i, j);
        }
        let mut rb = RecvBuffer::new(base, 4096);
        for (s, d) in &segs {
            let d = updk::framebuf::FrameBuf::copy_from(d);
            rb.on_segment(*s, &d);
            // Duplicates must be harmless too.
            rb.on_segment(*s, &d);
        }
        prop_assert_eq!(rb.read(usize::MAX), data);
    }
}

/// TCP end-to-end reliability under random loss: every written byte is
/// delivered exactly once, in order, despite dropping a configurable
/// fraction of segments in both directions.
#[test]
fn tcp_survives_random_loss() {
    let a = (ip(1), 40_000u16);
    let b = (ip(2), 5_201u16);
    for loss_per_mille in [0u64, 30, 100, 250] {
        let mut rng = simkern::rng::SimRng::seed_from_u64(1000 + loss_per_mille);
        let mut now = SimTime::from_millis(1);
        let mut client = Tcb::connect(a, b, 77, 1448);
        let syn = loop {
            let segs = output(&mut client, now);
            if let Some(s) = segs.into_iter().next() {
                break s;
            }
            now += SimDuration::from_millis(1);
        };
        let mut server = Tcb::accept_from(b, a, &syn, 99, 1448);

        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 255) as u8).collect();
        let mut sent = 0usize;
        let mut received = Vec::new();
        let mut rounds = 0;
        while received.len() < data.len() && rounds < 200_000 {
            rounds += 1;
            if sent < data.len() {
                sent += client.write(&data[sent..]);
            }
            for seg in output(&mut client, now) {
                if !rng.chance_per_mille(loss_per_mille) {
                    server.on_segment(now, &seg);
                }
            }
            for seg in output(&mut server, now) {
                if !rng.chance_per_mille(loss_per_mille) {
                    client.on_segment(now, &seg);
                }
            }
            received.extend(server.read(usize::MAX));
            now += SimDuration::from_micros(200);
        }
        assert_eq!(
            received.len(),
            data.len(),
            "loss {loss_per_mille}‰: all bytes delivered"
        );
        assert_eq!(
            received, data,
            "loss {loss_per_mille}‰: in order, uncorrupted"
        );
        if loss_per_mille > 0 {
            assert!(
                client.stats().retransmits > 0,
                "loss {loss_per_mille}‰ must cause retransmissions"
            );
        }
    }
}

/// Drives one close-path interleaving: both sides write once, then close at
/// their assigned rounds, while up to six early segments are dropped. The
/// connection must terminate — every written byte delivered, every TCB in
/// `Closed` once the 2 MSL / orphan timers run out — for *any* ordering of
/// the two closes (simultaneous close through CLOSING included) and any
/// placement of the losses (FIN retransmission from LAST_ACK included).
fn drive_close_interleaving(
    a_close_at: usize,
    b_close_at: usize,
    a_bytes: usize,
    b_bytes: usize,
    drop_mask: u64,
) -> Result<(), proptest::runner::TestCaseError> {
    use fstack::tcp::tcb::TcpState;

    let a = (ip(1), 40_000u16);
    let b = (ip(2), 5_201u16);
    let mut now = SimTime::from_millis(1);
    let mut client = Tcb::connect(a, b, 77, 1448);
    let syn = output(&mut client, now).remove(0);
    let mut server = Tcb::accept_from(b, a, &syn, 99, 1448);

    let a_data = vec![0xA5u8; a_bytes];
    let b_data = vec![0x5Au8; b_bytes];
    // At most six droppable segments: the retransmission give-up threshold
    // is eight consecutive timeouts, so recovery is always possible.
    let mut drops_left = drop_mask.count_ones() % 7;
    let mut exchange = 0u32;
    let drop = |seg_idx: u32, drops_left: &mut u32| {
        let bit = drop_mask >> (seg_idx % 64) & 1 == 1;
        if bit && *drops_left > 0 {
            *drops_left -= 1;
            true
        } else {
            false
        }
    };

    let mut a_sent = 0usize;
    let mut b_sent = 0usize;
    let mut a_closed = false;
    let mut b_closed = false;
    let mut a_received = Vec::new();
    let mut b_received = Vec::new();
    let terminal = |t: &Tcb| matches!(t.state(), TcpState::Closed | TcpState::TimeWait);
    for round in 0..30_000usize {
        // Writes only land once the handshake is far enough along; bytes
        // still unwritten when the side closes are simply never sent.
        if !a_closed && a_sent < a_bytes {
            a_sent += client.write(&a_data[a_sent..]);
        }
        if !b_closed && b_sent < b_bytes {
            b_sent += server.write(&b_data[b_sent..]);
        }
        if round == a_close_at && !a_closed {
            client.close();
            a_closed = true;
        }
        if round == b_close_at && !b_closed {
            server.close();
            b_closed = true;
        }
        for seg in output(&mut client, now) {
            exchange += 1;
            if !drop(exchange, &mut drops_left) {
                server.on_segment(now, &seg);
            }
        }
        for seg in output(&mut server, now) {
            exchange += 1;
            if !drop(exchange, &mut drops_left) {
                client.on_segment(now, &seg);
            }
        }
        a_received.extend(client.read(usize::MAX));
        b_received.extend(server.read(usize::MAX));
        now += SimDuration::from_micros(200);
        if a_closed && b_closed && terminal(&client) && terminal(&server) {
            break;
        }
    }
    prop_assert!(terminal(&client), "client stuck in {:?}", client.state());
    prop_assert!(terminal(&server), "server stuck in {:?}", server.state());
    prop_assert_eq!(b_received, a_data[..a_sent].to_vec());
    prop_assert_eq!(a_received, b_data[..b_sent].to_vec());

    // Let the 2 MSL (and, defensively, the FIN_WAIT_2 orphan) timers run
    // out: every TCB must reach its grave, no zombie states.
    for _ in 0..40 {
        now += SimDuration::from_millis(10);
        output(&mut client, now);
        output(&mut server, now);
    }
    prop_assert_eq!(client.state(), TcpState::Closed);
    prop_assert_eq!(server.state(), TcpState::Closed);
    Ok(())
}

proptest! {
    /// Close-path state-machine exploration: any interleaving of the two
    /// endpoints' closes — before, during, or long after the data exchange,
    /// including the simultaneous-close CLOSING path — with adversarial
    /// early losses, terminates cleanly.
    #[test]
    fn close_paths_always_terminate(
        a_close_at in 0usize..60,
        b_close_at in 0usize..60,
        a_bytes in 0usize..3000,
        b_bytes in 0usize..3000,
        drop_mask in proptest::arbitrary::any::<u64>(),
    ) {
        drive_close_interleaving(a_close_at, b_close_at, a_bytes, b_bytes, drop_mask)?;
    }
}
