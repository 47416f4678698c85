//! Microbenchmarks of the network stack: protocol codecs, the TCP engine,
//! the trampoline and the cross-compartment call — the building blocks
//! whose modeled costs the figures compose.

use chos::clock::ClockId;
use chos::syscall::Syscall;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fstack::ip::IpProto;
use fstack::ip::{checksum, Ipv4Hdr};
use fstack::tcp::tcb::Tcb;
use fstack::tcp::{SegPayload, TcpFlags, TcpOptions, TcpSegment};
use intravisor::{CvmConfig, Intravisor};
use simkern::{CostModel, SimDuration, SimTime};
use std::net::Ipv4Addr;

const A: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40000);
const B: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 5201);

/// Every segment `tcb` owes the wire at `now`, with data payloads copied
/// out of the send buffer into owned segments.
fn output(tcb: &mut Tcb, now: SimTime) -> Vec<TcpSegment> {
    let mut out = Vec::new();
    tcb.poll_output_into(now, &mut |seg, payload| {
        let mut seg = seg.clone();
        if let SegPayload::Range(buf, seq, len) = payload {
            let mut v = vec![0u8; len];
            buf.range_into(seq, &mut v);
            seg.payload = v.into();
        }
        out.push(seg);
    });
    out
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack_codecs");
    let payload = vec![0x5Au8; 1448];
    g.throughput(criterion::Throughput::Bytes(1448));
    g.bench_function("internet_checksum_1448", |b| {
        b.iter(|| black_box(checksum(&payload)))
    });
    let seg = TcpSegment {
        src_port: A.1,
        dst_port: B.1,
        seq: 1,
        ack: 2,
        flags: TcpFlags::only_ack(),
        window: 65535,
        options: TcpOptions {
            mss: None,
            ts: Some((1, 2)),
            ..Default::default()
        },
        payload: payload.clone().into(),
    };
    g.bench_function("tcp_segment_build", |b| {
        b.iter(|| black_box(seg.build(A.0, B.0)))
    });
    let bytes = seg.build(A.0, B.0);
    g.bench_function("tcp_segment_parse", |b| {
        b.iter(|| black_box(TcpSegment::parse(A.0, B.0, &bytes).unwrap()))
    });
    let ip = Ipv4Hdr::build(A.0, B.0, IpProto::Tcp, 1, &bytes);
    g.bench_function("ipv4_parse", |b| {
        b.iter(|| black_box(Ipv4Hdr::parse(&ip).unwrap()))
    });
    g.finish();
}

fn bench_tcp_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcp_engine");
    // A pre-established pair: measure the steady-state data pump.
    fn pair() -> (SimTime, Tcb, Tcb) {
        let mut now = SimTime::from_millis(1);
        let mut client = Tcb::connect(A, B, 1000, 1448);
        let syn = output(&mut client, now).remove(0);
        let mut server = Tcb::accept_from(B, A, &syn, 9000, 1448);
        for _ in 0..8 {
            for s in output(&mut server, now) {
                client.on_segment(now, &s);
            }
            for s in output(&mut client, now) {
                server.on_segment(now, &s);
            }
            now += SimDuration::from_micros(50);
        }
        (now, client, server)
    }
    g.bench_function("bulk_pump_64k", |b| {
        b.iter_with_setup(pair, |(mut now, mut cl, mut sv)| {
            let data = vec![7u8; 64 * 1024];
            let mut sent = 0;
            let mut recvd = 0;
            while recvd < data.len() {
                if sent < data.len() {
                    sent += cl.write(&data[sent..]);
                }
                for s in output(&mut cl, now) {
                    sv.on_segment(now, &s);
                }
                for s in output(&mut sv, now) {
                    cl.on_segment(now, &s);
                }
                recvd += sv.read(usize::MAX).len();
                now += SimDuration::from_micros(20);
            }
            black_box(recvd)
        })
    });
    g.finish();
}

fn bench_compartment_crossings(c: &mut Criterion) {
    let mut g = c.benchmark_group("compartment_crossings");
    let mut iv = Intravisor::new(1 << 20, CostModel::morello());
    let app = iv
        .create_cvm(CvmConfig::new("app").mem_size(64 * 1024))
        .unwrap();
    let svc_cvm = iv
        .create_cvm(CvmConfig::new("svc").mem_size(64 * 1024))
        .unwrap();
    let svc = iv.register_service(svc_cvm, "api").unwrap();

    g.bench_function("trampoline_clock_gettime", |b| {
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_micros(1);
            black_box(iv.trampoline_syscall(app, t, Syscall::ClockGettime(ClockId::MonotonicRaw)))
        })
    });
    g.bench_function("xcall_sealed_pair", |b| {
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_micros(1);
            black_box(iv.xcall(app, svc, t).unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codecs,
    bench_tcp_engine,
    bench_compartment_crossings
);
criterion_main!(benches);
