//! Micro-benchmarks for the wire formats (hot path of every simulated
//! transmission).

use hydra_bench::microbench::{BatchSize, Criterion, Throughput};
use hydra_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use hydra_wire::aggregate::AggregateBuilder;
use hydra_wire::crc::{crc32, crc32_portable};
use hydra_wire::phy_hdr::RateCode;
use hydra_wire::subframe::{FrameType, SubframeRepr};
use hydra_wire::tcp::{TcpFlags, TcpRepr};
use hydra_wire::{
    build_tcp_packet, is_pure_tcp_ack, parse_aggregate, EncapProto, EncapRepr, Ipv4Addr, MacAddr,
};

fn repr() -> SubframeRepr {
    SubframeRepr {
        frame_type: FrameType::Data,
        retry: false,
        no_ack: false,
        duration_us: 500,
        addr1: MacAddr::from_node_id(1),
        addr2: MacAddr::from_node_id(0),
        addr3: MacAddr::from_node_id(0),
    }
}

/// The dispatched `crc32` (carry-less multiply where the CPU has it)
/// beside the portable slice-by-16 kernel, at the minimum subframe, a
/// full data subframe, and a large aggregate.
fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for size in [160usize, 1464, 5120] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| b.iter(|| crc32(black_box(&data))));
        g.bench_function(format!("{size}B_portable"), |b| b.iter(|| crc32_portable(black_box(&data))));
    }
    g.finish();
}

fn bench_subframe(c: &mut Criterion) {
    let payload = vec![0x42u8; 1434];
    c.bench_function("subframe_emit_1464B", |b| b.iter(|| repr().to_bytes(black_box(&payload))));
}

fn bench_aggregate(c: &mut Criterion) {
    let ack = vec![0u8; 77];
    let data = vec![0u8; 1434];
    c.bench_function("aggregate_build_3acks_3data", |b| {
        b.iter(|| {
            let mut builder = AggregateBuilder::new();
            for _ in 0..3 {
                builder.push_broadcast(&repr(), black_box(&ack));
            }
            for _ in 0..3 {
                builder.push_unicast(&repr(), black_box(&data));
            }
            builder.finish(RateCode(0), RateCode(3))
        })
    });

    let mut builder = AggregateBuilder::new();
    for _ in 0..3 {
        builder.push_broadcast(&repr(), &ack);
    }
    for _ in 0..3 {
        builder.push_unicast(&repr(), &data);
    }
    let (hdr, psdu, _) = builder.finish(RateCode(0), RateCode(3));
    c.bench_function("aggregate_parse_3acks_3data", |b| {
        b.iter(|| parse_aggregate(black_box(&hdr), black_box(&psdu)))
    });
}

fn bench_classifier(c: &mut Criterion) {
    let encap = EncapRepr { proto: EncapProto::Ipv4, src_node: 0, dst_node: 2, packet_id: 9 };
    let t = TcpRepr { src_port: 1, dst_port: 2, seq: 7, ack: 8, flags: TcpFlags::ACK, window: 1000 };
    let pure = build_tcp_packet(encap, Ipv4Addr::from_node_id(2), Ipv4Addr::from_node_id(0), 64, &t, &[]);
    let data =
        build_tcp_packet(encap, Ipv4Addr::from_node_id(0), Ipv4Addr::from_node_id(2), 64, &t, &[0u8; 1357]);
    c.bench_function("classify_pure_ack", |b| b.iter(|| is_pure_tcp_ack(black_box(&pure))));
    c.bench_function("classify_data_segment", |b| b.iter(|| is_pure_tcp_ack(black_box(&data))));
}

fn bench_tcp_emit(c: &mut Criterion) {
    let encap = EncapRepr { proto: EncapProto::Ipv4, src_node: 0, dst_node: 2, packet_id: 9 };
    let t = TcpRepr { src_port: 1, dst_port: 2, seq: 7, ack: 8, flags: TcpFlags::ACK, window: 1000 };
    let payload = vec![0u8; 1357];
    c.bench_function("tcp_packet_emit_mss", |b| {
        b.iter_batched(
            || payload.clone(),
            |p| build_tcp_packet(encap, Ipv4Addr::from_node_id(0), Ipv4Addr::from_node_id(2), 64, &t, &p),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_crc, bench_subframe, bench_aggregate, bench_classifier, bench_tcp_emit);
criterion_main!(benches);
