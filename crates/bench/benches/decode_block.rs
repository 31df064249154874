//! Block-decode microbenchmarks: the v1 all-vbyte posting layout against
//! the v2 bit-packed layout, at the codec level (one batch of values) and
//! through `BlockCursor` streaming (whole lists, both layouts decoded by
//! the same cursor). Run with one iteration in CI as a smoke check:
//!
//! ```text
//! cargo bench -p poir-bench --bench decode_block -- --test
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use poir_inquery::{codec, BlockCursor, DocId, InvertedRecord, Posting, BLOCK_SIZE};

fn make_record(df: u32) -> InvertedRecord {
    InvertedRecord::from_postings(
        (0..df)
            .map(|d| Posting {
                doc: DocId(d * 3),
                tf: 1 + d % 4,
                positions: (0..(1 + d % 4)).map(|p| p * 7 + d % 50).collect(),
            })
            .collect(),
    )
}

/// One batch of doc-gap-sized values decoded by both codecs. 64 and 128
/// postings are the block sizes that matter; 1024 shows the asymptote.
fn bench_batch_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_batch");
    for count in [64usize, BLOCK_SIZE as usize, 1024] {
        let values: Vec<u32> = (0..count as u32).map(|i| 3 + i * 37 % 4096).collect();

        let mut vbyte = Vec::new();
        for &v in &values {
            codec::encode_vbyte(v, &mut vbyte);
        }
        let width = values.iter().copied().map(codec::bit_width).max().unwrap();
        let mut packed = Vec::new();
        codec::pack_bits(&values, width, &mut packed);

        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(BenchmarkId::new("vbyte", count), &vbyte, |b, bytes| {
            let mut out = Vec::with_capacity(count);
            b.iter(|| {
                out.clear();
                let mut pos = 0usize;
                for _ in 0..count {
                    out.push(codec::decode_vbyte(bytes, &mut pos).unwrap());
                }
                black_box(out.last().copied())
            });
        });
        group.bench_with_input(BenchmarkId::new("bitpacked", count), &packed, |b, bytes| {
            let mut out = Vec::with_capacity(count);
            b.iter(|| {
                codec::unpack_bits(bytes, count, width, &mut out).unwrap();
                black_box(out.last().copied())
            });
        });
    }
    group.finish();
}

/// Whole-list doc/tf streaming through `BlockCursor`, which decodes both
/// layouts: the bit-packed arm is one v2 record, the vbyte arm the same
/// postings as one v1 record per `BLOCK_SIZE` chunk (v1 holds no more; its
/// three header fields per chunk stand in for a directory entry), so the
/// relative numbers are the codec difference alone.
fn bench_cursor_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_block");
    for df in [512u32, 4096, 32_768] {
        let record = make_record(df);
        let v1: Vec<Vec<u8>> = record
            .postings
            .chunks(BLOCK_SIZE as usize)
            .map(|chunk| InvertedRecord::from_postings(chunk.to_vec()).encode())
            .collect();
        let v2 = vec![record.encode()];
        let size = |records: &[Vec<u8>]| records.iter().map(Vec::len).sum::<usize>();
        assert!(size(&v2) < size(&v1), "packed blocks must also be smaller");

        group.throughput(Throughput::Elements(df as u64));
        for (label, records) in [("vbyte", &v1), ("bitpacked", &v2)] {
            group.bench_with_input(BenchmarkId::new(label, df), records, |b, records| {
                b.iter(|| {
                    let mut checksum = 0u64;
                    for bytes in records {
                        let (mut cur, ..) = BlockCursor::open(bytes).unwrap();
                        while let Some((d, tf)) = cur.next_doc_tf(bytes) {
                            checksum += (d.0 + tf) as u64;
                        }
                    }
                    black_box(checksum)
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_batch_decode, bench_cursor_stream
}
criterion_main!(benches);
