//! Criterion microbenchmarks of the system's hot components: compression,
//! record updates, the hash dictionary, record decoding, the segment
//! buffer, and single record lookups through each storage backend.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use poir_btree::BTreeConfig;
use poir_core::{BTreeInvertedFile, MnemeInvertedFile, MnemeOptions};
use poir_inquery::{codec, Dictionary, DocId, InvertedFileStore, InvertedRecord, Posting, TermId};
use poir_mneme::{Buffer, LruBuffer, SegmentAddr, SegmentImage};
use poir_storage::{CostModel, Device, DeviceConfig};

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

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for df in [8u32, 512, 16_384] {
        let record = make_record(df);
        let encoded = record.encode();
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", df), &record, |b, r| {
            b.iter(|| black_box(r.encode()));
        });
        group.bench_with_input(BenchmarkId::new("decode", df), &encoded, |b, e| {
            b.iter(|| black_box(InvertedRecord::decode(e).unwrap()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("vbyte");
    let values: Vec<u32> = (0..4096).map(|i| i * 37 % 100_000).collect();
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("encode_stream", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(8192);
            for &v in &values {
                codec::encode_vbyte(v, &mut out);
            }
            black_box(out)
        });
    });
    group.finish();
}

/// One document's update to a long list (~20k postings, 157 blocks): the
/// splice the engine runs against the decode-modify-encode it replaced.
fn bench_record_update(c: &mut Criterion) {
    let record = make_record(20_000);
    let bytes = record.encode();
    let next = DocId(20_000 * 3);
    let positions = [4u32, 9, 30];
    // The update workload removes recent documents: one in the last block.
    let victim = record.postings[19_990].doc;
    let mut out = Vec::with_capacity(bytes.len() + 64);
    let mut group = c.benchmark_group("record_update");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("append_splice", |b| {
        b.iter(|| {
            poir_inquery::splice_append(&bytes, next, &positions, &mut out).unwrap();
            black_box(out.len())
        });
    });
    group.bench_function("append_recode", |b| {
        b.iter(|| {
            let mut r = InvertedRecord::decode(&bytes).unwrap();
            r.cf += positions.len() as u64;
            r.max_tf = r.max_tf.max(positions.len() as u32);
            r.postings.push(Posting { doc: next, tf: 3, positions: positions.to_vec() });
            black_box(r.encode())
        });
    });
    group.bench_function("remove_splice", |b| {
        b.iter(|| black_box(poir_inquery::splice_remove(&bytes, victim, &mut out).unwrap()));
    });
    group.bench_function("remove_recode", |b| {
        b.iter(|| {
            let mut r = InvertedRecord::decode(&bytes).unwrap();
            let i = r.postings.binary_search_by_key(&victim, |p| p.doc).unwrap();
            let removed = r.postings.remove(i);
            r.cf = r.cf.saturating_sub(removed.tf as u64);
            r.max_tf = r.postings.iter().map(|p| p.tf).max().unwrap_or(0);
            black_box(r.encode())
        });
    });
    group.finish();
}

fn bench_dictionary(c: &mut Criterion) {
    let mut dict = Dictionary::new();
    for i in 0..100_000 {
        dict.intern(&format!("term-number-{i}"));
    }
    let mut group = c.benchmark_group("dictionary");
    group.bench_function("lookup_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % 100_000;
            black_box(dict.lookup(&format!("term-number-{i}")))
        });
    });
    group.bench_function("lookup_miss", |b| {
        b.iter(|| black_box(dict.lookup("definitely-not-present")));
    });
    group.finish();
}

fn bench_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_buffer");
    group.bench_function("insert_evict_cycle", |b| {
        let mut buffer = LruBuffer::new(64 * 1024);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let addr = SegmentAddr { offset: (i % 32) * 8192, len: 8192 };
            if buffer.lookup(addr).is_none() {
                let evicted = buffer.insert(addr, SegmentImage::from_disk(vec![0u8; 8192]));
                black_box(evicted);
            }
        });
    });
    group.finish();
}

fn backend_fixtures() -> (Dictionary, Vec<(TermId, Vec<u8>)>) {
    let mut dict = Dictionary::new();
    let mut records = Vec::new();
    for i in 0..20_000u32 {
        let id = dict.intern(&format!("t{i}"));
        let df = match i % 100 {
            0 => 2000,
            1..=9 => 200,
            10..=49 => 10,
            _ => 1,
        };
        records.push((id, make_record(df).encode()));
    }
    (dict, records)
}

fn bench_backends(c: &mut Criterion) {
    let device = || {
        Device::new(DeviceConfig {
            block_size: 8192,
            os_cache_blocks: 512,
            cost_model: CostModel::free(),
        })
    };
    let (mut dict_b, records) = backend_fixtures();
    let dev_b = device();
    let mut btree = BTreeInvertedFile::build(
        dev_b.create_file(),
        BTreeConfig::default(),
        &records,
        &mut dict_b,
    )
    .unwrap();
    let mut dict_m = dict_b.clone();
    let dev_m = device();
    let mut mneme = MnemeInvertedFile::build(
        dev_m.create_file(),
        MnemeOptions::default(),
        &records,
        &mut dict_m,
    )
    .unwrap();
    mneme
        .attach_buffers(poir_core::paper_heuristic(
            records.iter().map(|(_, r)| r.len()).max().unwrap(),
            8192,
        ))
        .unwrap();

    let mut group = c.benchmark_group("record_lookup");
    group.bench_function("btree", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 4999) % 20_000;
            black_box(btree.fetch(dict_b.entry(TermId(i)).store_ref).unwrap())
        });
    });
    group.bench_function("mneme_cached", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 4999) % 20_000;
            black_box(mneme.fetch(dict_m.entry(TermId(i)).store_ref).unwrap())
        });
    });
    group.finish();

    // One fetch per reference vs a single coalescing batch over the same
    // references (206 spread across the whole file).
    let refs: Vec<u64> =
        (0..20_000u32).step_by(97).map(|i| dict_m.entry(TermId(i)).store_ref).collect();
    let mut group = c.benchmark_group("record_fetch");
    group.throughput(Throughput::Elements(refs.len() as u64));
    group.bench_function("serial_loop", |b| {
        b.iter(|| {
            for &r in &refs {
                black_box(mneme.fetch(r).unwrap());
            }
        });
    });
    group.bench_function("fetch_batch", |b| {
        b.iter(|| black_box(mneme.fetch_batch(&refs)));
    });
    group.finish();
}

fn bench_query_eval(c: &mut Criterion) {
    use poir_inquery::{BeliefParams, Evaluator, IndexBuilder, MemoryStore, StopWords};
    let stop = StopWords::default();
    let mut builder = IndexBuilder::new(stop.clone());
    for d in 0..2_000usize {
        let mut text = String::with_capacity(600);
        for t in 0..80 {
            text.push_str(&format!("w{} ", (d * 13 + t * 7) % 500));
        }
        builder.add_document(&format!("D{d}"), &text);
    }
    let idx = builder.finish();
    let mut store = MemoryStore::new();
    let mut dict = idx.dictionary.clone();
    for (term, bytes) in &idx.records {
        let r = store.add(bytes.clone());
        dict.entry_mut(*term).store_ref = r;
    }
    let docs = idx.documents.clone();

    let mut group = c.benchmark_group("query_eval");
    for (label, query) in [
        ("sum3", "w1 w2 w3"),
        ("sum10", "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10"),
        ("and3", "#and(w1 w2 w3)"),
        ("structured", "#wsum(2 w1 1 #and(w2 #or(w3 w4)) 3 w5)"),
        ("phrase", "#phrase(w1 w8)"),
    ] {
        let parsed = poir_inquery::parse_query(query, &stop).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut ev =
                    Evaluator::new(&mut store, &dict, &docs, &stop, BeliefParams::default());
                black_box(ev.rank(&parsed, 100).unwrap())
            });
        });
    }
    // Term-at-a-time vs document-at-a-time on the same bag query.
    let bag: Vec<(f64, String)> = (0..10).map(|i| (1.0, format!("w{i}"))).collect();
    group.bench_function("daat10", |b| {
        b.iter(|| {
            black_box(
                poir_inquery::query::daat::rank_daat(
                    &mut store,
                    &dict,
                    &docs,
                    BeliefParams::default(),
                    &bag,
                    100,
                )
                .unwrap(),
            )
        });
    });
    // The max-score pruned kernel the service runs, on the same 10-term
    // bag and on a 37-term one (the longest `serve_long` query).
    for terms in [10, 37] {
        let bag: Vec<(f64, String)> = (0..terms).map(|i| (1.0, format!("w{i}"))).collect();
        group.bench_function(format!("daat_pruned{terms}"), |b| {
            b.iter(|| {
                black_box(
                    poir_inquery::query::daat::rank_daat_pruned(
                        &mut store,
                        &dict,
                        &docs,
                        BeliefParams::default(),
                        &bag,
                        100,
                    )
                    .unwrap(),
                )
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_codec, bench_record_update, bench_dictionary, bench_buffer, bench_backends, bench_query_eval
}
criterion_main!(benches);
