//! Ablation studies of the design choices the paper calls out.
//!
//! Run with `cargo bench -p poir-bench --bench ablations`. Each section
//! varies exactly one decision from Section 3.3 / Section 6 and reports the
//! same counters the paper uses:
//!
//! 1. medium-pool physical segment size (8 KB "based on the disk I/O block
//!    size"),
//! 2. one large-object buffer vs. a partitioned pair ("the best hit rates
//!    were achieved with a single buffer of the same total size"),
//! 3. the query-tree reservation optimization,
//! 4. the dedicated 16-byte-slot small pool vs. packing small lists into
//!    the medium pool,
//! 5. redo-log recovery overhead on the read-dominated workload ("the
//!    addition of these services would not introduce excessive overhead"),
//! 6. the ~60% record compression claim.

use poir_bench::{build_index, paper_device};
use poir_collections::{generate_queries, SyntheticCollection};
use poir_core::{BackendKind, Engine, MnemeInvertedFile, MnemeOptions};
use poir_inquery::{InvertedFileStore, InvertedRecord, StopWords};
use poir_mneme::{
    Buffer, BufferPolicy, LruBuffer, MnemeFile, PoolConfig, PoolId, PoolKindConfig, SegmentAddr,
    SegmentImage,
};

fn scale() -> f64 {
    std::env::var("POIR_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(0.15)
}

/// The fetch trace of a query set: each entry is one term lookup (by term
/// id; replays map ids to the store references of the build under test).
fn fetch_trace(
    index: &poir_inquery::Index,
    queries: &[poir_collections::GeneratedQuery],
) -> Vec<Vec<poir_inquery::TermId>> {
    let stop = StopWords::default();
    queries
        .iter()
        .filter_map(|q| poir_inquery::parse_query(&q.text, &stop).ok())
        .map(|parsed| {
            parsed.leaf_terms().into_iter().filter_map(|t| index.dictionary.lookup(t)).collect()
        })
        .collect()
}

fn ablation_segment_size() {
    println!("## Ablation 1: medium-pool physical segment size (Legal QS1 fetch trace)");
    println!("{:>10} {:>10} {:>8} {:>12} {:>14}", "Segment", "I", "A", "B (KB)", "sys+I/O (s)");
    let paper = poir_collections::legal().scale(scale());
    let collection = SyntheticCollection::new(paper.spec.clone());
    let (index, _) = build_index(&collection);
    let queries = generate_queries(&collection, &paper.query_sets[0]);
    let trace = fetch_trace(&index, &queries);
    for segment in [2048usize, 4096, 8192, 16384, 32768] {
        let device = paper_device();
        let mut dict = index.dictionary.clone();
        let mut store = MnemeInvertedFile::build(
            device.create_file(),
            MnemeOptions { medium_segment: segment, num_buckets: 0 },
            &index.records,
            &mut dict,
        )
        .expect("build");
        store
            .attach_buffers(poir_core::paper_heuristic(store.largest_record(), segment))
            .expect("buffers");
        device.chill();
        let before = device.stats().snapshot();
        let mut lookups = 0u64;
        for query in &trace {
            for &id in query {
                store.fetch(dict.entry(id).store_ref).expect("fetch");
                lookups += 1;
            }
        }
        let delta = device.stats().snapshot().since(&before);
        println!(
            "{:>9}B {:>10} {:>8.2} {:>12} {:>14.2}",
            segment,
            delta.io_inputs,
            delta.file_accesses as f64 / lookups as f64,
            delta.kbytes_read(),
            device.cost_model().charge(&delta).as_secs_f64()
        );
    }
    println!();
}

fn ablation_split_large_buffer() {
    println!("## Ablation 2: single vs. partitioned large-object buffer (TIPSTER QS1 trace)");
    let paper = poir_collections::tipster().scale(scale());
    let collection = SyntheticCollection::new(paper.spec.clone());
    let (index, _) = build_index(&collection);
    let queries = generate_queries(&collection, &paper.query_sets[0]);
    // Build the large-object access trace: (synthetic addr, object bytes).
    let stop = StopWords::default();
    let mut trace: Vec<(u64, usize)> = Vec::new();
    for q in &queries {
        let Ok(parsed) = poir_inquery::parse_query(&q.text, &stop) else { continue };
        for t in parsed.leaf_terms() {
            if let Some(id) = index.dictionary.lookup(t) {
                let len = index.records[id.0 as usize].1.len();
                if len > poir_core::LARGE_MIN {
                    trace.push((id.0 as u64, len));
                }
            }
        }
    }
    let largest = trace.iter().map(|&(_, l)| l).max().unwrap_or(1);
    let total = 3 * largest;
    // Split threshold: the median large-object size.
    let mut sizes: Vec<usize> = trace.iter().map(|&(_, l)| l).collect();
    sizes.sort_unstable();
    let threshold = sizes.get(sizes.len() / 2).copied().unwrap_or(largest);
    let replay = |buffers: &mut [(usize, Box<dyn Buffer>)]| -> (u64, u64) {
        let mut refs = 0u64;
        let mut hits = 0u64;
        for &(key, len) in &trace {
            let class = usize::from(len > threshold).min(buffers.len() - 1);
            let buffer = &mut buffers[class].1;
            let addr = SegmentAddr { offset: key * (1 << 24), len: len as u32 };
            refs += 1;
            if buffer.lookup(addr).is_some() {
                hits += 1;
            } else {
                buffer.insert(addr, SegmentImage::from_disk(vec![0u8; len]));
            }
        }
        (refs, hits)
    };
    let mut single: Vec<(usize, Box<dyn Buffer>)> = vec![(0, Box::new(LruBuffer::new(total)))];
    let (refs, hits_single) = replay(&mut single);
    let mut split: Vec<(usize, Box<dyn Buffer>)> =
        vec![(0, Box::new(LruBuffer::new(total / 2))), (1, Box::new(LruBuffer::new(total / 2)))];
    let (_, hits_split) = replay(&mut split);
    println!("{:>24} {:>8} {:>8} {:>8}", "Configuration", "Refs", "Hits", "Rate");
    println!(
        "{:>24} {:>8} {:>8} {:>8.3}",
        "single buffer",
        refs,
        hits_single,
        hits_single as f64 / refs.max(1) as f64
    );
    println!(
        "{:>24} {:>8} {:>8} {:>8.3}",
        "two half-size buffers",
        refs,
        hits_split,
        hits_split as f64 / refs.max(1) as f64
    );
    println!();
}

fn ablation_reservation() {
    println!("## Ablation 3: query-tree reservation optimization (Legal QS2)");
    let paper = poir_collections::legal().scale(scale());
    let collection = SyntheticCollection::new(paper.spec.clone());
    let (index, _) = build_index(&collection);
    let queries = generate_queries(&collection, &paper.query_sets[1]);
    let texts: Vec<&str> = queries.iter().map(|q| q.text.as_str()).collect();
    println!("{:>16} {:>8} {:>8} {:>8}", "Reservation", "Refs", "Hits", "Rate");
    for enabled in [true, false] {
        let device = paper_device();
        let mut engine = Engine::builder(&device)
            .backend(BackendKind::MnemeCache)
            .build(index.clone())
            .expect("engine");
        engine.set_reservation_enabled(enabled);
        let report = engine.run_query_set(&texts, 100).expect("run");
        let stats = report.buffer_stats.expect("stats");
        let refs: u64 = stats.iter().map(|s| s.refs).sum();
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        println!(
            "{:>16} {:>8} {:>8} {:>8.3}",
            if enabled { "on" } else { "off" },
            refs,
            hits,
            hits as f64 / refs.max(1) as f64
        );
    }
    println!();
}

fn ablation_small_pool() {
    println!("## Ablation 4: dedicated small pool vs. packing smalls into the medium pool");
    let paper = poir_collections::cacm().scale(scale().max(0.5));
    let collection = SyntheticCollection::new(paper.spec.clone());
    let (index, _) = build_index(&collection);
    let smalls: Vec<&Vec<u8>> =
        index.records.iter().map(|(_, r)| r).filter(|r| r.len() <= 12).collect();
    println!("(collection: {} records, {} small)", index.records.len(), smalls.len());
    println!("{:>28} {:>14} {:>14}", "Configuration", "File KB", "Aux KB");
    for (label, with_small_pool) in [("three pools (paper)", true), ("no small pool", false)] {
        let device = paper_device();
        let pools = if with_small_pool {
            vec![
                PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
                PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 8192 } },
                PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
            ]
        } else {
            vec![
                PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 8192 } },
                PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
            ]
        };
        let mut file = MnemeFile::create(device.create_file(), &pools, 64).expect("create");
        for (_, record) in &index.records {
            let pool = if with_small_pool {
                poir_core::pool_for(record.len())
            } else if record.len() > poir_core::LARGE_MIN {
                PoolId(2)
            } else {
                PoolId(1)
            };
            file.create_object(pool, record).expect("create object");
        }
        file.flush().expect("flush");
        println!(
            "{:>28} {:>14} {:>14}",
            label,
            file.file_size().expect("size") / 1024,
            file.aux_table_bytes() / 1024
        );
    }
    println!();
}

fn ablation_recovery() {
    println!("## Ablation 5: redo-log recovery overhead (read-dominated workload)");
    let device_plain = paper_device();
    let device_rec = paper_device();
    let pools =
        vec![PoolConfig { id: PoolId(0), kind: PoolKindConfig::Packed { segment_size: 8192 } }];
    let mut plain = MnemeFile::create(device_plain.create_file(), &pools, 16).expect("create");
    let rec_inner = MnemeFile::create(device_rec.create_file(), &pools, 16).expect("create");
    let mut rec = poir_mneme::recovery::RecoverableFile::new(rec_inner, device_rec.create_file())
        .expect("recoverable");
    let payload = vec![7u8; 200];
    let mut plain_ids = Vec::new();
    let mut rec_ids = Vec::new();
    for _ in 0..2000 {
        plain_ids.push(plain.create_object(PoolId(0), &payload).expect("create"));
        rec_ids.push(rec.create_object(PoolId(0), &payload).expect("create"));
    }
    plain.flush().expect("flush");
    rec.checkpoint().expect("checkpoint");
    // Phase 1: the paper's workload — "predominately read-only".
    device_plain.chill();
    device_rec.chill();
    let before_plain = device_plain.stats().snapshot();
    let before_rec = device_rec.stats().snapshot();
    for i in 0..20_000usize {
        let idx = (i * 7919) % plain_ids.len();
        plain.get(plain_ids[idx]).expect("get");
        rec.get(rec_ids[idx]).expect("get");
    }
    let d_plain = device_plain.stats().snapshot().since(&before_plain);
    let d_rec = device_rec.stats().snapshot().since(&before_rec);
    let read_plain = device_plain.cost_model().charge(&d_plain).as_secs_f64();
    let read_rec = device_rec.cost_model().charge(&d_rec).as_secs_f64();
    // Phase 2: updates, where the redo log actually writes.
    let before_plain = device_plain.stats().snapshot();
    let before_rec = device_rec.stats().snapshot();
    for i in 0..200usize {
        let idx = (i * 131) % plain_ids.len();
        plain.update(plain_ids[idx], &payload).expect("update");
        rec.update(rec_ids[idx], &payload).expect("update");
    }
    let d_plain = device_plain.stats().snapshot().since(&before_plain);
    let d_rec = device_rec.stats().snapshot().since(&before_rec);
    let upd_plain = device_plain.cost_model().charge(&d_plain).as_secs_f64();
    let upd_rec = device_rec.cost_model().charge(&d_rec).as_secs_f64();
    println!("{:>16} {:>18} {:>18}", "Configuration", "20k reads (s)", "200 updates (s)");
    println!("{:>16} {:>18.3} {:>18.3}", "no recovery", read_plain, upd_plain);
    println!("{:>16} {:>18.3} {:>18.3}", "redo log", read_rec, upd_rec);
    println!(
        "read-path overhead: {:.1}%; update overhead: {:.1}% (Section 6: reads are \
         untouched, so the read-dominated workload sees no excessive overhead)",
        100.0 * (read_rec - read_plain) / read_plain.max(1e-9),
        100.0 * (upd_rec - upd_plain) / upd_plain.max(1e-9)
    );
    println!();
}

fn ablation_compression() {
    println!("## Ablation 6: record compression rate (paper reports ~60% average)");
    let paper = poir_collections::legal().scale(scale());
    let collection = SyntheticCollection::new(paper.spec.clone());
    let (index, _) = build_index(&collection);
    let mut compressed = 0u64;
    let mut raw = 0u64;
    for (_, bytes) in &index.records {
        let record = InvertedRecord::decode(bytes).expect("decode");
        compressed += bytes.len() as u64;
        // Uncompressed form: header + (doc, tf) pairs + positions as u32s.
        raw += 12 + record.postings.iter().map(|p| 8 + 4 * p.positions.len() as u64).sum::<u64>();
    }
    println!(
        "compressed {} KB, raw {} KB, compression rate {:.0}%",
        compressed / 1024,
        raw / 1024,
        100.0 * (1.0 - compressed as f64 / raw as f64)
    );
    println!();
}

fn ablation_buffer_policy() {
    println!("## Ablation 7: buffer replacement policy — LRU vs. S3-FIFO");
    // The conclusions invite investigating "other store and buffer
    // organizations"; every policy implements the same Buffer trait. Two
    // traces: the plain QS1 replay (each query once — a scan-ish sweep),
    // and a Zipfian repeated-query replay (head-heavy, the serving
    // family's shape), where scan resistance starts to matter.
    let paper = poir_collections::tipster().scale(scale());
    let collection = SyntheticCollection::new(paper.spec.clone());
    let (index, _) = build_index(&collection);
    let queries = generate_queries(&collection, &paper.query_sets[0]);
    let largest = index.record_sizes().into_iter().max().unwrap_or(1);
    let sizes = poir_core::paper_heuristic(largest, 8192);

    let qs1 = fetch_trace(&index, &queries);
    // The same deterministic Zipfian draw the repeated-query bench family
    // uses (s = 1.0 over the head of the query set, 8x repetition).
    let distinct = queries.len().clamp(1, 40);
    let mut cumulative = Vec::with_capacity(distinct);
    let mut total = 0.0f64;
    for rank in 0..distinct {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    let mut state = 0x9E3779B97F4A7C15u64;
    let zipf: Vec<Vec<poir_inquery::TermId>> = (0..distinct * 8)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            let qi = cumulative.partition_point(|&c| c < u).min(distinct - 1);
            qs1[qi % qs1.len()].clone()
        })
        .collect();

    let replay = |policy: &str, trace: &[Vec<poir_inquery::TermId>]| -> (u64, u64) {
        let device = paper_device();
        let mut dict = index.dictionary.clone();
        let mut store = MnemeInvertedFile::build(
            device.create_file(),
            MnemeOptions::default(),
            &index.records,
            &mut dict,
        )
        .expect("build");
        let make = |cap: usize| -> Box<dyn Buffer> {
            policy.parse::<BufferPolicy>().expect("policy name").build(cap)
        };
        let file = store.mneme();
        file.attach_buffer(PoolId(0), make(sizes.small)).expect("small");
        file.attach_buffer(PoolId(1), make(sizes.medium)).expect("medium");
        file.attach_buffer(PoolId(2), make(sizes.large)).expect("large");
        device.chill();
        for query in trace {
            for &id in query {
                store.fetch(dict.entry(id).store_ref).expect("fetch");
            }
        }
        let stats = store.buffer_stats().expect("stats");
        (stats.iter().map(|s| s.refs).sum(), stats.iter().map(|s| s.hits).sum())
    };

    for (label, trace) in [("QS1 once-through", &qs1), ("Zipfian repeated (s=1)", &zipf)] {
        println!("{label}:");
        println!("{:>10} {:>8} {:>8} {:>8}", "Policy", "Refs", "Hits", "Rate");
        for policy in ["lru", "s3fifo"] {
            let (refs, hits) = replay(policy, trace);
            println!(
                "{:>10} {:>8} {:>8} {:>8.3}",
                policy,
                refs,
                hits,
                hits as f64 / refs.max(1) as f64
            );
        }
    }
    println!();
}

fn main() {
    let start = std::time::Instant::now();
    ablation_segment_size();
    ablation_split_large_buffer();
    ablation_reservation();
    ablation_small_pool();
    ablation_recovery();
    ablation_compression();
    ablation_buffer_policy();
    eprintln!("# ablations finished in {:?}", start.elapsed());
}
