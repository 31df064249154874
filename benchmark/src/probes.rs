//! Probes: small timed loops over one layer's public functions, for the
//! layers a span cannot reach from outside (`mneme`/`storage` below the
//! store boundary, the codec inside the ranker) or whose calls are too
//! short to time one by one (dictionary lookups).

use std::hint::black_box;
use std::time::Instant;

use poir_collections::Document;
use poir_inquery::{
    parse_query, tokenize, Dictionary, Index, InvertedFileStore, InvertedRecord, Posting,
    PostingsCursor, StopWords,
};
use poir_storage::Device;

use crate::inputs::Requests;
use crate::trace::Pipeline;

/// Repeats `pass` until at least `min_secs` have been measured; returns
/// seconds per pass.
fn time_passes(min_secs: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u32;
    loop {
        pass();
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return elapsed / passes as f64;
        }
    }
}

/// `inquery.dict.ns_per_lookup`: `Dictionary::lookup` over the terms of
/// the first `count` requests. Returns (ns per lookup, lookups per pass).
pub fn dict_lookup_ns(dict: &Dictionary, requests: &Requests, count: usize) -> (f64, usize) {
    let stop = StopWords::default();
    let terms: Vec<String> = (0..count)
        .filter_map(|i| parse_query(requests.text(i), &stop).ok())
        .flat_map(|q| q.leaf_terms().into_iter().map(str::to_string).collect::<Vec<_>>())
        .collect();
    if terms.is_empty() {
        return (0.0, 0);
    }
    let secs = time_passes(0.1, || {
        for t in &terms {
            black_box(dict.lookup(black_box(t)));
        }
    });
    (secs * 1e9 / terms.len() as f64, terms.len())
}

/// `inquery.postings.decode_ns_per_posting`: drains
/// `PostingsCursor::next_doc_tf` over the records the replay fetched
/// whole (the first `max_fetches` of them, repeats included, so records
/// weigh as the requests weighed them). Returns (ns per posting, postings
/// per pass).
pub fn decode_ns_per_posting(
    pipeline: &Pipeline,
    fetched: &[(usize, u64)],
    max_fetches: usize,
) -> (f64, u64) {
    let records: Vec<_> = fetched
        .iter()
        .take(max_fetches)
        .filter_map(|&(shard, r)| pipeline.shards[shard].store.shared_view().fetch(r).ok())
        .collect();
    let mut postings = 0u64;
    let secs = time_passes(0.2, || {
        postings = 0;
        for bytes in &records {
            if let Some((mut cursor, ..)) = PostingsCursor::open(black_box(bytes)) {
                while let Some(p) = cursor.next_doc_tf() {
                    black_box(p);
                    postings += 1;
                }
            }
        }
    });
    if postings == 0 {
        return (0.0, 0);
    }
    (secs * 1e9 / postings as f64, postings)
}

const BLOCK: usize = 8192;
const PROBE_FILE_BLOCKS: usize = 128;

/// A 1 MB file on `device`, read once so every block sits in the
/// simulated OS cache (the default cache holds 512 blocks).
fn warm_file(device: &std::sync::Arc<Device>) -> poir_storage::FileHandle {
    let file = device.create_file();
    file.write(0, &vec![0xA5u8; BLOCK * PROBE_FILE_BLOCKS]).expect("probe file write");
    for b in 0..PROBE_FILE_BLOCKS {
        file.read((b * BLOCK) as u64, BLOCK).expect("probe file warm read");
    }
    file
}

fn read_blocks(file: &poir_storage::FileHandle, reads: usize) {
    for i in 0..reads {
        let block = (i * 37) % PROBE_FILE_BLOCKS;
        black_box(file.read((block * BLOCK) as u64, BLOCK).expect("probe read"));
    }
}

/// `storage.read_8k_us`: one warm 8 KB `FileHandle::read` (OS-cache hit,
/// no simulated disk transfer), in host microseconds.
pub fn read_8k_us() -> f64 {
    let device = Device::with_defaults();
    let file = warm_file(&device);
    const READS: usize = 4096;
    time_passes(0.15, || read_blocks(&file, READS)) * 1e6 / READS as f64
}

/// `storage.read_scaling_2t`: aggregate warm reads per second with two
/// threads on two files of one device, over one thread on one file. 2.0
/// is ideal; 1.0 means the device serialises its readers.
pub fn read_scaling_2t() -> f64 {
    let device = Device::with_defaults();
    let files = [warm_file(&device), warm_file(&device)];
    const READS: usize = 40_000;
    // Best of three per side: the ratio compares capacities, and a
    // descheduled thread only ever makes a side look slower.
    let mut one = f64::MAX;
    let mut two = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        read_blocks(&files[0], READS);
        one = one.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::thread::scope(|s| {
            for f in &files {
                s.spawn(move || read_blocks(f, READS));
            }
        });
        two = two.min(t.elapsed().as_secs_f64());
    }
    (2.0 * READS as f64 / two) / (READS as f64 / one)
}

/// The distinct index terms of a document, with their positions.
fn doc_terms(text: &str, stop: &StopWords) -> Vec<(String, Vec<u32>)> {
    let mut by_term: std::collections::BTreeMap<String, Vec<u32>> = Default::default();
    for (token, pos) in tokenize(text, stop) {
        by_term.entry(token).or_default().push(pos);
    }
    by_term.into_iter().collect()
}

/// `core.engine.terms_per_update`: distinct index terms per document.
pub fn terms_per_doc(docs: &[Document]) -> f64 {
    let stop = StopWords::default();
    let total: usize = docs.iter().map(|d| doc_terms(&d.text, &stop).len()).sum();
    crate::stats::ratio(total as f64, docs.len() as f64)
}

/// `inquery.postings.recode_us_per_update`: `InvertedRecord::decode` +
/// `encode` over the records one added document touches — the codec's
/// share of an update, without the store. Mean microseconds per document.
pub fn recode_us_per_update(index: &Index, docs: &[Document]) -> f64 {
    let stop = StopWords::default();
    let new_doc = poir_inquery::DocId(index.documents.len() as u32);
    let touched: Vec<Vec<(&[u8], Posting)>> = docs
        .iter()
        .map(|d| {
            doc_terms(&d.text, &stop)
                .into_iter()
                .filter_map(|(term, positions)| {
                    let id = index.dictionary.lookup(&term)?;
                    let bytes = index.records[id.0 as usize].1.as_slice();
                    let tf = positions.len() as u32;
                    Some((bytes, Posting { doc: new_doc, tf, positions }))
                })
                .collect()
        })
        .collect();
    if touched.is_empty() {
        return 0.0;
    }
    let secs = time_passes(0.2, || {
        for doc in &touched {
            for (bytes, posting) in doc {
                if let Some(mut record) = InvertedRecord::decode(black_box(bytes)) {
                    record.postings.push(posting.clone());
                    black_box(record.encode());
                }
            }
        }
    });
    secs * 1e6 / touched.len() as f64
}
