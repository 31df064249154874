//! Engine-level integration tests: the three storage configurations must
//! agree on retrieval results while exhibiting the paper's distinct I/O
//! profiles, and incremental updates must match an oracle and leave no
//! trace when they fail.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use poir_core::{BackendKind, Engine, MnemeInvertedFile};
use poir_inquery::{
    DocId, Index, IndexBuilder, InvertedFileStore, InvertedRecord, Posting, StopWords,
};
use poir_storage::{
    CostModel, Device, DeviceConfig, FaultKind, FaultOp, FaultPlan, FaultRule, FaultSchedule,
    FileHandle,
};

/// Document `d` of a deterministic pseudo-corpus with skewed term
/// frequencies and some topical repetition, so different operators have
/// work to do.
fn doc_text(d: usize) -> String {
    let mut text = String::new();
    for t in 0..60 {
        let rank = (d * 31 + t * 17) % 211; // common terms
        text.push_str(&format!("w{rank} "));
        if (d + t).is_multiple_of(7) {
            text.push_str(&format!("rare{d} ", d = d % 37));
        }
    }
    if d.is_multiple_of(5) {
        text.push_str("object store performance ");
    }
    text
}

fn build_index(num_docs: usize) -> Index {
    let mut b = IndexBuilder::new(StopWords::default());
    for d in 0..num_docs {
        b.add_document(&format!("DOC-{d:04}"), &doc_text(d));
    }
    b.finish()
}

fn device() -> Arc<Device> {
    Device::new(DeviceConfig {
        block_size: 8192,
        os_cache_blocks: 128,
        cost_model: CostModel::default(),
    })
}

fn engines(num_docs: usize) -> Vec<Engine> {
    BackendKind::all()
        .into_iter()
        .map(|backend| {
            let dev = device();
            Engine::builder(&dev).backend(backend).build(build_index(num_docs)).unwrap()
        })
        .collect()
}

const QUERIES: &[&str] = &[
    "w3 w17 w50",
    "#and(w3 w17)",
    "#or(w100 rare5)",
    "#wsum(3 w7 1 w9 2 rare11)",
    "#phrase(object store)",
    "#and(#or(w1 w2) #not(w3))",
    "#uw10(object performance)",
    "#max(w5 w6 w7)",
];

#[test]
fn all_backends_return_identical_rankings() {
    let mut engines = engines(150);
    for q in QUERIES {
        let mut results = engines.iter_mut().map(|e| e.query(q, 20).unwrap());
        let reference = results.next().unwrap();
        for r in results {
            assert_eq!(r.len(), reference.len(), "query {q}");
            for (a, b) in reference.iter().zip(r.iter()) {
                assert_eq!(a.doc, b.doc, "query {q}");
                assert_eq!(a.name, b.name, "query {q}");
                assert!((a.score - b.score).abs() < 1e-12, "query {q}");
            }
        }
    }
}

#[test]
fn mneme_needs_fewer_accesses_per_lookup_than_btree() {
    let mut engines = engines(400);
    let queries: Vec<String> =
        (0..40).map(|i| format!("w{} w{} w{}", i * 5 % 211, i * 7 % 211, i * 11 % 211)).collect();
    let reports: Vec<_> =
        engines.iter_mut().map(|e| e.run_query_set(&queries, 10).unwrap()).collect();
    let (btree, nocache, cache) = (&reports[0], &reports[1], &reports[2]);
    // Table 5's shape: the B-tree needs > 1 access per lookup; plain Mneme
    // is close to 1; cached Mneme drops below the no-cache version.
    assert!(btree.accesses_per_lookup() > 1.0, "B-tree A = {}", btree.accesses_per_lookup());
    assert!(
        nocache.accesses_per_lookup() < btree.accesses_per_lookup(),
        "Mneme no-cache A = {} must beat B-tree {}",
        nocache.accesses_per_lookup(),
        btree.accesses_per_lookup()
    );
    assert!(
        cache.accesses_per_lookup() < nocache.accesses_per_lookup(),
        "cache A = {} must beat no-cache {}",
        cache.accesses_per_lookup(),
        nocache.accesses_per_lookup()
    );
    // And caching reduces bytes read.
    assert!(cache.kbytes_read() <= nocache.kbytes_read());
    // Simulated system + I/O time follows the same order.
    assert!(cache.sys_io_time <= nocache.sys_io_time);
    // Lookup counts are identical across configurations.
    assert_eq!(btree.record_lookups, nocache.record_lookups);
    assert_eq!(btree.record_lookups, cache.record_lookups);
}

#[test]
fn buffer_stats_present_only_for_mneme() {
    let mut engines = engines(100);
    let queries = vec!["w1 w2 w3"; 5];
    let reports: Vec<_> =
        engines.iter_mut().map(|e| e.run_query_set(&queries, 10).unwrap()).collect();
    assert!(reports[0].buffer_stats.is_none());
    assert!(reports[1].buffer_stats.is_some());
    let stats = reports[2].buffer_stats.unwrap();
    let total_refs: u64 = stats.iter().map(|s| s.refs).sum();
    assert_eq!(total_refs, reports[2].record_lookups, "every lookup is a buffer ref");
    // Repeated identical queries must produce cache hits.
    assert!(stats.iter().map(|s| s.hits).sum::<u64>() > 0);
}

#[test]
fn repeated_queries_hit_the_record_cache() {
    let dev = device();
    let mut engine =
        Engine::builder(&dev).backend(BackendKind::MnemeCache).build(build_index(200)).unwrap();
    let queries = vec!["w10 w20 w30"; 10];
    let report = engine.run_query_set(&queries, 10).unwrap();
    let stats = report.buffer_stats.unwrap();
    let refs: u64 = stats.iter().map(|s| s.refs).sum();
    let hits: u64 = stats.iter().map(|s| s.hits).sum();
    // 10 identical queries: everything after the first pass hits.
    assert_eq!(refs, 30);
    assert!(hits >= 27, "hits {hits} of {refs}");
}

#[test]
fn save_and_reopen_round_trips() {
    let dev = device();
    for backend in BackendKind::all() {
        let mut engine = Engine::builder(&dev).backend(backend).build(build_index(80)).unwrap();
        let expected = engine.query("w3 w17 object", 10).unwrap();
        let meta = dev.create_file();
        engine.save(&meta).unwrap();
        let store_handle = engine.store_handle().clone();
        drop(engine);
        let mut reopened = Engine::builder(&dev).open(store_handle, &meta).unwrap();
        assert_eq!(reopened.backend(), backend);
        let got = reopened.query("w3 w17 object", 10).unwrap();
        assert_eq!(expected, got, "backend {}", backend.label());
    }
}

#[test]
fn incremental_add_makes_documents_findable() {
    let dev = device();
    let mut engine =
        Engine::builder(&dev).backend(BackendKind::MnemeCache).build(build_index(50)).unwrap();
    assert!(engine.query("zyzzyva", 5).unwrap().is_empty());
    let doc = engine.add_document("NEW-0001", "the zyzzyva weevil object store").unwrap();
    let hits = engine.query("zyzzyva", 5).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].doc, doc);
    assert_eq!(hits[0].name, "NEW-0001");
    // Existing terms got the new document appended.
    let hits = engine.query("#phrase(object store)", 100).unwrap();
    assert!(hits.iter().any(|h| h.doc == doc));
    // Statistics were maintained.
    let id = engine.dictionary().lookup("zyzzyva").unwrap();
    assert_eq!(engine.dictionary().entry(id).df, 1);
}

#[test]
fn incremental_add_matches_full_reindex_scores() {
    // Build A: 60 docs indexed in batch. Build B: 50 docs + 10 added
    // incrementally. Rankings must agree.
    let dev = device();
    let full = build_index(60);
    let mut batch = Engine::builder(&dev).backend(BackendKind::MnemeCache).build(full).unwrap();

    let partial = build_index(50);
    let mut incremental =
        Engine::builder(&dev).backend(BackendKind::MnemeCache).build(partial).unwrap();
    for d in 50..60 {
        incremental.add_document(&format!("DOC-{d:04}"), &doc_text(d)).unwrap();
    }
    for q in QUERIES {
        let a = batch.query(q, 15).unwrap();
        let b = incremental.query(q, 15).unwrap();
        assert_eq!(a.len(), b.len(), "query {q}");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.doc, y.doc, "query {q}");
            assert!((x.score - y.score).abs() < 1e-12, "query {q}");
        }
    }
}

#[test]
fn remove_document_hides_it_from_results() {
    let dev = device();
    let mut engine =
        Engine::builder(&dev).backend(BackendKind::MnemeCache).build(build_index(50)).unwrap();
    let text = "unique removable document text zanzibar";
    let doc = engine.add_document("TEMP-1", text).unwrap();
    assert_eq!(engine.query("zanzibar", 5).unwrap().len(), 1);
    engine.remove_document(doc, text).unwrap();
    assert!(engine.query("zanzibar", 5).unwrap().is_empty());
}

#[test]
fn btree_backend_rejects_updates() {
    let dev = device();
    let mut engine =
        Engine::builder(&dev).backend(BackendKind::BTree).build(build_index(30)).unwrap();
    assert!(engine.add_document("X", "some text").is_err());
    assert!(engine.set_buffer_sizes(poir_core::BufferSizes::NONE).is_err());
    assert!(engine.paper_buffer_sizes().is_err());
}

#[test]
fn daat_agrees_with_taat_through_the_engine() {
    let dev = device();
    let mut engine =
        Engine::builder(&dev).backend(BackendKind::MnemeCache).build(build_index(120)).unwrap();
    let taat = engine.query("w3 w17 w50 rare5", 15).unwrap();
    let daat = engine.query_daat("w3 w17 w50 rare5", 15).unwrap();
    assert_eq!(taat.len(), daat.len());
    for (a, b) in taat.iter().zip(daat.iter()) {
        assert_eq!(a.doc, b.doc);
        assert!((a.score - b.score).abs() < 1e-9);
    }
    // Structured queries are rejected by the DAAT path.
    assert!(engine.query_daat("#and(w1 w2)", 5).is_err());
}

#[test]
fn store_file_sizes_are_reported() {
    let mut engines = engines(100);
    for e in &mut engines {
        let size = e.store_file_size().unwrap();
        assert!(size > 8192, "{}: {size}", e.backend().label());
    }
}

/// The text the update-failure tests add and remove: common, rare and
/// brand-new terms, one of them twice.
const UPDATE_TEXT: &str = "object store zyzzyva w3 w17 w17 rare5 performance quokka";

/// Queries over [`UPDATE_TEXT`]'s terms whose rankings must survive a
/// failed update bit for bit.
const PROBES: &[&str] =
    &["w3 w17 rare5", "zyzzyva quokka w3", "#phrase(object store)", "#and(w17 performance)"];

/// The document count, the dictionary's size, and `(df, cf)` of every
/// term of [`UPDATE_TEXT`] (`None` if absent).
type TermStats = (usize, usize, Vec<Option<(u32, u64)>>);

fn term_stats(engine: &Engine) -> TermStats {
    let dict = engine.dictionary();
    let stats = poir_inquery::tokenize(UPDATE_TEXT, engine.stop_words())
        .map(|(t, _)| dict.lookup(&t).map(|id| (dict.entry(id).df, dict.entry(id).cf)))
        .collect();
    (engine.documents().len(), dict.len(), stats)
}

/// What an update can change, as the engine's users see it: the term
/// statistics, and each probe's ranking as doc order and score bits.
fn observe(engine: &mut Engine) -> (TermStats, Vec<Vec<(DocId, u64)>>) {
    let rankings = PROBES
        .iter()
        .map(|q| engine.query(q, 30).unwrap().iter().map(|h| (h.doc, h.score.to_bits())).collect())
        .collect();
    (term_stats(engine), rankings)
}

/// Unbuffered, so every record fetch reaches the device.
fn fresh_for_faults(dev: &Arc<Device>) -> Engine {
    Engine::builder(dev).backend(BackendKind::MnemeNoCache).build(build_index(150)).unwrap()
}

/// Live objects in the engine's store, counted through a second handle
/// on the saved file (an orphaned record shows here and nowhere else).
fn live_objects(engine: &mut Engine) -> usize {
    engine.save(&engine.device().create_file()).unwrap();
    let mut store = MnemeInvertedFile::open(engine.store_handle().clone(), 0).unwrap();
    store.mneme().live_object_ids().unwrap().len()
}

fn read_fault(n: u64) -> FaultPlan {
    FaultPlan::new().rule(FaultRule::new(FaultOp::Read, FaultKind::Eio, FaultSchedule::Nth { n }))
}

/// Sweeps a failing read across every stage of `update` (run after
/// `setup`): with the `n`-th read failing the update must fail, change
/// nothing visible, and leave the engine able to run it again to the same
/// end state as an engine that never saw the fault.
fn assert_failed_update_leaves_no_trace(
    setup: impl Fn(&mut Engine),
    update: impl Fn(&mut Engine) -> poir_core::Result<()>,
) {
    let dev = device();
    let mut clean = fresh_for_faults(&dev);
    setup(&mut clean);
    // A plan that matches every read and never fires counts the update's.
    dev.install_fault_plan(read_fault(u64::MAX));
    update(&mut clean).unwrap();
    let reads = dev.fault_stats().ops_matched;
    dev.clear_fault_plan();
    assert!(reads > 8, "{reads} reads");
    let clean_end = observe(&mut clean);
    let mut untouched = fresh_for_faults(&device());
    setup(&mut untouched);
    let objects = live_objects(&mut untouched);

    for n in [0, 1, reads / 3, reads / 2, reads - 2, reads - 1] {
        let dev = device();
        let mut engine = fresh_for_faults(&dev);
        setup(&mut engine);
        let before = observe(&mut engine);
        dev.install_fault_plan(read_fault(n));
        assert!(update(&mut engine).is_err(), "read {n} of {reads} failed, the update did not");
        assert_eq!(dev.fault_stats().eio, 1);
        dev.clear_fault_plan();
        assert_eq!(observe(&mut engine), before, "read {n}: the failed update left a trace");
        assert_eq!(live_objects(&mut engine), objects, "read {n}: an orphaned record");
        update(&mut engine).unwrap();
        assert_eq!(observe(&mut engine), clean_end, "read {n}: the retried update diverged");
    }
}

#[test]
fn failed_add_leaves_no_trace() {
    assert_failed_update_leaves_no_trace(
        |_| {},
        |e| e.add_document("NEW-1", UPDATE_TEXT).map(|doc| assert_eq!(doc, DocId(150))),
    );
}

#[test]
fn failed_remove_leaves_no_trace() {
    assert_failed_update_leaves_no_trace(
        |e| assert_eq!(e.add_document("NEW-1", UPDATE_TEXT).unwrap(), DocId(150)),
        |e| e.remove_document(DocId(150), UPDATE_TEXT),
    );
}

#[test]
fn remove_reports_an_undecodable_record() {
    let dev = device();
    let mut engine = fresh_for_faults(&dev);
    let doc = engine.add_document("NEW-1", UPDATE_TEXT).unwrap();
    let before = term_stats(&engine);
    // Overwrite "quokka"'s record with bytes no writer emits, through a
    // second handle on the saved store.
    let meta = dev.create_file();
    engine.save(&meta).unwrap();
    let id = engine.dictionary().lookup("quokka").unwrap();
    let store_ref = engine.dictionary().entry(id).store_ref;
    let mut store = MnemeInvertedFile::open(engine.store_handle().clone(), 0).unwrap();
    assert_eq!(store.update_record(store_ref, &[0x85, 0x81]).unwrap(), store_ref);
    store.flush().unwrap();
    drop(store);
    let mut reopened = Engine::builder(&dev).open(engine.store_handle().clone(), &meta).unwrap();
    let err = reopened.remove_document(doc, UPDATE_TEXT).unwrap_err();
    assert!(matches!(err, poir_core::CoreError::CorruptRecord(_)), "{err}");
    // The terms before "quokka" were rewritten, then put back.
    assert_eq!(term_stats(&reopened), before);
    let hits = reopened.query("object performance", 200).unwrap();
    assert!(hits.iter().any(|h| h.doc == doc));
}

/// Word `n` of the generated documents' vocabulary: indexed common terms,
/// terms no indexed document has, and the indexed rare ones.
fn word(n: u32) -> String {
    match n {
        0..=210 => format!("w{n}"),
        211..=239 => format!("fresh{n}"),
        _ => format!("rare{}", n % 37),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After any add/remove sequence, every touched term's record and
    /// dictionary statistics equal a HashMap oracle built from the raw
    /// texts of the surviving documents under their assigned ids. The base
    /// collection puts the common terms around df 130, so updates move
    /// lists across the 128-posting layout boundary both ways, and removals
    /// of base documents re-pack from the first block.
    #[test]
    fn update_sequences_match_a_rebuilt_oracle(
        ops in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(0u32..260, 1..40), any::<usize>()),
            1..12,
        ),
    ) {
        const BASE: usize = 460;
        let dev = device();
        let mut engine = Engine::builder(&dev)
            .backend(BackendKind::MnemeCache)
            .build(build_index(BASE))
            .unwrap();
        let mut live: Vec<(DocId, String)> =
            (0..BASE).map(|d| (DocId(d as u32), doc_text(d))).collect();
        let mut touched = BTreeSet::new();
        for (kind, words, pick) in ops {
            let stop = engine.stop_words().clone();
            if kind < 2 {
                let text: Vec<String> = words.into_iter().map(word).collect();
                let text = text.join(" ");
                let doc = engine.add_document("GEN", &text).unwrap();
                prop_assert_eq!(doc, DocId(engine.documents().len() as u32 - 1));
                touched.extend(poir_inquery::tokenize(&text, &stop).map(|(t, _)| t));
                live.push((doc, text));
            } else {
                let (doc, text) = live.remove(pick % live.len());
                engine.remove_document(doc, &text).unwrap();
                touched.extend(poir_inquery::tokenize(&text, &stop).map(|(t, _)| t));
            }
        }
        // The oracle: postings from the surviving texts, in doc-id order.
        let mut oracle: HashMap<String, Vec<Posting>> = HashMap::new();
        for (doc, text) in &live {
            let mut by_term: HashMap<String, Vec<u32>> = HashMap::new();
            for (t, pos) in poir_inquery::tokenize(text, engine.stop_words()) {
                by_term.entry(t).or_default().push(pos);
            }
            for (t, positions) in by_term {
                let tf = positions.len() as u32;
                oracle.entry(t).or_default().push(Posting { doc: *doc, tf, positions });
            }
        }
        // Read the records back through a second handle on the saved store.
        engine.save(&dev.create_file()).unwrap();
        let mut store = MnemeInvertedFile::open(engine.store_handle().clone(), 0).unwrap();
        let dict = engine.dictionary();
        for term in &touched {
            let want = InvertedRecord::from_postings(oracle.remove(term).unwrap_or_default());
            let entry = dict.entry(dict.lookup(term).unwrap());
            prop_assert_eq!((entry.df, entry.cf), (want.df(), want.cf), "term {}", term);
            let bytes = store.fetch(entry.store_ref).unwrap();
            prop_assert_eq!(InvertedRecord::decode(&bytes), Some(want), "term {}", term);
        }
    }
}

/// A small Mneme engine, its saved metadata file, and that file's bytes.
fn saved_engine() -> (Arc<Device>, Engine, FileHandle, Vec<u8>) {
    let dev = device();
    let mut engine =
        Engine::builder(&dev).backend(BackendKind::MnemeCache).build(build_index(40)).unwrap();
    let meta = dev.create_file();
    engine.save(&meta).unwrap();
    let saved = meta.read(0, meta.len().unwrap() as usize).unwrap();
    (dev, engine, meta, saved)
}

#[test]
fn forged_metadata_is_refused_without_panicking() {
    let (dev, engine, meta, saved) = saved_engine();
    let store_len = engine.store_handle().len().unwrap();
    // The header: "IQME", the backend tag, the largest record's length,
    // then the dictionary's length.
    let forge = |at: usize, word: u64| {
        let mut bytes = saved.clone();
        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
        bytes
    };
    let mut cases = vec![
        forge(5, u64::MAX),
        forge(5, store_len + 1),
        forge(13, u64::MAX),
        forge(13, u64::MAX - 20), // 21 + length wraps to 0
        forge(13, saved.len() as u64 - 20),
    ];
    cases.extend((0..saved.len()).step_by(7).map(|cut| saved[..cut].to_vec()));
    for bytes in cases {
        let forged = dev.create_file();
        forged.write(0, &bytes).unwrap();
        let opened = Engine::builder(&dev).open(engine.store_handle().clone(), &forged);
        assert!(
            matches!(opened, Err(poir_core::CoreError::CorruptMetadata(_))),
            "{} bytes opened as {:?}",
            bytes.len(),
            opened.err()
        );
    }
    // The unforged metadata still opens.
    Engine::builder(&dev).open(engine.store_handle().clone(), &meta).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A saved engine's metadata file with one byte flipped by a random
    /// mask, or truncated to a random length, either opens or is refused
    /// as `CorruptMetadata`; an engine that opens answers a query with `Ok`
    /// or `Err`. Nothing panics.
    #[test]
    fn damaged_metadata_opens_or_is_refused_without_panicking(
        at in any::<usize>(),
        mask in 1u8..=255,
        truncate in any::<bool>(),
    ) {
        let (dev, engine, _, mut bytes) = saved_engine();
        let at = at % bytes.len();
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] ^= mask;
        }
        let damaged = dev.create_file();
        damaged.write(0, &bytes).unwrap();
        match Engine::builder(&dev).open(engine.store_handle().clone(), &damaged) {
            Ok(mut opened) => {
                let _ = opened.query("object store performance w17", 5);
            }
            Err(poir_core::CoreError::CorruptMetadata(_)) => {}
            Err(e) => prop_assert!(false, "damaged at byte {at}: {e}"),
        }
    }
}
