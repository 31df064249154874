//! Dynamic update: a newswire that never stops.
//!
//! ```text
//! cargo run --release --example newswire_updates
//! ```
//!
//! The original INQUERY treated collections as archival — "addition or
//! deletion of a single document ... requires the entire document collection
//! to be re-indexed" (Section 2). The object store removes that
//! restriction: this example starts from a TIPSTER-like core, streams in
//! breaking-news documents one at a time and retires old ones — all while
//! queries keep working.

use poir::collections::{self, SyntheticCollection};
use poir::core::{BackendKind, Engine};
use poir::inquery::{IndexBuilder, StopWords};
use poir::storage::Device;

fn main() {
    // A small TIPSTER-like core collection.
    let paper = collections::tipster().scale(0.02);
    let collection = SyntheticCollection::new(paper.spec.clone());
    let mut builder = IndexBuilder::new(StopWords::default());
    for doc in collection.documents() {
        builder.add_document(&doc.name, &doc.text);
    }
    let index = builder.finish();
    let device = Device::with_defaults();
    let mut engine = Engine::builder(&device)
        .backend(BackendKind::MnemeCache)
        .build(index)
        .expect("engine build");
    println!(
        "core collection: {} documents, {} terms",
        engine.documents().len(),
        engine.dictionary().len()
    );

    // Breaking news arrives. Each article is indexed incrementally: every
    // term's inverted record is fetched, extended, and written back through
    // the object store (growing records migrate between pools
    // automatically).
    let articles = [
        ("WIRE-001", "markets rally as the persistent object store consortium reports earnings"),
        ("WIRE-002", "storage summit keynote praises inverted file caching strategies"),
        ("WIRE-003", "markets slide after buffer management scandal rocks the consortium"),
        ("WIRE-004", "obscure zeppelin sighting dominates the evening newswire"),
    ];
    let mut wire_docs = Vec::new();
    for (name, text) in articles {
        wire_docs.push((engine.add_document(name, text).expect("add"), text));
        println!("added {name}");
    }

    for query in ["markets consortium", "zeppelin", "buffer management"] {
        let hits = engine.query(query, 3).expect("query");
        let names: Vec<&str> = hits.iter().map(|h| h.name.as_str()).collect();
        println!("query {query:?} → {names:?}");
    }

    // A correction comes in: retire the zeppelin story.
    let (doc, text) = wire_docs[3];
    engine.remove_document(doc, text).expect("remove");
    let hits = engine.query("zeppelin", 3).expect("query");
    println!("after retirement, query \"zeppelin\" → {} hits", hits.len());
}
