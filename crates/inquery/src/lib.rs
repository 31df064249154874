//! # INQUERY-style probabilistic full-text retrieval engine
//!
//! A from-scratch re-implementation of the published INQUERY retrieval
//! model (Turtle & Croft, TOIS 1991; Callan, Croft & Harding, DEXA 1992) as
//! used in Brown, Callan, Moss & Croft, *Supporting Full-Text Information
//! Retrieval with a Persistent Object Store* (EDBT 1994):
//!
//! * [`text`] — tokenization and stop words,
//! * [`dict`] — the memory-resident open-chaining hash dictionary,
//! * [`codec`] / [`postings`] — compressed inverted records (~60%
//!   compression via delta + variable-byte coding),
//! * [`index`] — batch (sort-based) index construction,
//! * [`store`] — the [`store::InvertedFileStore`] boundary the paper swaps
//!   implementations behind (B-tree vs. Mneme; see `poir-core`),
//! * [`belief`] — Bayesian inference-network belief functions,
//! * [`query`] — the structured query language (`#and`, `#or`, `#not`,
//!   `#sum`, `#wsum`, `#max`, `#phrase`, `#uwN`), term-at-a-time
//!   evaluation, and the document-at-a-time extension,
//! * [`metrics`] — recall/precision evaluation,
//! * [`trec`] — TREC qrels / run-file interchange.

pub mod belief;
pub mod block_cache;
pub mod codec;
pub mod dict;
pub mod documents;
pub mod error;
pub mod index;
pub mod metrics;
pub mod porter;
pub mod postings;
pub mod query;
pub mod store;
pub mod text;
pub mod trec;

pub use belief::{BeliefParams, CollectionStats};
pub use block_cache::{BlockCache, BlockCacheStats, BlockKey, DecodedBlock};
pub use dict::{Dictionary, TermEntry, TermId};
pub use documents::{DocInfo, DocTable};
pub use error::{InqueryError, Result};
pub use index::{Index, IndexBuilder};
pub use metrics::Judgments;
pub use poir_storage::RecordBytes;
pub use porter::stem;
pub use postings::{
    splice_append, splice_remove, BlockCursor, DocId, InvertedRecord, Posting, PostingsCursor,
    SeekSummary, SkipBlock, BLOCK_SIZE, EMPTY_RECORD,
};
pub use query::{
    merge_topk, parse_query, rank_score_list, Evaluator, QueryNode, ScoreList, ScoredDoc,
};
pub use store::{InvertedFileStore, MemoryStore};
pub use text::{tokenize, StopWords};
