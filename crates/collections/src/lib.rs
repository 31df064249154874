//! # Synthetic document collections and query sets
//!
//! The paper evaluates on CACM, a private Legal collection, and the
//! TIPSTER distribution — unavailable or impractically large here. This
//! crate generates deterministic synthetic stand-ins that preserve the
//! statistical properties the evaluation depends on (see DESIGN.md §3-4):
//!
//! * [`zipf`] — the Zipf term distribution behind Figure 1's inverted-list
//!   size distribution,
//! * [`words`] — bijective rank → pseudo-word synthesis,
//! * [`generator`] — topical document generation,
//! * [`queries`] — the seven query sets (boolean / natural-language /
//!   weighted / phrase styles) with cross-query term repetition,
//! * [`relevance`] — by-construction relevance judgments,
//! * [`presets`] — the four paper collections, scaled.

pub mod generator;
pub mod presets;
pub mod queries;
pub mod relevance;
pub mod words;
pub mod zipf;

pub use generator::{CollectionSpec, Document, SyntheticCollection};
pub use presets::{all as paper_collections, cacm, legal, tipster, tipster1, PaperCollection};
pub use queries::{generate as generate_queries, GeneratedQuery, QuerySetSpec, QueryStyle};
pub use relevance::judgments_for;
pub use zipf::{PowerLaw, Zipf};
