//! The query subsystem: parsing and evaluation of structured queries.

pub mod ast;
pub mod daat;
pub mod eval;
pub mod explain;
pub mod parser;

pub use ast::QueryNode;
pub use daat::{flatten_bag, merge_topk};
pub use eval::{rank_score_list, Evaluator, ScoreList, ScoredDoc};
pub use explain::Explanation;
pub use parser::parse_query;
