//! TREC interchange formats.
//!
//! The paper's query sets come with relevance files ("A relevance file
//! lists the documents that should have been retrieved for each query",
//! Section 4.2) and its TIPSTER experiments sit in the first TREC's
//! ecosystem [Harman 1992]. This module writes the two de-facto standard
//! formats of that ecosystem, so the engine's output feeds real evaluation
//! tooling:
//!
//! * **qrels**: `query-id 0 document-name relevance` — relevance judgments,
//! * **run files**: `query-id Q0 document-name rank score tag` — ranked
//!   retrieval output consumed by `trec_eval`.

use crate::documents::DocTable;
use crate::metrics::Judgments;
use crate::postings::DocId;
use crate::query::eval::ScoredDoc;

/// Formats one query's ranking as TREC run-file lines.
pub fn format_run(query_id: &str, ranked: &[ScoredDoc], docs: &DocTable, tag: &str) -> String {
    let mut out = String::with_capacity(ranked.len() * 48);
    for (rank, s) in ranked.iter().enumerate() {
        out.push_str(&format!(
            "{query_id} Q0 {} {} {:.6} {tag}\n",
            docs.info(s.doc).name,
            rank + 1,
            s.score
        ));
    }
    out
}

/// Formats relevance judgments as qrels lines.
pub fn format_qrels(query_id: &str, judgments: &Judgments, docs: &DocTable) -> String {
    let mut relevant: Vec<&str> = (0..docs.len() as u32)
        .map(DocId)
        .filter(|&d| judgments.is_relevant(d))
        .map(|d| docs.info(d).name.as_str())
        .collect();
    relevant.sort_unstable();
    let mut out = String::with_capacity(relevant.len() * 32);
    for name in relevant {
        out.push_str(&format!("{query_id} 0 {name} 1\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> DocTable {
        let mut t = DocTable::new();
        for i in 0..5 {
            t.push(format!("DOC-{i}"), 100);
        }
        t
    }

    fn ranked() -> Vec<ScoredDoc> {
        vec![
            ScoredDoc { doc: DocId(3), score: 0.91 },
            ScoredDoc { doc: DocId(0), score: 0.73 },
            ScoredDoc { doc: DocId(4), score: 0.5 },
        ]
    }

    #[test]
    fn run_file_lines_are_formatted() {
        let text = format_run("51", &ranked(), &docs(), "poir");
        assert_eq!(
            text,
            "51 Q0 DOC-3 1 0.910000 poir\n51 Q0 DOC-0 2 0.730000 poir\n51 Q0 DOC-4 3 0.500000 poir\n"
        );
    }

    #[test]
    fn qrels_lines_are_formatted() {
        let judgments = Judgments::new([DocId(1), DocId(4)]);
        let text = format_qrels("51", &judgments, &docs());
        assert_eq!(text, "51 0 DOC-1 1\n51 0 DOC-4 1\n");
    }
}
