//! Recursive-descent parser for the INQUERY query language.
//!
//! Grammar (whitespace-separated):
//!
//! ```text
//! query   := item+                          (multiple items → implicit #sum)
//! item    := '#' op '(' body ')' | word
//! op      := and | or | not | sum | wsum | max | phrase | uw<N>
//! body    := item+                          (#wsum: (weight item)+;
//!                                            #phrase/#uw: word+)
//! ```
//!
//! Bare words are analyzer-normalised (lower-cased); stop words are removed
//! the way INQUERY applies its stop file to queries — except inside
//! `#phrase`/`#uw`, where every word is kept because positions in the index
//! count stop words too.

use crate::error::{InqueryError, Result};
use crate::query::ast::QueryNode;
use crate::text::StopWords;

/// Parses `input` into a query tree using `stop` for query-side stop-word
/// removal.
///
/// ```
/// use poir_inquery::{parse_query, QueryNode, StopWords};
/// let stop = StopWords::default();
/// let q = parse_query("#and(inverted #or(file index))", &stop).unwrap();
/// assert_eq!(q.leaf_terms(), vec!["inverted", "file", "index"]);
/// // Bare words become a probabilistic #sum; stop words are dropped.
/// let q = parse_query("the inverted index", &stop).unwrap();
/// assert!(matches!(q, QueryNode::Sum(children) if children.len() == 2));
/// ```
pub fn parse_query(input: &str, stop: &StopWords) -> Result<QueryNode> {
    let mut parser = Parser { input, pos: 0, stop };
    let items = parser.parse_items(true)?;
    parser.skip_ws();
    if parser.pos != input.len() {
        return Err(parser.error("unexpected trailing input"));
    }
    match items.len() {
        0 => Err(InqueryError::Parse {
            message: "query contains no indexable terms".into(),
            offset: 0,
        }),
        1 => Ok(items.into_iter().next().unwrap()),
        _ => Ok(QueryNode::Sum(items)),
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    stop: &'a StopWords,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> InqueryError {
        InqueryError::Parse { message: message.into(), offset: self.pos }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// Parses items until `)` (or end of input when `top_level`).
    fn parse_items(&mut self, top_level: bool) -> Result<Vec<QueryNode>> {
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => {
                    if top_level {
                        return Ok(items);
                    }
                    return Err(self.error("unbalanced parentheses: expected ')'"));
                }
                Some(')') => {
                    if top_level {
                        return Err(self.error("unexpected ')'"));
                    }
                    return Ok(items);
                }
                Some('#') => items.push(self.parse_operator()?),
                Some(_) => {
                    if let Some(node) = self.parse_word_term()? {
                        items.push(node);
                    }
                }
            }
        }
    }

    fn take_word(&mut self) -> &'a str {
        let rest = self.rest();
        let end = rest
            .find(|c: char| c.is_whitespace() || c == '(' || c == ')' || c == '#')
            .unwrap_or(rest.len());
        self.pos += end;
        &rest[..end]
    }

    /// Normalises a raw query word into an index term.
    fn normalise(word: &str) -> String {
        word.chars().filter(|c| c.is_ascii_alphanumeric()).map(|c| c.to_ascii_lowercase()).collect()
    }

    fn parse_word_term(&mut self) -> Result<Option<QueryNode>> {
        let start = self.pos;
        let raw = self.take_word();
        if raw.is_empty() {
            self.pos = start;
            return Err(self.error("expected a word"));
        }
        let term = Self::normalise(raw);
        if term.is_empty() {
            return Ok(None);
        }
        // Stop words and noise are dropped; surviving words take their
        // index form (stemmed when the analyzer stems).
        Ok(self.stop.index_form(&term).map(QueryNode::Term))
    }

    fn expect(&mut self, c: char) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(self.error(&format!("expected '{c}'")))
        }
    }

    fn parse_operator(&mut self) -> Result<QueryNode> {
        debug_assert_eq!(self.peek(), Some('#'));
        self.pos += 1;
        let name = self.take_word().to_ascii_lowercase();
        self.expect('(')?;
        let node = match name.as_str() {
            "and" => QueryNode::And(self.parse_nonempty_items("#and")?),
            "or" => QueryNode::Or(self.parse_nonempty_items("#or")?),
            "sum" => QueryNode::Sum(self.parse_nonempty_items("#sum")?),
            "max" => QueryNode::Max(self.parse_nonempty_items("#max")?),
            "not" => {
                let items = self.parse_nonempty_items("#not")?;
                if items.len() != 1 {
                    return Err(self.error("#not takes exactly one argument"));
                }
                QueryNode::Not(Box::new(items.into_iter().next().unwrap()))
            }
            "wsum" => QueryNode::WSum(self.parse_weighted_items()?),
            "phrase" => QueryNode::Phrase(self.parse_word_list("#phrase")?),
            _ if name.starts_with("uw") => {
                let size: u32 = name[2..]
                    .parse()
                    .map_err(|_| self.error("expected #uw<N> with a numeric window size"))?;
                if size == 0 {
                    return Err(self.error("#uw window size must be positive"));
                }
                QueryNode::Window { size, terms: self.parse_word_list("#uw")? }
            }
            other => return Err(self.error(&format!("unknown operator #{other}"))),
        };
        self.expect(')')?;
        Ok(node)
    }

    fn parse_nonempty_items(&mut self, op: &str) -> Result<Vec<QueryNode>> {
        let items = self.parse_items(false)?;
        if items.is_empty() {
            return Err(self.error(&format!("{op} requires at least one indexable argument")));
        }
        Ok(items)
    }

    /// `#wsum` body: alternating weight / item pairs.
    fn parse_weighted_items(&mut self) -> Result<Vec<(f64, QueryNode)>> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(')') => break,
                None => return Err(self.error("unbalanced parentheses in #wsum")),
                _ => {}
            }
            let start = self.pos;
            let word = self.take_word();
            let weight: f64 = word.parse().map_err(|_| {
                self.pos = start;
                self.error("expected a numeric weight in #wsum")
            })?;
            if !(weight.is_finite() && weight >= 0.0) {
                self.pos = start;
                return Err(self.error("#wsum weights must be finite and non-negative"));
            }
            self.skip_ws();
            let item = match self.peek() {
                Some('#') => Some(self.parse_operator()?),
                Some(c) if c != ')' => self.parse_word_term()?,
                _ => return Err(self.error("#wsum weight without an argument")),
            };
            if let Some(item) = item {
                out.push((weight, item));
            }
        }
        if out.is_empty() {
            return Err(self.error("#wsum requires at least one weighted argument"));
        }
        Ok(out)
    }

    /// `#phrase`/`#uw` body: plain words only, stop words kept.
    fn parse_word_list(&mut self, op: &str) -> Result<Vec<String>> {
        let mut words = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(')') => break,
                None => return Err(self.error(&format!("unbalanced parentheses in {op}"))),
                // A nested operator or group: `take_word` would stop at it
                // without consuming anything.
                Some('#' | '(') => {
                    return Err(self.error(&format!("{op} accepts only plain words")));
                }
                Some(_) => {
                    let term = Self::normalise(self.take_word());
                    if term.is_empty() {
                        continue;
                    }
                    // Inside #phrase/#uw, stop words stay (they are
                    // positional wildcards) but content words take their
                    // index form so they match the dictionary.
                    if term.len() >= 2 && !self.stop.contains(&term) {
                        words.push(self.stop.index_form(&term).unwrap_or(term));
                    } else {
                        words.push(term);
                    }
                }
            }
        }
        if words.len() < 2 {
            return Err(self.error(&format!("{op} requires at least two words")));
        }
        Ok(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> QueryNode {
        parse_query(s, &StopWords::default()).unwrap()
    }

    #[test]
    fn bare_words_become_a_sum() {
        assert_eq!(
            parse("information retrieval systems"),
            QueryNode::Sum(vec![
                QueryNode::Term("information".into()),
                QueryNode::Term("retrieval".into()),
                QueryNode::Term("systems".into()),
            ])
        );
    }

    #[test]
    fn single_word_is_a_bare_term() {
        assert_eq!(parse("Retrieval"), QueryNode::Term("retrieval".into()));
    }

    #[test]
    fn stop_words_are_removed_from_queries() {
        assert_eq!(
            parse("the performance of retrieval"),
            QueryNode::Sum(vec![
                QueryNode::Term("performance".into()),
                QueryNode::Term("retrieval".into()),
            ])
        );
    }

    #[test]
    fn boolean_operators_nest() {
        let q = parse("#and(database #or(index btree) #not(hardware))");
        assert_eq!(
            q,
            QueryNode::And(vec![
                QueryNode::Term("database".into()),
                QueryNode::Or(vec![
                    QueryNode::Term("index".into()),
                    QueryNode::Term("btree".into()),
                ]),
                QueryNode::Not(Box::new(QueryNode::Term("hardware".into()))),
            ])
        );
    }

    #[test]
    fn wsum_pairs_weights_and_items() {
        let q = parse("#wsum(2 retrieval 1 #phrase(object store) 0.5 mneme)");
        match q {
            QueryNode::WSum(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0], (2.0, QueryNode::Term("retrieval".into())));
                assert_eq!(
                    items[1],
                    (1.0, QueryNode::Phrase(vec!["object".into(), "store".into()]))
                );
                assert_eq!(items[2], (0.5, QueryNode::Term("mneme".into())));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn phrase_keeps_stop_words() {
        let q = parse("#phrase(state of the art)");
        assert_eq!(
            q,
            QueryNode::Phrase(vec!["state".into(), "of".into(), "the".into(), "art".into()])
        );
    }

    #[test]
    fn unordered_window_parses_size() {
        let q = parse("#uw5(information retrieval)");
        assert_eq!(
            q,
            QueryNode::Window { size: 5, terms: vec!["information".into(), "retrieval".into()] }
        );
    }

    #[test]
    fn parse_errors_carry_position_and_reason() {
        let stop = StopWords::default();
        for (query, fragment) in [
            ("#and(a b", "unbalanced"),
            ("#bogus(x y)", "unknown operator"),
            ("#not(alpha beta)", "exactly one"),
            ("#wsum(x retrieval)", "numeric weight"),
            ("#phrase(single)", "at least two"),
            ("#uwx(a b)", "numeric window"),
            ("#uw0(ab cd)", "positive"),
            ("the of and", "no indexable terms"),
            ("", "no indexable terms"),
            ("#phrase(a #and(b))", "only plain words"),
            ("retrieval)", "unexpected ')'"),
        ] {
            match parse_query(query, &stop) {
                Err(InqueryError::Parse { message, .. }) => {
                    assert!(
                        message.contains(fragment),
                        "query {query:?}: message {message:?} should contain {fragment:?}"
                    );
                }
                other => panic!("query {query:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn punctuation_in_words_is_stripped() {
        assert_eq!(parse("B-tree's"), QueryNode::Term("btrees".into()));
    }

    #[test]
    fn operators_with_all_stop_children_error() {
        assert!(parse_query("#and(the of)", &StopWords::default()).is_err());
    }

    /// A `(` inside `#phrase`/`#uw` stops the word scanner without
    /// consuming input. Each query parses on its own thread, so a parser
    /// that loops fails the test instead of hanging it.
    #[test]
    fn parenthesis_in_word_list_is_an_error_not_a_hang() {
        for query in ["#phrase(inverted (file))", "#uw3(alpha beta(", "#sum(#phrase(x ( y))"] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(parse_query(query, &StopWords::default()));
            });
            match rx.recv_timeout(std::time::Duration::from_secs(2)) {
                Ok(Err(InqueryError::Parse { message, .. })) => {
                    assert!(message.contains("only plain words"), "{query:?}: {message:?}");
                }
                Ok(other) => panic!("{query:?}: expected a parse error, got {other:?}"),
                Err(_) => panic!("{query:?}: parse did not return within 2 s"),
            }
        }
    }
}
