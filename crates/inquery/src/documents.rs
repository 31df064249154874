//! The document table: per-document metadata needed at ranking time.
//!
//! INQUERY's belief functions normalise term frequency by document length,
//! and result lists report external document identifiers, so the engine
//! keeps a memory-resident table of `(external id, length)` per document —
//! loaded at open time alongside the hash dictionary.

use crate::postings::DocId;

/// Metadata for one document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocInfo {
    /// The collection's external identifier (e.g. "CACM-1234").
    pub name: String,
    /// Document length in word tokens (before stop-word removal).
    pub len: u32,
}

/// The memory-resident document table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocTable {
    docs: Vec<DocInfo>,
    total_len: u64,
    /// Shortest length pushed so far (0 while empty).
    min_len: u32,
}

impl DocTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a document, returning its ordinal id.
    pub fn push(&mut self, name: String, len: u32) -> DocId {
        let id = DocId(self.docs.len() as u32);
        self.total_len += len as u64;
        self.min_len = if self.docs.is_empty() { len } else { self.min_len.min(len) };
        self.docs.push(DocInfo { name, len });
        id
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Metadata for `doc`. Panics when `doc` is past the collection.
    pub fn info(&self, doc: DocId) -> &DocInfo {
        &self.docs[doc.0 as usize]
    }

    /// Metadata for `doc`, or `None` when `doc` is past the collection (a
    /// damaged record can name such a document).
    pub fn get(&self, doc: DocId) -> Option<&DocInfo> {
        self.docs.get(doc.0 as usize)
    }

    /// Shortest document length in tokens (0 when empty). Term belief is
    /// monotone decreasing in document length, so evaluating it at the
    /// collection's shortest document yields a sound upper bound.
    pub fn min_len(&self) -> u32 {
        self.min_len
    }

    /// Mean document length in tokens.
    pub fn avg_len(&self) -> f64 {
        if self.docs.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.docs.len() as f64
        }
    }

    /// Serializes the table.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.docs.len() * 24);
        out.extend_from_slice(b"IQDT");
        out.extend_from_slice(&(self.docs.len() as u32).to_le_bytes());
        for d in &self.docs {
            out.extend_from_slice(&(d.name.len() as u16).to_le_bytes());
            out.extend_from_slice(d.name.as_bytes());
            out.extend_from_slice(&d.len.to_le_bytes());
        }
        out
    }

    /// Deserializes a table written by [`DocTable::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 || &bytes[0..4] != b"IQDT" {
            return None;
        }
        let count = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let mut table = DocTable::new();
        let mut pos = 8;
        for _ in 0..count {
            if pos + 2 > bytes.len() {
                return None;
            }
            let name_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
            pos += 2;
            if pos + name_len + 4 > bytes.len() {
                return None;
            }
            let name = std::str::from_utf8(&bytes[pos..pos + name_len]).ok()?.to_string();
            pos += name_len;
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            pos += 4;
            table.push(name, len);
        }
        Some(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_sequential_ids() {
        let mut t = DocTable::new();
        assert_eq!(t.push("DOC-0".into(), 100), DocId(0));
        assert_eq!(t.push("DOC-1".into(), 200), DocId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.info(DocId(1)).name, "DOC-1");
        assert_eq!(t.info(DocId(0)).len, 100);
        assert_eq!(t.avg_len(), 150.0);
    }

    #[test]
    fn empty_table() {
        let t = DocTable::new();
        assert!(t.is_empty());
        assert_eq!(t.avg_len(), 0.0);
    }

    #[test]
    fn serialization_round_trips() {
        let mut t = DocTable::new();
        for i in 0..300 {
            t.push(format!("LEGAL-{i:05}"), (i * 7) % 500 + 1);
        }
        let t2 = DocTable::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn min_len_tracks_pushes_and_survives_serialization() {
        let mut t = DocTable::new();
        assert_eq!(t.min_len(), 0, "empty table");
        t.push("a".into(), 40);
        assert_eq!(t.min_len(), 40, "the first push sets the minimum");
        t.push("b".into(), 70);
        assert_eq!(t.min_len(), 40);
        t.push("c".into(), 3);
        t.push("d".into(), 9);
        assert_eq!(t.min_len(), 3);
        let scanned = (0..t.len() as u32).map(|i| t.info(DocId(i)).len).min().unwrap();
        assert_eq!(t.min_len(), scanned);
        let t2 = DocTable::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(t2.min_len(), 3);
        assert_eq!(t2, t);
        t.push("e".into(), 0);
        assert_eq!(t.min_len(), 0, "a zero-length document is the minimum");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(DocTable::from_bytes(b"").is_none());
        assert!(DocTable::from_bytes(b"XXXX\x01\x00\x00\x00").is_none());
        let mut t = DocTable::new();
        t.push("doc".into(), 5);
        let bytes = t.to_bytes();
        assert!(DocTable::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }
}
