//! Inter-object references.
//!
//! "The only structure Mneme is aware of is that objects may contain the
//! identifiers of other objects, resulting in inter-object references."
//! (Section 3.2). The paper's conclusions highlight that such references
//! "allow structures such as linked lists to be used to break large objects
//! into more manageable pieces ... and allow incremental retrieval of large
//! aggregate objects" — implemented here and used by the chunked
//! inverted-list extension in `poir-core`.
//!
//! An object that carries references uses the payload format
//!
//! ```text
//! [ref count u32 LE][count x packed GlobalId (u64 LE)][application bytes]
//! ```
//!
//! so any pool flagged with `embedded_refs` can enumerate outgoing edges for
//! garbage collection without understanding the application data.

use crate::id::GlobalId;

/// Encodes a payload carrying `refs` outgoing references.
pub fn encode_with_references(refs: &[GlobalId], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + refs.len() * 8 + payload.len());
    out.extend_from_slice(&(refs.len() as u32).to_le_bytes());
    for r in refs {
        out.extend_from_slice(&r.pack().to_le_bytes());
    }
    out.extend_from_slice(payload);
    out
}

/// Splits an object encoded by [`encode_with_references`] into its packed
/// reference list and its application payload. Returns `None` if the bytes
/// are too short to contain the declared table.
pub fn parse_reference_table(object: &[u8]) -> Option<(Vec<u64>, &[u8])> {
    if object.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(object[0..4].try_into().unwrap()) as usize;
    let table_end = 4usize.checked_add(n.checked_mul(8)?)?;
    if object.len() < table_end {
        return None;
    }
    let mut refs = Vec::with_capacity(n);
    for i in 0..n {
        let start = 4 + i * 8;
        refs.push(u64::from_le_bytes(object[start..start + 8].try_into().unwrap()));
    }
    Some((refs, &object[table_end..]))
}

/// Returns just the application payload of a reference-carrying object.
pub fn payload(object: &[u8]) -> Option<&[u8]> {
    parse_reference_table(object).map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{FileSlot, LogicalSegment, ObjectId};

    fn gid(seg: u32, slot: u8) -> GlobalId {
        GlobalId { file: FileSlot(1), object: ObjectId::new(LogicalSegment(seg), slot) }
    }

    #[test]
    fn round_trip_with_references() {
        let refs = vec![gid(0, 1), gid(9, 200), gid(123, 0)];
        let obj = encode_with_references(&refs, b"payload bytes");
        let (raw, body) = parse_reference_table(&obj).unwrap();
        assert_eq!(raw, refs.iter().map(GlobalId::pack).collect::<Vec<_>>());
        assert_eq!(body, b"payload bytes");
        assert_eq!(payload(&obj), Some(&b"payload bytes"[..]));
    }

    #[test]
    fn empty_reference_table() {
        let obj = encode_with_references(&[], b"x");
        assert_eq!(parse_reference_table(&obj).unwrap().0, Vec::<u64>::new());
        assert_eq!(payload(&obj), Some(&b"x"[..]));
    }

    #[test]
    fn truncated_objects_are_rejected() {
        assert!(parse_reference_table(b"").is_none());
        assert!(parse_reference_table(&[1, 0]).is_none());
        // Declares 2 refs (16 bytes) but holds only 8.
        let mut bad = 2u32.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 8]);
        assert!(parse_reference_table(&bad).is_none());
    }

    #[test]
    fn huge_declared_count_does_not_overflow() {
        let mut bad = u32::MAX.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 32]);
        assert!(parse_reference_table(&bad).is_none());
    }
}
