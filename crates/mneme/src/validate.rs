//! Store integrity validation.
//!
//! A production data manager ships a checker: [`MnemeFile::validate`] walks
//! the location tables and every physical segment they reference, verifying
//! that
//!
//! * every referenced segment lies inside the file and none overlap,
//! * each segment's header parses and its pool/kind match the location
//!   table's pool binding,
//! * each segment's object table fits inside it (a header whose entry
//!   count, payload length or offsets point past the segment is reported,
//!   never indexed),
//! * every live object a segment reports is locatable back through the
//!   tables (no orphans), and every slot the tables map resolves inside its
//!   segment (no dangling runs).
//!
//! The report lists problems rather than failing fast, so a damaged file
//! can be triaged in full before it is restored from a [`crate::recovery`]
//! log.

use crate::error::Result;
use crate::file::MnemeFile;
use crate::pool::LocateResult;
use crate::segment::SegmentKind;

/// Outcome of a validation pass.
#[derive(Debug, Default)]
pub struct ValidationReport {
    /// Physical segments examined.
    pub segments_checked: usize,
    /// Live objects accounted for.
    pub live_objects: u64,
    /// Human-readable descriptions of every inconsistency found.
    pub problems: Vec<String>,
}

impl ValidationReport {
    /// Whether the file is internally consistent.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

impl MnemeFile {
    /// Verifies the file's internal consistency. Read-only apart from
    /// loading location buckets and faulting segments through the buffers.
    pub fn validate(&mut self) -> Result<ValidationReport> {
        // Seal building segments and settle the tables so the on-disk state
        // is what gets checked.
        self.flush()?;
        let mut report = ValidationReport::default();
        let file_len = self.file_size()?;
        let inventory = self.segment_inventory()?;

        // Overlap and bounds checks over the sorted segment list.
        let mut prev_end = 0u64;
        let mut prev_desc = String::new();
        let mut sorted = inventory.clone();
        sorted.sort_unstable_by_key(|&(_, addr)| addr);
        for (pool, addr) in &sorted {
            let desc = format!("segment at {}+{} (pool {})", addr.offset, addr.len, pool.0);
            if addr.offset + addr.len as u64 > file_len {
                report.problems.push(format!("{desc} extends past end of file ({file_len})"));
            }
            if addr.offset < prev_end {
                report.problems.push(format!("{desc} overlaps previous segment {prev_desc}"));
            }
            prev_end = addr.offset + addr.len as u64;
            prev_desc = desc;
        }

        // Per-segment structural checks.
        for (pool_id, addr) in inventory {
            report.segments_checked += 1;
            if addr.offset + addr.len as u64 > file_len {
                continue; // already reported as out of bounds
            }
            let header_kind = match self.segment_header_kind(addr) {
                Ok(k) => k,
                Err(e) => {
                    report
                        .problems
                        .push(format!("segment at {}+{}: unreadable ({e})", addr.offset, addr.len));
                    continue;
                }
            };
            let expected = self.pool_kind(pool_id)?;
            if header_kind != Some(expected) {
                report.problems.push(format!(
                    "segment at {}+{}: header kind {:?} does not match pool {} ({:?})",
                    addr.offset, addr.len, header_kind, pool_id.0, expected
                ));
                continue;
            }
            // Every live object in the segment must resolve back through
            // the location tables to this segment.
            let live = match self.segment_live_objects(pool_id, addr) {
                Ok(live) => live,
                Err(e) => {
                    report.problems.push(format!("segment at {}+{}: {e}", addr.offset, addr.len));
                    continue;
                }
            };
            for (id, _) in live {
                report.live_objects += 1;
                match self.locate_for_validation(id)? {
                    Some(found) if found == addr => {}
                    Some(found) => report.problems.push(format!(
                        "object {id:?} stored at {}+{} but tables point to {}+{}",
                        addr.offset, addr.len, found.offset, found.len
                    )),
                    None => report
                        .problems
                        .push(format!("object {id:?} at {}+{} is orphaned", addr.offset, addr.len)),
                }
            }
        }

        // Dangling-run check: the head slot of every run/exception was
        // allocated when the run was pushed, so it must exist in its
        // segment (live or tombstoned) — never Absent.
        for (id, addr) in self.run_heads()? {
            if addr.offset + addr.len as u64 > file_len {
                continue; // already reported as out of bounds
            }
            let pool_id = self.pool_of(id)?;
            if self.segment_header_kind(addr)? != Some(self.pool_kind(pool_id)?) {
                continue; // already reported as a header problem above
            }
            match self.locate_in_segment(pool_id, addr, id)? {
                LocateResult::Absent => report.problems.push(format!(
                    "tables map {id:?} to {}+{} but the segment has no such object",
                    addr.offset, addr.len
                )),
                LocateResult::Corrupt => report.problems.push(format!(
                    "tables map {id:?} to {}+{} but the segment header is corrupt",
                    addr.offset, addr.len
                )),
                LocateResult::Found(_) | LocateResult::Deleted => {}
            }
        }
        Ok(report)
    }
}

/// Segment kinds are compared via the pool's declared layout.
pub(crate) fn kind_of_config(kind: &crate::pool::PoolKindConfig) -> SegmentKind {
    match kind {
        crate::pool::PoolKindConfig::Small => SegmentKind::FixedSlots,
        crate::pool::PoolKindConfig::Packed { .. } => SegmentKind::Packed,
        crate::pool::PoolKindConfig::SegmentPerObject => SegmentKind::SingleObject,
    }
}

#[cfg(test)]
mod tests {
    use crate::pool::{PoolConfig, PoolKindConfig};
    use crate::{MnemeFile, PoolId};
    use poir_storage::Device;

    fn pools() -> Vec<PoolConfig> {
        vec![
            PoolConfig { id: PoolId(0), kind: PoolKindConfig::Small },
            PoolConfig { id: PoolId(1), kind: PoolKindConfig::Packed { segment_size: 2048 } },
            PoolConfig { id: PoolId(2), kind: PoolKindConfig::SegmentPerObject },
        ]
    }

    #[test]
    fn healthy_files_validate_clean() {
        let dev = Device::with_defaults();
        let mut f = MnemeFile::create(dev.create_file(), &pools(), 8).unwrap();
        for i in 0..300u32 {
            let pool = PoolId((i % 3) as u8);
            let len = if pool == PoolId(0) { (i % 13) as usize } else { 20 + (i as usize % 500) };
            f.create_object(pool, &vec![(i % 251) as u8; len]).unwrap();
        }
        // Updates and deletes must not confuse the checker.
        let victim = f.create_object(PoolId(1), b"temp").unwrap();
        f.delete(victim).unwrap();
        f.flush().unwrap();
        let report = f.validate().unwrap();
        assert!(report.is_clean(), "problems: {:?}", report.problems);
        assert!(report.segments_checked > 3);
        assert!(report.live_objects >= 300);
    }

    #[test]
    fn validate_works_after_reopen() {
        let dev = Device::with_defaults();
        let handle = dev.create_file();
        {
            let mut f = MnemeFile::create(handle.clone(), &pools(), 8).unwrap();
            for i in 0..100u32 {
                f.create_object(PoolId(1), &[i as u8; 100]).unwrap();
            }
            f.flush().unwrap();
        }
        let mut f = MnemeFile::open(handle).unwrap();
        let report = f.validate().unwrap();
        assert!(report.is_clean(), "problems: {:?}", report.problems);
    }

    #[test]
    fn corrupted_segment_header_is_detected() {
        let dev = Device::with_defaults();
        let handle = dev.create_file();
        let mut f = MnemeFile::create(handle.clone(), &pools(), 8).unwrap();
        let id = f.create_object(PoolId(2), &vec![9u8; 4000]).unwrap();
        f.flush().unwrap();
        // Smash the segment header's kind byte on disk. The large object's
        // segment starts right after the 8 KB file header.
        handle.write(8192, &[0xEE]).unwrap();
        let _ = id;
        let mut f = MnemeFile::open(handle).unwrap();
        let report = f.validate().unwrap();
        assert!(!report.is_clean());
        assert!(
            report.problems.iter().any(|p| p.contains("kind")),
            "problems: {:?}",
            report.problems
        );
    }

    #[test]
    fn truncated_file_is_detected() {
        let dev = Device::with_defaults();
        let handle = dev.create_file();
        let mut f = MnemeFile::create(handle.clone(), &pools(), 8).unwrap();
        f.create_object(PoolId(2), &vec![1u8; 50_000]).unwrap();
        f.flush().unwrap();
        // Reopen and validate once so the location tables are resident,
        // then chop the file's tail (data and tables both live there) and
        // validate again — the damage must be reported, not panicked on.
        let mut f2 = MnemeFile::open(handle.clone()).unwrap();
        assert!(f2.validate().unwrap().is_clean());
        handle.truncate(handle.len().unwrap() - 10_000).unwrap();
        let report = f2.validate().unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .problems
                .iter()
                .any(|p| p.contains("past end of file") || p.contains("unreadable")),
            "problems: {:?}",
            report.problems
        );
    }
}
