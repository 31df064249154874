//! Inverted files spanning multiple Mneme files.
//!
//! "This allows a potentially unlimited number of objects to be created by
//! allocating a new file when the previous file's object identifiers have
//! been exhausted." (Section 3.2)
//!
//! A single Mneme file holds at most 2^28 objects; a web-scale inverted
//! index would exceed that. [`MultiFileInvertedFile`] implements the
//! paper's growth path: records are created in the current file until its
//! id budget is spent, then a fresh file (with the same three-pool
//! configuration) is allocated. Store references are packed
//! [`GlobalId`]s, so the dictionary needs no schema change.
//!
//! The per-file budget is configurable so tests can exercise multi-file
//! behaviour without creating 2^28 objects.

use poir_inquery::{Dictionary, InvertedFileStore, TermId};
use poir_mneme::{FileSlot, GlobalId, MnemeFile, ObjectId};
use poir_storage::{Device, FileHandle};
use poir_telemetry::{Event, Recorder};
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::mneme_store::{pool_configs, pool_for};

/// Options for a multi-file inverted file.
#[derive(Debug, Clone)]
pub struct MultiFileOptions {
    /// Medium-pool segment size.
    pub medium_segment: usize,
    /// Objects per file before a new file is allocated. The real bound is
    /// 2^28; the default keeps it, tests lower it.
    pub objects_per_file: u64,
    /// Location-table buckets per file.
    pub num_buckets: u32,
}

impl Default for MultiFileOptions {
    fn default() -> Self {
        MultiFileOptions {
            medium_segment: 8192,
            objects_per_file: poir_mneme::store::MAX_GLOBAL_OBJECTS,
            num_buckets: 64,
        }
    }
}

/// An inverted file spread across as many Mneme files as its record count
/// requires.
pub struct MultiFileInvertedFile {
    device: Arc<Device>,
    options: MultiFileOptions,
    files: Vec<MnemeFile>,
    handles: Vec<FileHandle>,
    current_count: u64,
    lookups: u64,
    recorder: Recorder,
}

impl std::fmt::Debug for MultiFileInvertedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiFileInvertedFile")
            .field("files", &self.files.len())
            .field("lookups", &self.lookups)
            .finish_non_exhaustive()
    }
}

impl MultiFileInvertedFile {
    /// Creates an empty multi-file store on `device`.
    pub fn create(device: &Arc<Device>, options: MultiFileOptions) -> Result<Self> {
        assert!(options.objects_per_file > 0, "per-file budget must be positive");
        let mut store = MultiFileInvertedFile {
            device: Arc::clone(device),
            options,
            files: Vec::new(),
            handles: Vec::new(),
            current_count: 0,
            lookups: 0,
            recorder: Recorder::disabled(),
        };
        store.allocate_file()?;
        Ok(store)
    }

    fn allocate_file(&mut self) -> Result<()> {
        let handle = self.device.create_file();
        let mut file = MnemeFile::create(
            handle.clone(),
            &pool_configs(self.options.medium_segment),
            self.options.num_buckets,
        )?;
        file.attach_recorder(self.recorder.clone());
        self.files.push(file);
        self.handles.push(handle);
        self.current_count = 0;
        Ok(())
    }

    /// Number of Mneme files allocated so far.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total size across all files, in bytes.
    pub fn total_size(&self) -> Result<u64> {
        let mut total = 0;
        for f in &self.files {
            total += f.file_size()?;
        }
        Ok(total)
    }

    /// Loads the index records, depositing packed [`GlobalId`] references
    /// in the dictionary.
    pub fn build(
        device: &Arc<Device>,
        options: MultiFileOptions,
        records: &[(TermId, Vec<u8>)],
        dict: &mut Dictionary,
    ) -> Result<Self> {
        let mut store = Self::create(device, options)?;
        for (term, bytes) in records {
            let gid = store.insert_record(bytes)?;
            dict.entry_mut(*term).store_ref = gid;
        }
        store.flush()?;
        Ok(store)
    }

    /// Inserts a record, rolling over to a new file when the current one's
    /// id budget is exhausted. Returns the packed global reference.
    pub fn insert_record(&mut self, bytes: &[u8]) -> Result<u64> {
        if self.current_count >= self.options.objects_per_file {
            // "allocating a new file when the previous file's object
            // identifiers have been exhausted"
            self.allocate_file()?;
        }
        let slot = FileSlot((self.files.len() - 1) as u16);
        let file = self.files.last_mut().expect("at least one file");
        let object = file.create_object(pool_for(bytes.len()), bytes)?;
        self.current_count += 1;
        Ok(GlobalId { file: slot, object }.pack())
    }

    fn resolve(store_ref: u64) -> Result<(usize, ObjectId)> {
        let gid = GlobalId::unpack(store_ref).ok_or(CoreError::DanglingRef(store_ref))?;
        Ok((gid.file.0 as usize, gid.object))
    }

    /// Flushes every file.
    pub fn flush(&mut self) -> Result<()> {
        for f in &mut self.files {
            f.flush()?;
        }
        Ok(())
    }

    /// Reopens a multi-file store from its handles (in allocation order).
    pub fn open(
        device: &Arc<Device>,
        options: MultiFileOptions,
        handles: Vec<FileHandle>,
    ) -> Result<Self> {
        let mut files = Vec::with_capacity(handles.len());
        for h in &handles {
            files.push(MnemeFile::open(h.clone())?);
        }
        Ok(MultiFileInvertedFile {
            device: Arc::clone(device),
            options,
            current_count: u64::MAX, // unknown: force a new file on insert
            files,
            handles,
            lookups: 0,
            recorder: Recorder::disabled(),
        })
    }

    /// Attaches a telemetry recorder to every file, present and future.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        for f in &mut self.files {
            f.attach_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// Handles of every file, for persistence.
    pub fn handles(&self) -> &[FileHandle] {
        &self.handles
    }
}

impl InvertedFileStore for MultiFileInvertedFile {
    fn fetch(&mut self, store_ref: u64) -> poir_inquery::Result<poir_inquery::RecordBytes> {
        self.lookups += 1;
        self.recorder.incr(Event::RecordLookup);
        let (slot, object) = Self::resolve(store_ref)?;
        let file = self.files.get_mut(slot).ok_or(CoreError::DanglingRef(store_ref))?;
        let bytes = file.get(object).map_err(CoreError::from)?;
        self.recorder.incr(Event::RecordDecoded);
        self.recorder.add(Event::RecordBytesDecoded, bytes.len() as u64);
        Ok(crate::mneme_store::to_record_bytes(bytes))
    }

    fn reserve(&mut self, store_refs: &[u64]) {
        for &r in store_refs {
            if let Ok((slot, object)) = Self::resolve(r) {
                if let Some(file) = self.files.get_mut(slot) {
                    file.reserve(&[object]);
                }
            }
        }
    }

    fn release_reservations(&mut self) {
        for f in &mut self.files {
            f.release_reservations();
        }
    }

    fn record_lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poir_storage::Device;

    fn records(n: u32) -> (Dictionary, Vec<(TermId, Vec<u8>)>) {
        let mut dict = Dictionary::new();
        let mut out = Vec::new();
        for i in 0..n {
            let id = dict.intern(&format!("term{i}"));
            out.push((id, vec![(i % 251) as u8; (i as usize % 300) + 1]));
        }
        (dict, out)
    }

    #[test]
    fn rolls_over_to_new_files() {
        let dev = Device::with_defaults();
        let (mut dict, recs) = records(1000);
        let options = MultiFileOptions { objects_per_file: 300, ..Default::default() };
        let mut store = MultiFileInvertedFile::build(&dev, options, &recs, &mut dict).unwrap();
        assert_eq!(store.file_count(), 4, "1000 records / 300 per file");
        for (term, bytes) in &recs {
            assert_eq!(&store.fetch(dict.entry(*term).store_ref).unwrap(), bytes);
        }
        assert_eq!(store.record_lookups(), 1000);
        assert!(store.total_size().unwrap() > 0);
    }

    #[test]
    fn single_file_when_budget_suffices() {
        let dev = Device::with_defaults();
        let (mut dict, recs) = records(100);
        let store =
            MultiFileInvertedFile::build(&dev, MultiFileOptions::default(), &recs, &mut dict)
                .unwrap();
        assert_eq!(store.file_count(), 1);
    }

    #[test]
    fn survives_reopen() {
        let dev = Device::with_defaults();
        let (mut dict, recs) = records(500);
        let options = MultiFileOptions { objects_per_file: 200, ..Default::default() };
        let handles;
        {
            let store =
                MultiFileInvertedFile::build(&dev, options.clone(), &recs, &mut dict).unwrap();
            handles = store.handles().to_vec();
        }
        let mut store = MultiFileInvertedFile::open(&dev, options, handles).unwrap();
        assert_eq!(store.file_count(), 3);
        for (term, bytes) in recs.iter().rev().take(50) {
            assert_eq!(&store.fetch(dict.entry(*term).store_ref).unwrap(), bytes);
        }
    }

    #[test]
    fn reservation_spans_files() {
        let dev = Device::with_defaults();
        let (mut dict, recs) = records(400);
        let options = MultiFileOptions { objects_per_file: 150, ..Default::default() };
        let mut store = MultiFileInvertedFile::build(&dev, options, &recs, &mut dict).unwrap();
        let refs: Vec<u64> = recs.iter().map(|(t, _)| dict.entry(*t).store_ref).collect();
        store.reserve(&refs);
        store.release_reservations();
        // References from different files resolve distinctly.
        let g0 = GlobalId::unpack(refs[0]).unwrap();
        let g_last = GlobalId::unpack(*refs.last().unwrap()).unwrap();
        assert_ne!(g0.file, g_last.file);
    }

    #[test]
    fn dangling_refs_error() {
        let dev = Device::with_defaults();
        let (mut dict, recs) = records(10);
        let mut store =
            MultiFileInvertedFile::build(&dev, MultiFileOptions::default(), &recs, &mut dict)
                .unwrap();
        // A reference into a file slot that does not exist.
        let bogus = GlobalId { file: FileSlot(9), object: ObjectId::from_raw(0).unwrap() }.pack();
        assert!(store.fetch(bogus).is_err());
    }
}
