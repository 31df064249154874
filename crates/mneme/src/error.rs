//! Error type for the Mneme persistent object store.

use std::fmt;

use crate::id::{ObjectId, PoolId};

/// Errors surfaced by Mneme operations.
#[derive(Debug)]
pub enum MnemeError {
    /// The object id is syntactically invalid (bad slot) or was never
    /// allocated in this file.
    NoSuchObject(ObjectId),
    /// The referenced pool does not exist in this file.
    NoSuchPool(PoolId),
    /// The object was deleted.
    ObjectDeleted(ObjectId),
    /// The file's 2^28 object-identifier space is exhausted; a new file must
    /// be allocated (Section 3.2 of the paper).
    IdSpaceExhausted,
    /// An object exceeds the pool's maximum object size.
    ObjectTooLarge { len: usize, max: usize },
    /// The file content is corrupt or was written by an incompatible
    /// version.
    Corrupt(String),
    /// An error from the storage substrate.
    Storage(poir_storage::StorageError),
}

impl fmt::Display for MnemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnemeError::NoSuchObject(id) => write!(f, "no such object {id:?}"),
            MnemeError::NoSuchPool(p) => write!(f, "no such pool {p:?}"),
            MnemeError::ObjectDeleted(id) => write!(f, "object {id:?} was deleted"),
            MnemeError::IdSpaceExhausted => write!(f, "file object-id space (2^28) exhausted"),
            MnemeError::ObjectTooLarge { len, max } => {
                write!(f, "object of {len} bytes exceeds pool maximum {max}")
            }
            MnemeError::Corrupt(msg) => write!(f, "corrupt mneme file: {msg}"),
            MnemeError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for MnemeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MnemeError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<poir_storage::StorageError> for MnemeError {
    fn from(e: poir_storage::StorageError) -> Self {
        MnemeError::Storage(e)
    }
}

/// Result alias for Mneme operations.
pub type Result<T> = std::result::Result<T, MnemeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_the_offender() {
        let e = MnemeError::ObjectTooLarge { len: 10, max: 4 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('4'));
        assert!(MnemeError::IdSpaceExhausted.to_string().contains("2^28"));
    }

    #[test]
    fn storage_errors_convert() {
        let s = poir_storage::StorageError::UnknownFile(3);
        let m: MnemeError = s.into();
        assert!(matches!(m, MnemeError::Storage(_)));
        assert!(std::error::Error::source(&m).is_some());
    }
}
