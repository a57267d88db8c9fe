//! Concrete encrypted-database engines.
//!
//! The paper evaluates DP-Sync on two systems drawn from different leakage
//! groups (§8): ObliDB (L-0, oblivious query processing inside SGX) and
//! Crypt-ε (L-DP, crypto-assisted differential privacy).  Both are one type,
//! [`base::Engine`], which holds the storage/decryption plumbing, the one
//! read step of every `Π_Query` path and the one protocol impl; an engine is
//! that type plus its [`base::ReleaseRule`] and constructors:
//!
//! * [`oblidb::ObliDbEngine`] — exact answers, oblivious full-scan cost,
//!   supports joins, reveals nothing about response volumes.
//! * [`crypte::CryptEpsilonEngine`] — DP-noised answers (per-query budget),
//!   heavier per-record cost, aggregates only (no joins, no selections),
//!   reveals only differentially-private response volumes.

pub mod base;
pub mod crypte;
pub mod oblidb;

pub use crypte::CryptEpsilonEngine;
pub use oblidb::ObliDbEngine;

use crate::backend::{StorageBackend, StorageError};
use crate::sogdb::SecureOutsourcedDatabase;
use dpsync_crypto::MasterKey;
use std::sync::Arc;

/// Which encrypted-database engine hosts the outsourced data.
///
/// Lives next to the engines so every layer above — the `dpsync-core`
/// simulation driver, the `dpsync-bench` experiment harness, the examples —
/// selects engines (and their storage backend) through one type instead of
/// each reinventing the dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The ObliDB-like engine (L-0).
    ObliDb,
    /// The Crypt-ε-like engine (L-DP).
    CryptEpsilon,
}

impl EngineKind {
    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::ObliDb => "ObliDB",
            EngineKind::CryptEpsilon => "Crypt-epsilon",
        }
    }

    /// Both engines, in the order the paper presents them.
    pub const ALL: [EngineKind; 2] = [EngineKind::CryptEpsilon, EngineKind::ObliDb];

    /// Builds the engine with in-memory ciphertext storage.
    pub fn build(self, master: &MasterKey) -> Box<dyn SecureOutsourcedDatabase> {
        match self {
            EngineKind::ObliDb => Box::new(ObliDbEngine::new(master)),
            EngineKind::CryptEpsilon => Box::new(CryptEpsilonEngine::new(master)),
        }
    }

    /// Builds the engine over an explicit storage backend.
    pub fn build_with_backend(
        self,
        master: &MasterKey,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Box<dyn SecureOutsourcedDatabase>, StorageError> {
        Ok(match self {
            EngineKind::ObliDb => Box::new(ObliDbEngine::with_backend(master, backend)?),
            EngineKind::CryptEpsilon => {
                Box::new(CryptEpsilonEngine::with_backend(master, backend)?)
            }
        })
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    #[test]
    fn engine_kind_builds_and_labels() {
        assert_eq!(EngineKind::ObliDb.to_string(), "ObliDB");
        assert_eq!(EngineKind::CryptEpsilon.label(), "Crypt-epsilon");
        assert_eq!(EngineKind::ALL.len(), 2);
        let master = MasterKey::from_bytes([1u8; 32]);
        for kind in EngineKind::ALL {
            let engine = kind.build(&master);
            let via_backend = kind
                .build_with_backend(&master, Arc::new(MemoryBackend::new()))
                .unwrap();
            assert_eq!(engine.name(), via_backend.name());
        }
    }
}
