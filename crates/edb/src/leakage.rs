//! Update-pattern leakage and the leakage classification of encrypted databases.
//!
//! * [`UpdatePattern`] is the paper's Definition 2: the transcript
//!   `{(t, |γ_t|)}` of update times and volumes the server observes.
//! * [`LeakageClass`] is the four-way classification of §6 (Table 3): what a
//!   database's *query* protocol reveals determines whether DP-Sync can hide
//!   dummy records from the adversary.
//! * [`LeakageProfile`] bundles the class with human-readable notes and the
//!   compatibility verdict, and [`catalog`] reproduces Table 3's inventory of
//!   published systems.

/// One observed update event: the time it happened and how many ciphertexts
/// it carried (the "update volume").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateEvent {
    /// Discrete time unit at which the update protocol ran.
    pub time: u64,
    /// Number of encrypted records uploaded (real + dummy — the server cannot
    /// tell them apart).
    pub volume: u64,
}

/// The update pattern `UpdtPatt(Σ, D) = {(t, |γ_t|)}` of Definition 2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdatePattern {
    events: Vec<UpdateEvent>,
}

impl UpdatePattern {
    /// Creates an empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an update of `volume` records at `time`.
    pub fn record(&mut self, time: u64, volume: u64) {
        self.events.push(UpdateEvent { time, volume });
    }

    /// The observed events in arrival order.
    pub fn events(&self) -> &[UpdateEvent] {
        &self.events
    }

    /// Number of updates observed.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no update has been observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of ciphertexts uploaded across all updates.
    pub fn total_volume(&self) -> u64 {
        self.events.iter().map(|e| e.volume).sum()
    }

    /// The volumes only, in arrival order (used by the privacy tester, which
    /// compares volume distributions between neighboring databases).
    pub fn volumes(&self) -> Vec<u64> {
        self.events.iter().map(|e| e.volume).collect()
    }

    /// The times at which updates occurred.
    pub fn times(&self) -> Vec<u64> {
        self.events.iter().map(|e| e.time).collect()
    }
}

/// The four leakage categories of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeakageClass {
    /// L-0: access-pattern and response-volume hiding.
    L0ResponseVolumeHiding,
    /// L-DP: reveals only differentially-private response volumes.
    LDpDifferentiallyPrivateVolume,
    /// L-1: hides access patterns but reveals exact response volumes.
    L1RevealResponseVolume,
    /// L-2: reveals the exact access pattern (and therefore volumes).
    L2RevealAccessPattern,
}

impl LeakageClass {
    /// Whether a database in this class can be plugged into DP-Sync without
    /// additional mitigation (§6).
    pub fn directly_compatible(self) -> bool {
        matches!(
            self,
            LeakageClass::L0ResponseVolumeHiding | LeakageClass::LDpDifferentiallyPrivateVolume
        )
    }

    /// Whether the class can be made compatible with extra measures (padding,
    /// pseudorandom transformation, ...). L-2 cannot.
    pub fn compatible_with_mitigation(self) -> bool {
        !matches!(self, LeakageClass::L2RevealAccessPattern)
    }

    /// The short label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            LeakageClass::L0ResponseVolumeHiding => "L-0",
            LeakageClass::LDpDifferentiallyPrivateVolume => "L-DP",
            LeakageClass::L1RevealResponseVolume => "L-1",
            LeakageClass::L2RevealAccessPattern => "L-2",
        }
    }
}

impl std::fmt::Display for LeakageClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A catalog entry describing a published encrypted database scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// System name as it appears in the paper.
    pub name: &'static str,
    /// Leakage class assigned in Table 3.
    pub class: LeakageClass,
    /// Short description of why it lands in that class.
    pub rationale: &'static str,
}

/// Reproduces the scheme inventory of Table 3.
pub fn catalog() -> Vec<CatalogEntry> {
    use LeakageClass::*;
    vec![
        CatalogEntry {
            name: "VLH/AVLH",
            class: L0ResponseVolumeHiding,
            rationale: "volume-hiding structured encryption",
        },
        CatalogEntry {
            name: "ObliDB",
            class: L0ResponseVolumeHiding,
            rationale: "oblivious query processing in SGX with padded outputs",
        },
        CatalogEntry {
            name: "SEAL (adjustable)",
            class: L0ResponseVolumeHiding,
            rationale: "adjustable oblivious index",
        },
        CatalogEntry {
            name: "Opaque",
            class: L0ResponseVolumeHiding,
            rationale: "oblivious distributed analytics",
        },
        CatalogEntry {
            name: "CSAGR19",
            class: L0ResponseVolumeHiding,
            rationale: "controllable leakage with padding",
        },
        CatalogEntry {
            name: "dp-MM",
            class: LDpDifferentiallyPrivateVolume,
            rationale: "differentially-private multimap volumes",
        },
        CatalogEntry {
            name: "Hermetic",
            class: LDpDifferentiallyPrivateVolume,
            rationale: "DP-padded oblivious operators",
        },
        CatalogEntry {
            name: "KKNO17",
            class: LDpDifferentiallyPrivateVolume,
            rationale: "DP access-pattern leakage",
        },
        CatalogEntry {
            name: "Crypt-epsilon",
            class: LDpDifferentiallyPrivateVolume,
            rationale: "DP query answers over encrypted data",
        },
        CatalogEntry {
            name: "AHKM19",
            class: LDpDifferentiallyPrivateVolume,
            rationale: "encrypted databases for differential privacy",
        },
        CatalogEntry {
            name: "Shrinkwrap",
            class: LDpDifferentiallyPrivateVolume,
            rationale: "DP intermediate result sizes",
        },
        CatalogEntry {
            name: "PPQED_a",
            class: L1RevealResponseVolume,
            rationale: "HE-based predicate evaluation reveals result sizes",
        },
        CatalogEntry {
            name: "StealthDB",
            class: L1RevealResponseVolume,
            rationale: "SGX row store reveals result volumes",
        },
        CatalogEntry {
            name: "SisoSPIR",
            class: L1RevealResponseVolume,
            rationale: "ORAM-based PIR reveals volumes",
        },
        CatalogEntry {
            name: "CryptDB",
            class: L2RevealAccessPattern,
            rationale: "deterministic/order-preserving encryption",
        },
        CatalogEntry {
            name: "Cipherbase",
            class: L2RevealAccessPattern,
            rationale: "TEE with plaintext-visible access patterns",
        },
        CatalogEntry {
            name: "Arx",
            class: L2RevealAccessPattern,
            rationale: "index traversal reveals access pattern",
        },
        CatalogEntry {
            name: "HardIDX",
            class: L2RevealAccessPattern,
            rationale: "SGX B-tree reveals search path",
        },
        CatalogEntry {
            name: "EnclaveDB",
            class: L2RevealAccessPattern,
            rationale: "enclave DB with observable memory access",
        },
    ]
}

/// A leakage profile for a concrete engine implementation in this workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakageProfile {
    /// Leakage class of the query protocol.
    pub class: LeakageClass,
    /// Whether the update protocol leaks anything beyond the update pattern
    /// (DP-Sync requires this to be `false` — P4 in §2).
    pub update_leaks_beyond_pattern: bool,
    /// Whether the scheme supports dummy records natively.
    pub native_dummy_support: bool,
}

impl LeakageProfile {
    /// Whether DP-Sync may be layered on this engine.
    pub fn dp_sync_compatible(&self) -> bool {
        self.class.directly_compatible() && !self.update_leaks_beyond_pattern
    }
}

/// The leakage a chosen *query plan* adds on top of the engine's profile.
///
/// Index maintenance never leaks (one entry per padded record), but an
/// indexed **read** reveals how many index entries the query's condition
/// fetched — a response-volume-shaped signal the full scan does not emit.
/// The planner tags every plan it produces so the analyst (and the privacy
/// harness) can account for exactly what each executed query declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanLeakage {
    /// The plan reveals nothing beyond the engine's baseline transcript (a
    /// full scan touches every stored ciphertext, a number the adversary
    /// already knows from the update pattern).
    TranscriptOnly,
    /// The plan reveals the number of index entries fetched for the query's
    /// condition — correlated with the condition's true selectivity.
    IndexedVolume,
}

impl PlanLeakage {
    /// Short label for reports and transcripts.
    pub fn label(self) -> &'static str {
        match self {
            PlanLeakage::TranscriptOnly => "transcript-only",
            PlanLeakage::IndexedVolume => "indexed-volume",
        }
    }
}

impl std::fmt::Display for PlanLeakage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_pattern_records_events_in_order() {
        let mut p = UpdatePattern::new();
        assert!(p.is_empty());
        p.record(0, 120);
        p.record(30, 4);
        p.record(60, 0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.total_volume(), 124);
        assert_eq!(p.times(), vec![0, 30, 60]);
        assert_eq!(p.volumes(), vec![120, 4, 0]);
        assert_eq!(
            p.events()[1],
            UpdateEvent {
                time: 30,
                volume: 4
            }
        );
    }

    #[test]
    fn compatibility_follows_the_paper() {
        assert!(LeakageClass::L0ResponseVolumeHiding.directly_compatible());
        assert!(LeakageClass::LDpDifferentiallyPrivateVolume.directly_compatible());
        assert!(!LeakageClass::L1RevealResponseVolume.directly_compatible());
        assert!(!LeakageClass::L2RevealAccessPattern.directly_compatible());
        assert!(LeakageClass::L1RevealResponseVolume.compatible_with_mitigation());
        assert!(!LeakageClass::L2RevealAccessPattern.compatible_with_mitigation());
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(LeakageClass::L0ResponseVolumeHiding.to_string(), "L-0");
        assert_eq!(
            LeakageClass::LDpDifferentiallyPrivateVolume.to_string(),
            "L-DP"
        );
        assert_eq!(LeakageClass::L1RevealResponseVolume.to_string(), "L-1");
        assert_eq!(LeakageClass::L2RevealAccessPattern.to_string(), "L-2");
    }

    #[test]
    fn catalog_covers_all_classes_and_the_two_evaluated_engines() {
        let cat = catalog();
        assert!(cat.len() >= 15);
        for class in [
            LeakageClass::L0ResponseVolumeHiding,
            LeakageClass::LDpDifferentiallyPrivateVolume,
            LeakageClass::L1RevealResponseVolume,
            LeakageClass::L2RevealAccessPattern,
        ] {
            assert!(
                cat.iter().any(|e| e.class == class),
                "missing class {class}"
            );
        }
        assert!(cat.iter().any(|e| e.name == "ObliDB"));
        assert!(cat.iter().any(|e| e.name == "Crypt-epsilon"));
    }

    #[test]
    fn plan_leakage_labels_are_distinct() {
        assert_eq!(PlanLeakage::TranscriptOnly.to_string(), "transcript-only");
        assert_eq!(PlanLeakage::IndexedVolume.to_string(), "indexed-volume");
        assert_ne!(PlanLeakage::TranscriptOnly, PlanLeakage::IndexedVolume);
    }

    #[test]
    fn profile_compatibility_requires_class_and_update_constraint() {
        let good = LeakageProfile {
            class: LeakageClass::L0ResponseVolumeHiding,
            update_leaks_beyond_pattern: false,
            native_dummy_support: true,
        };
        assert!(good.dp_sync_compatible());
        let leaky_update = LeakageProfile {
            update_leaks_beyond_pattern: true,
            ..good.clone()
        };
        assert!(!leaky_update.dp_sync_compatible());
        let weak_class = LeakageProfile {
            class: LeakageClass::L2RevealAccessPattern,
            ..good
        };
        assert!(!weak_class.dp_sync_compatible());
    }
}
