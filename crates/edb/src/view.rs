//! The adversary's transcript: what the semi-honest server observes.
//!
//! [`AdversaryView`] is a *snapshot* type: the sharded
//! [`crate::server::ServerStorage`] assembles one on demand by merging its
//! per-table shards into the canonical ordered transcript (see
//! `ServerStorage::adversary_view`), and the privacy verifier in
//! `dpsync-core` consumes it without ever touching owner-side state.

use crate::leakage::{UpdateEvent, UpdatePattern};

/// One query observation in the adversary's transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryObservation {
    /// Monotone sequence number of the query.
    pub sequence: u64,
    /// Query kind label ("count", "group-by", "join", "select").
    pub kind: String,
    /// Number of ciphertexts the engine touched to answer (always leaked —
    /// the server hosts the computation).
    pub touched_records: u64,
    /// The response volume the server learns, if the leakage class reveals
    /// one (`None` for volume-hiding engines).
    pub observed_response_volume: Option<u64>,
}

/// Everything the semi-honest server observes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversaryView {
    update_pattern: UpdatePattern,
    queries: Vec<QueryObservation>,
    total_ciphertext_bytes: u64,
}

impl AdversaryView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles a view from an already-ordered transcript (used by the
    /// sharded server storage's merge path).
    pub fn from_parts(
        update_pattern: UpdatePattern,
        queries: Vec<QueryObservation>,
        total_ciphertext_bytes: u64,
    ) -> Self {
        Self {
            update_pattern,
            queries,
            total_ciphertext_bytes,
        }
    }

    /// Records an update (or the setup) of `volume` ciphertexts at `time`.
    pub fn observe_update(&mut self, time: u64, volume: u64, ciphertext_bytes: u64) {
        self.update_pattern.record(time, volume);
        self.total_ciphertext_bytes += ciphertext_bytes;
    }

    /// Records a query observation.
    pub fn observe_query(&mut self, observation: QueryObservation) {
        self.queries.push(observation);
    }

    /// The observed update pattern.
    pub fn update_pattern(&self) -> &UpdatePattern {
        &self.update_pattern
    }

    /// The observed query transcript.
    pub fn queries(&self) -> &[QueryObservation] {
        &self.queries
    }

    /// Total ciphertext bytes received so far.
    pub fn total_ciphertext_bytes(&self) -> u64 {
        self.total_ciphertext_bytes
    }

    /// The update events observed (convenience passthrough).
    pub fn update_events(&self) -> &[UpdateEvent] {
        self.update_pattern.events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_accumulates_updates_and_queries() {
        let mut view = AdversaryView::new();
        view.observe_update(0, 10, 950);
        view.observe_update(30, 2, 190);
        view.observe_query(QueryObservation {
            sequence: 0,
            kind: "count".into(),
            touched_records: 12,
            observed_response_volume: None,
        });
        assert_eq!(view.update_pattern().total_volume(), 12);
        assert_eq!(view.update_events().len(), 2);
        assert_eq!(view.queries().len(), 1);
        assert_eq!(view.total_ciphertext_bytes(), 1140);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut pattern = UpdatePattern::new();
        pattern.record(5, 7);
        let view = AdversaryView::from_parts(pattern.clone(), Vec::new(), 665);
        assert_eq!(view.update_pattern(), &pattern);
        assert_eq!(view.total_ciphertext_bytes(), 665);
        assert!(view.queries().is_empty());
    }
}
