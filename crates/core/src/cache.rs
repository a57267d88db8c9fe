//! The owner's local cache σ.
//!
//! The cache is the lightweight staging area between record arrival and
//! synchronization (§3.2.1).  It supports exactly the three operations the
//! paper defines — `len(σ)`, `write(σ, r)` and `read(σ, n)` — where a read of
//! more records than are cached pops everything and reports how many dummy
//! records the caller must add to reach `n`.
//!
//! Reads drain in FIFO order, which is what makes DP-Sync satisfy the strong
//! "consistent eventually" property P3.

use dpsync_edb::Row;
use std::collections::VecDeque;

/// The result of a cache read.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRead {
    /// Real records popped from the cache, in drain order.
    pub records: Vec<Row>,
    /// Number of dummy records the caller must append to reach the requested
    /// read size.
    pub dummies_needed: u64,
}

impl CacheRead {
    /// Total number of records (real + dummy) this read will synchronize.
    pub fn total(&self) -> u64 {
        self.records.len() as u64 + self.dummies_needed
    }
}

/// The owner's local cache.
#[derive(Debug, Clone, Default)]
pub struct LocalCache {
    queue: VecDeque<Row>,
}

impl LocalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// `len(σ)`: number of records currently cached.
    pub fn len(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `write(σ, r)`: appends a record.
    pub fn write(&mut self, row: Row) {
        self.queue.push_back(row);
    }

    /// Writes a batch of records in arrival order.
    pub fn write_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) {
        for row in rows {
            self.write(row);
        }
    }

    /// `read(σ, n)`: pops up to `n` records, oldest first; if fewer than `n`
    /// are cached, pops everything and reports the dummy deficit.
    pub fn read(&mut self, n: u64) -> CacheRead {
        let take = (n.min(self.queue.len() as u64)) as usize;
        let mut records = Vec::with_capacity(take);
        for _ in 0..take {
            records.push(self.queue.pop_front().expect("length checked above"));
        }
        CacheRead {
            dummies_needed: n - records.len() as u64,
            records,
        }
    }

    /// A non-destructive view of the cached rows in storage order.
    pub fn peek(&self) -> impl Iterator<Item = &Row> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsync_edb::Value;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i)])
    }

    #[test]
    fn write_and_len() {
        let mut cache = LocalCache::new();
        assert!(cache.is_empty());
        cache.write(row(1));
        cache.write_all([row(2), row(3)]);
        assert_eq!(cache.len(), 3);
        assert!(!cache.is_empty());
    }

    #[test]
    fn fifo_read_preserves_arrival_order() {
        let mut cache = LocalCache::new();
        cache.write_all([row(1), row(2), row(3), row(4)]);
        let read = cache.read(2);
        assert_eq!(read.records, vec![row(1), row(2)]);
        assert_eq!(read.dummies_needed, 0);
        assert_eq!(read.total(), 2);
        assert_eq!(cache.len(), 2);
        // The remaining records are still in order.
        let rest = cache.read(2);
        assert_eq!(rest.records, vec![row(3), row(4)]);
    }

    #[test]
    fn oversized_read_reports_dummy_deficit() {
        let mut cache = LocalCache::new();
        cache.write_all([row(1), row(2)]);
        let read = cache.read(5);
        assert_eq!(read.records.len(), 2);
        assert_eq!(read.dummies_needed, 3);
        assert_eq!(read.total(), 5);
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_read_is_a_noop() {
        let mut cache = LocalCache::new();
        cache.write(row(1));
        let read = cache.read(0);
        assert!(read.records.is_empty());
        assert_eq!(read.dummies_needed, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut cache = LocalCache::new();
        cache.write_all([row(1), row(2)]);
        assert_eq!(cache.peek().count(), 2);
        assert_eq!(cache.len(), 2);
    }
}
