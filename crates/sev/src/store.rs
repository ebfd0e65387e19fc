//! The SEV database.
//!
//! "The SEV report dataset resides in a MySQL database. The database
//! contains reports dating to January 2011. ... We use SQL queries to
//! analyze the SEV report dataset for our study." (§4.2)
//!
//! [`SevDb`] is the in-memory stand-in: an append-only table with stable
//! auto-increment ids. The query layer ([`crate::query`]) provides the
//! SQL-shaped operations.
//!
//! Beside each row the store keeps its derived keys: the year the
//! incident opened in and the device type its name parses to (§4.3.1).
//! Both are computed once, at insert, from [`SevRecord::year`] and
//! [`SevRecord::device_type`], so a query filters and groups on them
//! without a calendar conversion or a name parse per row per scan. The
//! store is append-only and its rows are reachable only by shared
//! reference, so a key cannot go stale.

use crate::record::SevRecord;
use crate::severity::SevLevel;
use dcnr_faults::RootCause;
use dcnr_sim::SimTime;
use dcnr_topology::DeviceType;

/// The keys every query filters and groups on, derived from one row at
/// insert.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SevKey {
    /// [`SevRecord::year`].
    pub(crate) year: i32,
    /// [`SevRecord::device_type`], `None` when the name does not parse.
    pub(crate) device_type: Option<DeviceType>,
}

/// An append-only store of SEV reports.
#[derive(Debug, Clone, Default)]
pub struct SevDb {
    records: Vec<SevRecord>,
    /// `keys[i]` is derived from `records[i]`.
    keys: Vec<SevKey>,
}

impl SevDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a new report, assigning the next id. Returns the id.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        severity: SevLevel,
        device_name: impl Into<String>,
        root_causes: Vec<RootCause>,
        opened_at: SimTime,
        resolved_at: SimTime,
        impact: impl Into<String>,
    ) -> u64 {
        self.insert_record(SevRecord::new(
            0,
            severity,
            device_name,
            root_causes,
            opened_at,
            resolved_at,
            impact,
        ))
    }

    /// Inserts a pre-built record, overwriting its id with the next
    /// auto-increment value. Returns the id.
    pub fn insert_record(&mut self, mut record: SevRecord) -> u64 {
        let id = self.records.len() as u64;
        record.id = id;
        self.keys.push(SevKey {
            year: record.year(),
            device_type: record.device_type().ok(),
        });
        self.records.push(record);
        id
    }

    /// Number of reports.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The report with the given id.
    pub fn get(&self, id: u64) -> Option<&SevRecord> {
        self.records.get(id as usize)
    }

    /// All reports in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &SevRecord> {
        self.records.iter()
    }

    /// All reports as a slice.
    pub fn records(&self) -> &[SevRecord] {
        &self.records
    }

    /// Every report beside its derived keys, in insertion order.
    pub(crate) fn keyed(&self) -> impl Iterator<Item = (&SevRecord, SevKey)> {
        self.records.iter().zip(self.keys.iter().copied())
    }
}

impl FromIterator<SevRecord> for SevDb {
    fn from_iter<I: IntoIterator<Item = SevRecord>>(iter: I) -> Self {
        let mut db = SevDb::new();
        for r in iter {
            db.insert_record(r);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(y: i32) -> SimTime {
        SimTime::from_date(y, 6, 1).unwrap()
    }

    #[test]
    fn ids_are_stable_and_sequential() {
        let mut db = SevDb::new();
        let a = db.insert(
            SevLevel::Sev3,
            "rsw.dc01.c000.u0000",
            vec![],
            t(2013),
            t(2013),
            "",
        );
        let b = db.insert(
            SevLevel::Sev2,
            "csw.dc01.c000.u0001",
            vec![],
            t(2014),
            t(2014),
            "",
        );
        assert_eq!((a, b), (0, 1));
        assert_eq!(db.get(0).unwrap().severity, SevLevel::Sev3);
        assert_eq!(db.get(1).unwrap().severity, SevLevel::Sev2);
        assert!(db.get(2).is_none());
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn insert_record_reassigns_id() {
        let mut db = SevDb::new();
        let r = SevRecord::new(
            999,
            SevLevel::Sev1,
            "core.dc01.x000.u0000",
            vec![],
            t(2015),
            t(2015),
            "",
        );
        let id = db.insert_record(r);
        assert_eq!(id, 0);
        assert_eq!(db.get(0).unwrap().id, 0);
    }

    #[test]
    fn from_iterator_collects() {
        let records = (0..5).map(|i| {
            SevRecord::new(
                i,
                SevLevel::Sev3,
                "rsw.dc01.c000.u0000",
                vec![],
                t(2011 + i as i32),
                t(2011 + i as i32),
                "",
            )
        });
        let db: SevDb = records.collect();
        assert_eq!(db.len(), 5);
        assert_eq!(db.iter().count(), 5);
        assert!(!db.is_empty());
    }
}
