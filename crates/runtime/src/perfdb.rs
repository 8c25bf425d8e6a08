//! The Required-CUs table: the profiled per-kernel right-sizing database.
//!
//! KRISP right-sizes each kernel from offline profiles keyed by *(kernel
//! name, kernel size, input size)* — the paper found no runtime-only
//! predictor of the minimum-CU requirement (§IV-B1), so the full key is
//! needed. In production the table would ship with the accelerated
//! libraries' performance databases (as MIOpen already does); here the
//! `krisp` crate's offline profiler populates it.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use krisp_sim::KernelDesc;

use crate::error::KrispError;

/// One profiled entry, as serialized to disk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    name: String,
    grid_threads: u64,
    input_bytes: u64,
    min_cus: u16,
}

/// Profiled minimum-CU requirements keyed by (name, kernel size, input
/// size).
///
/// # Examples
///
/// ```
/// use krisp_runtime::RequiredCusTable;
/// use krisp_sim::KernelDesc;
///
/// let k = KernelDesc::new("gemm", 1.0e6, 24).with_grid_threads(4096);
/// let mut db = RequiredCusTable::new();
/// db.insert(&k, 24);
/// assert_eq!(db.lookup(&k), Some(24));
/// assert_eq!(db.lookup_or_full(&k, 60), 24);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequiredCusTable {
    /// Nested by name so the serving hot path ([`RequiredCusTable::lookup`],
    /// once per kernel launch) can probe by `&str` without cloning the
    /// kernel name into an owned `(String, u64, u64)` key.
    entries: HashMap<String, HashMap<(u64, u64), u16>>,
}

impl RequiredCusTable {
    /// Creates an empty table.
    pub fn new() -> RequiredCusTable {
        RequiredCusTable::default()
    }

    /// Records (or overwrites) a kernel's profiled minimum CUs, returning
    /// the previous value if any.
    ///
    /// # Panics
    ///
    /// Panics if `min_cus` is zero.
    pub fn insert(&mut self, kernel: &KernelDesc, min_cus: u16) -> Option<u16> {
        assert!(min_cus > 0, "a kernel needs at least one CU");
        let sizes = (kernel.grid_threads, kernel.input_bytes);
        // Probe by `&str` first, so a name already present (most of a
        // trace's kernels) costs no owned key.
        if let Some(by_size) = self.entries.get_mut(&*kernel.name) {
            return by_size.insert(sizes, min_cus);
        }
        self.entries
            .entry(kernel.name.to_string())
            .or_default()
            .insert(sizes, min_cus)
    }

    /// The profiled minimum CUs for a kernel, if present.
    pub fn lookup(&self, kernel: &KernelDesc) -> Option<u16> {
        self.entries
            .get(&*kernel.name)?
            .get(&(kernel.grid_threads, kernel.input_bytes))
            .copied()
    }

    /// The profiled minimum CUs, falling back to `full` for unprofiled
    /// kernels — the conservative choice (an unknown kernel gets the
    /// whole device, like the baseline).
    pub fn lookup_or_full(&self, kernel: &KernelDesc, full: u16) -> u16 {
        self.lookup(kernel).unwrap_or(full)
    }

    /// A validated lookup for serving: `Ok(None)` is an ordinary miss
    /// (legacy kernel — callers fall back to the full device, like the
    /// baseline), `Ok(Some(cus))` a usable profile, and
    /// [`KrispError::StalePerfDbEntry`] an entry claiming more CUs than
    /// the device has — a profile from different hardware that must not
    /// be trusted.
    ///
    /// # Errors
    ///
    /// Returns [`KrispError::StalePerfDbEntry`] when the profiled value
    /// exceeds `total_cus`.
    pub fn lookup_validated(
        &self,
        kernel: &KernelDesc,
        total_cus: u16,
    ) -> Result<Option<u16>, KrispError> {
        match self.lookup(kernel) {
            None => Ok(None),
            Some(cus) if cus <= total_cus => Ok(Some(cus)),
            Some(cus) => Err(KrispError::StalePerfDbEntry {
                kernel: kernel.name.to_string(),
                profiled: cus,
                total_cus,
            }),
        }
    }

    /// Number of profiled kernels.
    pub fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }

    /// True if nothing has been profiled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges another table into this one (later entries win).
    pub fn merge(&mut self, other: RequiredCusTable) {
        for (name, sizes) in other.entries {
            self.entries.entry(name).or_default().extend(sizes);
        }
    }

    /// Serializes the table to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut rows: Vec<Entry> = self
            .entries
            .iter()
            .flat_map(|(name, sizes)| {
                sizes.iter().map(|(&(grid, input), &min_cus)| Entry {
                    name: name.clone(),
                    grid_threads: grid,
                    input_bytes: input,
                    min_cus,
                })
            })
            .collect();
        rows.sort_by(|a, b| {
            (&a.name, a.grid_threads, a.input_bytes).cmp(&(&b.name, b.grid_threads, b.input_bytes))
        });
        serde_json::to_string_pretty(&rows).expect("entries are serializable")
    }

    /// Parses a table from JSON produced by [`RequiredCusTable::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a JSON error if the input is malformed.
    pub fn from_json(json: &str) -> Result<RequiredCusTable, serde_json::Error> {
        let rows: Vec<Entry> = serde_json::from_str(json)?;
        let mut table = RequiredCusTable::new();
        for e in rows {
            table
                .entries
                .entry(e.name)
                .or_default()
                .insert((e.grid_threads, e.input_bytes), e.min_cus);
        }
        Ok(table)
    }

    /// Writes the table to a file as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Loads a table from a JSON file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; malformed JSON is reported as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<RequiredCusTable> {
        let text = fs::read_to_string(path)?;
        RequiredCusTable::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl FromIterator<(KernelDesc, u16)> for RequiredCusTable {
    fn from_iter<I: IntoIterator<Item = (KernelDesc, u16)>>(iter: I) -> RequiredCusTable {
        let mut t = RequiredCusTable::new();
        for (k, cus) in iter {
            t.insert(&k, cus);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(name: &str, grid: u64) -> KernelDesc {
        KernelDesc::new(name, 1.0e6, 30).with_grid_threads(grid)
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = RequiredCusTable::new();
        assert!(db.is_empty());
        assert_eq!(db.insert(&kernel("a", 1), 10), None);
        assert_eq!(db.insert(&kernel("a", 1), 12), Some(10));
        assert_eq!(db.lookup(&kernel("a", 1)), Some(12));
        assert_eq!(db.lookup(&kernel("a", 2)), None);
        assert_eq!(db.lookup_or_full(&kernel("a", 2), 60), 60);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn key_includes_all_three_dimensions() {
        // §IV-B1: same name + size but different input size is a
        // different profile entry.
        let mut db = RequiredCusTable::new();
        let k1 = kernel("conv", 100).with_input_bytes(1024);
        let k2 = kernel("conv", 100).with_input_bytes(2048);
        db.insert(&k1, 10);
        db.insert(&k2, 50);
        assert_eq!(db.lookup(&k1), Some(10));
        assert_eq!(db.lookup(&k2), Some(50));
    }

    #[test]
    fn json_round_trip() {
        let mut db = RequiredCusTable::new();
        db.insert(&kernel("a", 1), 5);
        db.insert(&kernel("b", 2).with_input_bytes(7), 55);
        let json = db.to_json();
        let back = RequiredCusTable::from_json(&json).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("krisp_perfdb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        let db: RequiredCusTable = [(kernel("x", 9), 33)].into_iter().collect();
        db.save(&path).unwrap();
        assert_eq!(RequiredCusTable::load(&path).unwrap(), db);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_prefers_latest() {
        let mut a: RequiredCusTable = [(kernel("k", 1), 10)].into_iter().collect();
        let b: RequiredCusTable = [(kernel("k", 1), 20), (kernel("k", 2), 30)]
            .into_iter()
            .collect();
        a.merge(b);
        assert_eq!(a.lookup(&kernel("k", 1)), Some(20));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn validated_lookup_flags_stale_entries() {
        let mut db = RequiredCusTable::new();
        db.insert(&kernel("ok", 1), 30);
        db.insert(&kernel("stale", 1), 128); // profiled on bigger hardware
        assert_eq!(db.lookup_validated(&kernel("ok", 1), 60), Ok(Some(30)));
        assert_eq!(db.lookup_validated(&kernel("missing", 1), 60), Ok(None));
        assert_eq!(
            db.lookup_validated(&kernel("stale", 1), 60),
            Err(KrispError::StalePerfDbEntry {
                kernel: "stale".to_string(),
                profiled: 128,
                total_cus: 60,
            })
        );
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(RequiredCusTable::from_json("not json").is_err());
    }

    #[test]
    #[should_panic(expected = "at least one CU")]
    fn zero_cus_rejected() {
        RequiredCusTable::new().insert(&kernel("a", 1), 0);
    }
}
