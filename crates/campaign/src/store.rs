//! The durable checkpoint store: one JSONL file per campaign directory.
//!
//! Every completed (or failed) cell appends one self-describing line to
//! `cells.jsonl`, keyed by a content hash of the cell's spec string. A
//! re-launched campaign loads the store, keeps the cells whose keys match
//! and whose payloads still decode, and re-runs only the rest — so an
//! interrupted figure sweep resumes instead of starting over, and its
//! recovery point objective is one cell, not "everything".
//!
//! Format (`picl-campaign-v1`):
//!
//! ```text
//! {"schema": "picl-campaign-v1"}
//! {"key": "9f86d081884c7d65", "spec": "...", "status": "done", "payload": {...}}
//! {"key": "a1b2c3d4e5f60789", "spec": "...", "status": "failed", "message": "..."}
//! ```
//!
//! Later lines win, so a re-run of a previously failed cell simply appends
//! its fresh verdict. Corrupt or stale lines are skipped (and counted),
//! never fatal: the worst case is re-running a cell whose record was lost.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use picl_telemetry::json::{escape, validate_json, Value};

/// The schema tag written as the store's header line.
pub const STORE_SCHEMA: &str = "picl-campaign-v1";

/// Name of the checkpoint file inside a campaign directory.
pub const STORE_FILE: &str = "cells.jsonl";

/// A content-hash key identifying one cell spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u64);

impl CellKey {
    /// Hashes a canonical spec string (FNV-1a, 64-bit). Deterministic
    /// across runs, platforms, and thread counts — the resume contract.
    pub fn of(spec: &str) -> CellKey {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in spec.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        CellKey(h)
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A record loaded from (or about to enter) the store.
#[derive(Debug, Clone)]
pub enum StoredStatus {
    /// The cell completed; its encoded payload line follows.
    Done(Value),
    /// The cell failed (panic or error); re-run on resume.
    Failed(String),
    /// The cell hit its wall-clock timeout; re-run on resume.
    TimedOut,
}

/// Classification of one line on disk.
enum Line {
    Header,
    Record(CellKey, StoredStatus),
    Corrupt,
}

/// The append-only checkpoint store for one campaign directory.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    file: std::fs::File,
    /// Last-line-wins view of every record on disk.
    records: HashMap<CellKey, StoredStatus>,
    /// Lines that failed validation on load (skipped, not fatal).
    skipped_lines: usize,
}

impl CheckpointStore {
    /// Opens (or creates) the store under `dir`, loading every existing
    /// record. The directory is created if missing.
    ///
    /// # Errors
    ///
    /// Returns a message if the directory or file cannot be created or
    /// read. Corrupt *lines* are skipped and counted, not errors.
    pub fn open(dir: &Path) -> Result<CheckpointStore, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create campaign dir {}: {e}", dir.display()))?;
        let path = dir.join(STORE_FILE);
        let mut records = HashMap::new();
        let mut skipped_lines = 0usize;
        let fresh = !path.exists();
        let mut torn_tail = false;
        if !fresh {
            let contents = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            torn_tail = !contents.is_empty() && !contents.ends_with('\n');
            for line in contents.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match Self::parse_line(line) {
                    Line::Record(key, status) => {
                        records.insert(key, status);
                    }
                    Line::Header => {}
                    Line::Corrupt => skipped_lines += 1,
                }
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        if fresh {
            writeln!(file, "{{\"schema\": \"{STORE_SCHEMA}\"}}")
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        } else if torn_tail {
            // End the torn line, so the next record starts on its own
            // line instead of being glued onto the fragment.
            writeln!(file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(CheckpointStore {
            path,
            file,
            records,
            skipped_lines,
        })
    }

    /// Classifies one store line: the schema header, a cell record, or
    /// something corrupt/unrecognized (skipped, counted, never fatal).
    fn parse_line(line: &str) -> Line {
        fn record(line: &str) -> Option<(CellKey, StoredStatus)> {
            let v = Value::parse(line).ok()?;
            let key = u64::from_str_radix(v.get("key")?.as_str()?, 16).ok()?;
            let status = match v.get("status")?.as_str()? {
                "done" => StoredStatus::Done(v.get("payload")?.clone()),
                "failed" => StoredStatus::Failed(
                    v.get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown failure")
                        .to_owned(),
                ),
                "timeout" => StoredStatus::TimedOut,
                _ => return None,
            };
            Some((CellKey(key), status))
        }
        if let Ok(v) = Value::parse(line) {
            if v.get("schema").is_some() {
                return Line::Header;
            }
        }
        match record(line) {
            Some((key, status)) => Line::Record(key, status),
            None => Line::Corrupt,
        }
    }

    /// The record for `key`, if any line on disk carried it.
    pub fn lookup(&self, key: CellKey) -> Option<&StoredStatus> {
        self.records.get(&key)
    }

    /// Number of completed cells currently in the store.
    pub fn done_count(&self) -> usize {
        self.records
            .values()
            .filter(|s| matches!(s, StoredStatus::Done(_)))
            .count()
    }

    /// Lines skipped on load because they failed to parse.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Path of the underlying JSONL file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a completed cell. `payload_json` must be one JSON value on
    /// one line (the executor validates it before writing).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or if `payload_json` is not valid
    /// single-line JSON.
    pub fn record_done(
        &mut self,
        key: CellKey,
        spec: &str,
        payload_json: &str,
    ) -> Result<(), String> {
        validate_json(payload_json).map_err(|e| format!("cell payload is not valid JSON: {e}"))?;
        if payload_json.contains('\n') {
            return Err("cell payload must be single-line JSON".into());
        }
        let line = format!(
            "{{\"key\": \"{key}\", \"spec\": \"{}\", \"status\": \"done\", \"payload\": {payload_json}}}",
            escape(spec)
        );
        self.append(&line)?;
        self.records
            .insert(key, StoredStatus::Done(Value::parse(payload_json)?));
        Ok(())
    }

    /// Appends a failure record so a later resume knows to re-run the cell
    /// (and an operator knows why it died).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn record_failed(&mut self, key: CellKey, spec: &str, message: &str) -> Result<(), String> {
        let line = format!(
            "{{\"key\": \"{key}\", \"spec\": \"{}\", \"status\": \"failed\", \"message\": \"{}\"}}",
            escape(spec),
            escape(message)
        );
        self.append(&line)?;
        self.records
            .insert(key, StoredStatus::Failed(message.to_owned()));
        Ok(())
    }

    /// Appends a timeout record.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn record_timeout(&mut self, key: CellKey, spec: &str) -> Result<(), String> {
        let line = format!(
            "{{\"key\": \"{key}\", \"spec\": \"{}\", \"status\": \"timeout\"}}",
            escape(spec)
        );
        self.append(&line)?;
        self.records.insert(key, StoredStatus::TimedOut);
        Ok(())
    }

    fn append(&mut self, line: &str) -> Result<(), String> {
        debug_assert!(validate_json(line).is_ok(), "store line must be JSON");
        writeln!(self.file, "{line}")
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot append to {}: {e}", self.path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_telemetry::json::validate_jsonl;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("picl_campaign_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn keys_are_deterministic_and_spec_sensitive() {
        assert_eq!(CellKey::of("abc"), CellKey::of("abc"));
        assert_ne!(CellKey::of("abc"), CellKey::of("abd"));
        assert_eq!(CellKey::of("abc").to_string().len(), 16);
    }

    #[test]
    fn round_trips_done_failed_and_timeout() {
        let dir = temp_dir("roundtrip");
        let k1 = CellKey::of("cell one");
        let k2 = CellKey::of("cell two");
        let k3 = CellKey::of("cell three");
        {
            let mut store = CheckpointStore::open(&dir).unwrap();
            store.record_done(k1, "cell one", r#"{"n": 7}"#).unwrap();
            store
                .record_failed(k2, "cell two", "boom \"quoted\"")
                .unwrap();
            store.record_timeout(k3, "cell three").unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.skipped_lines(), 0);
        assert_eq!(store.done_count(), 1);
        match store.lookup(k1) {
            Some(StoredStatus::Done(v)) => assert_eq!(v.field_u64("n"), Ok(7)),
            other => panic!("unexpected: {other:?}"),
        }
        match store.lookup(k2) {
            Some(StoredStatus::Failed(msg)) => assert!(msg.contains("boom")),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(store.lookup(k3), Some(StoredStatus::TimedOut)));
        assert!(store.lookup(CellKey::of("never ran")).is_none());

        // The file itself is valid JSONL with the schema header.
        let contents = std::fs::read_to_string(store.path()).unwrap();
        assert!(contents.starts_with(&format!("{{\"schema\": \"{STORE_SCHEMA}\"}}")));
        validate_jsonl(&contents).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_lines_win() {
        let dir = temp_dir("laterwins");
        let key = CellKey::of("cell");
        {
            let mut store = CheckpointStore::open(&dir).unwrap();
            store
                .record_failed(key, "cell", "first attempt died")
                .unwrap();
            store.record_done(key, "cell", "42").unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(matches!(store.lookup(key), Some(StoredStatus::Done(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        let key = CellKey::of("good");
        {
            let mut store = CheckpointStore::open(&dir).unwrap();
            store.record_done(key, "good", "1").unwrap();
        }
        // Simulate a torn write: a truncated trailing line.
        let path = dir.join(STORE_FILE);
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"key\": \"dead\", \"status\": \"do");
        std::fs::write(&path, contents).unwrap();

        let mut store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.skipped_lines(), 1);
        assert!(matches!(store.lookup(key), Some(StoredStatus::Done(_))));

        // A record appended after the torn tail survives the next load.
        let next = CellKey::of("next");
        store.record_done(next, "next", "2").unwrap();
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.skipped_lines(), 1);
        assert!(matches!(store.lookup(next), Some(StoredStatus::Done(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_multiline_payloads() {
        let dir = temp_dir("multiline");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let err = store
            .record_done(CellKey::of("x"), "x", "{\n}")
            .unwrap_err();
        assert!(err.contains("single-line"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
