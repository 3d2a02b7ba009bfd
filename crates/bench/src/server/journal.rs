//! Crash-consistency journal for the sweep service: an append-only,
//! CRC-framed, fsync'd record of every accepted request that has not yet
//! completed.
//!
//! `sweepd` appends an *accept* record when a run or figure job is
//! admitted to the queue, and a *done* record when its flight completes
//! terminally. After a SIGKILL, the accepts without a matching done are
//! exactly the in-flight work the daemon owed its clients;
//! [`Journal::replay`] reconstructs them (tolerating the torn final
//! record an append mid-crash leaves behind) and recovery re-executes
//! each one — resuming from a parked checkpoint when the store has one,
//! recomputing deterministically otherwise. Either way the result is
//! bit-identical to the run the crash interrupted.
//!
//! Each record is one [`binio::frame`] (`ACJL`, no header fields, `u32`
//! payload length of at most 1 MiB); the first frame that does not
//! validate ends the trusted prefix. The payload is one JSON object:
//! `{"op":"accept","key":K,"request":R}`
//! (`R` is the encoded protocol request, stored as a string so replay
//! reuses the strict [`protocol`] parser end-to-end) or
//! `{"op":"done","key":K}`.

use super::protocol::{self, Request};
use crate::failpoint;
use binio::frame::{Format, LenWidth};
use binio::ByteReader;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use telemetry::json::{self, ObjectBuilder};

/// Layout version of the record framing.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// One journal record: **A**da**C**omm **J**ourna**L**, no header fields.
/// The payload bound is far above any real request line, and a cheap check
/// against reading a corrupt length as gigabytes.
const RECORD: Format = Format {
    name: "journal record",
    magic: *b"ACJL",
    version: JOURNAL_FORMAT_VERSION,
    len: LenWidth::U32,
    max_payload: 1 << 20,
};

/// The live, appendable journal a running daemon holds.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<fs::File>,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (unwritable directory, ...).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records that the job keyed `key` (re-creatable from `request`) was
    /// accepted and is now owed a completion. Durable before return
    /// (fsync).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers treat a failed append as
    /// a warning (the request still runs — only its crash-recoverability
    /// is degraded).
    pub fn append_accept(&self, key: &str, request: &Request) -> io::Result<()> {
        let mut o = ObjectBuilder::new();
        o.str_field("op", "accept");
        o.str_field("key", key);
        o.str_field("request", &protocol::encode_request(request));
        self.append(o.finish().as_bytes())
    }

    /// Records that the flight keyed `key` completed terminally (result
    /// or terminal error): its accept record is discharged.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (same best-effort contract as
    /// [`Journal::append_accept`]).
    pub fn append_done(&self, key: &str) -> io::Result<()> {
        let mut o = ObjectBuilder::new();
        o.str_field("op", "done");
        o.str_field("key", key);
        self.append(o.finish().as_bytes())
    }

    /// Appends one CRC-framed record and fsyncs.
    fn append(&self, payload: &[u8]) -> io::Result<()> {
        if failpoint::fire("server.journal.io_error") {
            return Err(io::Error::other("injected journal append failure"));
        }
        let frame = RECORD.encode(|_| {}, payload);
        let mut file = self.file.lock().expect("journal file poisoned");
        file.write_all(&frame)?;
        file.sync_all()?;
        telemetry::counter("server.journal_appends").inc();
        telemetry::counter("server.journal_bytes").add(frame.len() as u64);
        Ok(())
    }
}

/// What [`Journal::replay`] found on disk.
#[derive(Debug, Default)]
pub struct Replay {
    /// Accepted-but-not-completed jobs, in acceptance order: the work the
    /// crashed daemon still owed.
    pub pending: Vec<(String, Request)>,
    /// Valid records decoded (accepts and dones).
    pub records: u64,
    /// Whether the file ended in a torn (incomplete or corrupt) frame —
    /// the expected signature of a crash mid-append. Everything before
    /// the tear is trusted; the tear itself is discarded.
    pub torn_tail: bool,
    /// Structurally valid frames whose payload failed to parse (foreign
    /// or stale contents) — skipped, never fatal.
    pub rejected: u64,
}

impl Journal {
    /// Reads the journal at `path` and reconstructs the pending job set.
    /// Never fails and never panics: a missing file is an empty replay, a
    /// torn tail stops the scan (flagged), and an undecodable payload is
    /// counted and skipped.
    pub fn replay(path: &Path) -> Replay {
        let mut replay = Replay::default();
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(_) => return replay,
        };
        let mut pending: Vec<(String, Request)> = Vec::new();
        let mut r = ByteReader::new(&bytes);
        while !r.is_empty() {
            let Ok(payload) = RECORD.read(&mut r, |_| Ok(())) else {
                replay.torn_tail = true;
                break;
            };
            replay.records += 1;
            match decode_payload(payload) {
                Some(RecordOp::Accept { key, request }) => {
                    // Re-accepting a key already pending dedups (the
                    // daemon single-flights, so this only happens when a
                    // done record was lost to the tear).
                    if !pending.iter().any(|(k, _)| *k == key) {
                        pending.push((key, request));
                    }
                }
                Some(RecordOp::Done { key }) => pending.retain(|(k, _)| *k != key),
                None => replay.rejected += 1,
            }
        }
        replay.pending = pending;
        replay
    }
}

/// One decoded record payload.
enum RecordOp {
    Accept { key: String, request: Request },
    Done { key: String },
}

/// Decodes one payload into its operation; `None` rejects it.
fn decode_payload(payload: &[u8]) -> Option<RecordOp> {
    let text = std::str::from_utf8(payload).ok()?;
    let value = json::parse(text).ok()?;
    let obj = value.as_obj()?;
    let op = obj.get("op")?.as_str()?;
    let key = obj.get("key")?.as_str()?.to_string();
    match op {
        "accept" => {
            let line = obj.get("request")?.as_str()?;
            let request = protocol::parse_request(line).ok()?;
            Some(RecordOp::Accept { key, request })
        }
        "done" => Some(RecordOp::Done { key }),
        _ => None,
    }
}

/// Removes the journal at `path` (recovery replayed it; a fresh file
/// starts the next epoch). Best-effort.
pub fn discard(path: &Path) {
    let _ = fs::remove_file(path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::protocol::{Command, RunRequest};

    fn run_request(tau: u64) -> Request {
        Request {
            id: None,
            cmd: Command::Run(RunRequest {
                scenario: "concept".into(),
                scheduler: "fixed".into(),
                tau,
                budget: Some((40.0, 10.0)),
                deadline_ms: None,
                panic: false,
            }),
        }
    }

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("adacomm_journal_{tag}_{}.log", std::process::id()))
    }

    #[test]
    fn accept_done_replay_roundtrip() {
        let path = temp_journal("roundtrip");
        let _ = fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        journal.append_accept("key-a", &run_request(1)).unwrap();
        journal.append_accept("key-b", &run_request(2)).unwrap();
        journal
            .append_accept(
                "figure|fig01",
                &Request {
                    id: None,
                    cmd: Command::Figure {
                        name: "fig01".into(),
                    },
                },
            )
            .unwrap();
        journal.append_done("key-a").unwrap();

        let replay = Journal::replay(&path);
        assert_eq!(replay.records, 4);
        assert!(!replay.torn_tail);
        assert_eq!(replay.rejected, 0);
        let keys: Vec<&str> = replay.pending.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["key-b", "figure|fig01"]);
        assert_eq!(replay.pending[0].1, run_request(2));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated_and_earlier_records_survive() {
        let path = temp_journal("torn");
        let _ = fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        journal.append_accept("whole", &run_request(1)).unwrap();
        journal.append_accept("torn", &run_request(2)).unwrap();
        drop(journal);

        // Crash mid-append: cut the file anywhere inside the last record.
        let bytes = fs::read(&path).unwrap();
        for cut in 1..16 {
            fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();
            let replay = Journal::replay(&path);
            assert!(replay.torn_tail, "cut {cut} must flag the tear");
            assert_eq!(replay.records, 1, "cut {cut}");
            assert_eq!(replay.pending.len(), 1, "cut {cut}");
            assert_eq!(replay.pending[0].0, "whole", "cut {cut}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_records_reject_and_missing_file_is_empty() {
        let path = temp_journal("corrupt");
        let _ = fs::remove_file(&path);
        let empty = Journal::replay(&path);
        assert_eq!(empty.records, 0);
        assert!(empty.pending.is_empty());

        // A bit flip anywhere in a record must never yield a wrong
        // pending set silently: the CRC stops the scan at the flip.
        let journal = Journal::open(&path).unwrap();
        journal.append_accept("only", &run_request(3)).unwrap();
        drop(journal);
        let good = fs::read(&path).unwrap();
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            let replay = Journal::replay(&path);
            assert!(
                replay.pending.is_empty() || replay.pending[0].0 == "only",
                "flip at byte {byte} produced a foreign pending key"
            );
            assert!(
                replay.torn_tail || replay.rejected > 0 || replay.pending.is_empty(),
                "flip at byte {byte} decoded silently"
            );
        }
        let _ = fs::remove_file(&path);
    }
}
