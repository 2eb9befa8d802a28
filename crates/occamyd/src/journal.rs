//! Write-ahead job journal: the durability backbone of a `--state-dir`
//! daemon.
//!
//! Every accepted job is recorded *before* its `accepted` reply is
//! released, and every terminal outcome is recorded when it is decided,
//! so a hard crash can lose at most work the client was never told was
//! accepted. On restart the journal is replayed: jobs with an
//! `accepted` record but no terminal record are re-enqueued
//! (requester-less — the submitting connections died with the old
//! process) and run to completion, re-establishing the exactly-once
//! contract.
//!
//! # Format
//!
//! One record per line, rendered with the deterministic compact JSON
//! writer: `{"crc":"<8 hex>","body":{...}}` where the CRC-32 covers the
//! compact rendering of `body`. The CRC guard means a torn tail (the
//! crash landed mid-`write`) or a bit-flipped line is *detected*, never
//! silently replayed: replay stops at the first invalid line and
//! reports how much it kept. A line whose CRC holds but whose body this
//! build cannot decode (a record from a build with a different job
//! schema) is intact, not torn: replay skips and counts it and goes on.
//! Appends go through a group-commit
//! discipline — records that gate a client-visible reply are fsync'd
//! before the reply is sent, and informational records ride along with
//! the next sync.
//!
//! # Compaction
//!
//! The journal grows by appending; once it exceeds
//! [`JournalConfig::max_bytes`] the service rewrites it with only the
//! records still needed for recovery (the `accepted` records of
//! incomplete jobs), via a temp file and an atomic rename — a crash
//! during compaction leaves either the old or the new journal, both
//! valid.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use bench::json::{self, Limits, Value};
use statecodec::crc32;

use crate::protocol::JobSpec;

/// Journal tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Size trigger for compaction: once the file exceeds this many
    /// bytes the service rewrites it with only recovery-relevant
    /// records.
    pub max_bytes: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { max_bytes: 4 * 1024 * 1024 }
    }
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job passed admission (queued, coalesced, or answered from
    /// cache). Written and fsync'd before the client sees `accepted`.
    Accepted {
        /// Submitting tenant.
        tenant: String,
        /// Client-chosen job id.
        id: String,
        /// The full job spec (its canonical key identifies the run).
        spec: JobSpec,
    },
    /// A worker picked the run up (informational; rides along with the
    /// next group commit).
    Started {
        /// The run's canonical key.
        key: String,
    },
    /// The run reached a terminal outcome.
    Completed {
        /// The run's canonical key.
        key: String,
        /// `ok`, an error tag (`panic`, `deadline`, `lane-fault`, …),
        /// `abandoned`, or `shed:<reason>`.
        outcome: String,
        /// Whether the payload came from the result cache rather than a
        /// fresh simulation (`ok` only).
        cached: bool,
    },
    /// Admission refused the job (audit only — a shed job needs no
    /// recovery).
    Shed {
        /// Submitting tenant.
        tenant: String,
        /// Client-chosen job id.
        id: String,
        /// The typed shed reason.
        kind: String,
    },
}

impl JournalRecord {
    fn body(&self) -> Value {
        let mut obj = Value::obj();
        match self {
            JournalRecord::Accepted { tenant, id, spec } => {
                obj.push("rec", Value::Str("accepted".into()))
                    .push("tenant", Value::Str(tenant.clone()))
                    .push("id", Value::Str(id.clone()))
                    .push("job", spec.to_value());
            }
            JournalRecord::Started { key } => {
                obj.push("rec", Value::Str("started".into())).push("key", Value::Str(key.clone()));
            }
            JournalRecord::Completed { key, outcome, cached } => {
                obj.push("rec", Value::Str("completed".into()))
                    .push("key", Value::Str(key.clone()))
                    .push("outcome", Value::Str(outcome.clone()))
                    .push("cached", Value::Bool(*cached));
            }
            JournalRecord::Shed { tenant, id, kind } => {
                obj.push("rec", Value::Str("shed".into()))
                    .push("tenant", Value::Str(tenant.clone()))
                    .push("id", Value::Str(id.clone()))
                    .push("kind", Value::Str(kind.clone()));
            }
        }
        obj
    }

    /// Renders the record as one CRC-guarded journal line (no trailing
    /// newline).
    pub fn to_line(&self) -> String {
        frame(&self.body())
    }

    /// Validates one journal line's CRC guard and returns its body.
    fn parse_line(line: &str) -> Option<Value> {
        unframe(line, 16)
    }

    /// Decodes a CRC-checked record body.
    fn from_body(body: &Value) -> Option<JournalRecord> {
        let rec = body.get("rec").and_then(Value::as_str)?;
        let string = |key: &str| body.get(key).and_then(Value::as_str).map(str::to_owned);
        match rec {
            "accepted" => Some(JournalRecord::Accepted {
                tenant: string("tenant")?,
                id: string("id")?,
                spec: JobSpec::from_value(body.get("job")?).ok()?,
            }),
            "started" => Some(JournalRecord::Started { key: string("key")? }),
            "completed" => Some(JournalRecord::Completed {
                key: string("key")?,
                outcome: string("outcome")?,
                cached: body.get("cached").and_then(Value::as_bool)?,
            }),
            "shed" => Some(JournalRecord::Shed {
                tenant: string("tenant")?,
                id: string("id")?,
                kind: string("kind")?,
            }),
            _ => None,
        }
    }
}

/// What a replay found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Valid records replayed.
    pub records: usize,
    /// Bytes of the file covered by valid records.
    pub valid_bytes: u64,
    /// Whether replay stopped early at an invalid line (torn tail or
    /// corruption); everything before it was kept.
    pub torn: bool,
    /// CRC-valid records skipped because this build cannot decode them
    /// (e.g. a job in an execution mode it no longer has). Their bytes
    /// count as valid: they are kept, not truncated.
    pub skipped: usize,
}

/// Replays journal bytes: valid records up to the first invalid line.
///
/// A crash can tear the final record mid-write; the CRC guard catches
/// the tear (at *any* byte offset) and replay keeps the clean prefix.
/// Intact records this build cannot decode are skipped and counted.
pub fn replay_bytes(bytes: &[u8]) -> (Vec<JournalRecord>, ReplayReport) {
    let mut records = Vec::new();
    let mut report = ReplayReport::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            // No newline: the tail was torn mid-write.
            report.torn = true;
            break;
        };
        let line = &rest[..nl];
        let Some(body) = std::str::from_utf8(line).ok().and_then(JournalRecord::parse_line) else {
            report.torn = true;
            break;
        };
        match JournalRecord::from_body(&body) {
            Some(record) => {
                records.push(record);
                report.records += 1;
            }
            None => report.skipped += 1,
        }
        offset += nl + 1;
        report.valid_bytes = offset as u64;
    }
    (records, report)
}

/// The open journal: an append-only file with group-commit syncing.
pub struct Journal {
    path: PathBuf,
    file: File,
    config: JournalConfig,
    bytes: u64,
    /// Records appended since the last fsync.
    pending: u32,
    /// Append/sync failures survived (durability degraded, service
    /// alive). Surfaced as `service.journal_errors`.
    errors: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replaying any existing
    /// records first. If the file has a torn tail, the tail is
    /// truncated away so new appends start at a clean line boundary.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures opening, reading, or truncating the
    /// file.
    pub fn open(
        path: &Path,
        config: JournalConfig,
    ) -> std::io::Result<(Journal, Vec<JournalRecord>, ReplayReport)> {
        let existing = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, report) = replay_bytes(&existing);
        if report.torn {
            // Drop the torn tail so the next append starts a valid line.
            let keep = &existing[..report.valid_bytes as usize];
            write_atomically(path, keep)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let journal = Journal {
            path: path.to_owned(),
            file,
            config,
            bytes: report.valid_bytes,
            pending: 0,
            errors: 0,
        };
        Ok((journal, records, report))
    }

    /// Appends one record (buffered in the OS; not yet durable). Errors
    /// are absorbed into [`Journal::errors`] — a full disk degrades
    /// durability, it must not take the service down.
    pub fn append(&mut self, record: &JournalRecord) {
        let mut line = record.to_line();
        line.push('\n');
        match self.file.write_all(line.as_bytes()) {
            Ok(()) => {
                self.bytes += line.len() as u64;
                self.pending += 1;
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Group commit: fsyncs everything appended since the last sync.
    /// Call before releasing a reply that promises durability
    /// (`accepted`, terminal outcomes); informational records appended
    /// in between ride along for free.
    pub fn sync(&mut self) {
        if self.pending == 0 {
            return;
        }
        match self.file.sync_data() {
            Ok(()) => self.pending = 0,
            Err(_) => self.errors += 1,
        }
    }

    /// Whether the size trigger says it is time to compact.
    pub fn should_compact(&self) -> bool {
        self.bytes > self.config.max_bytes
    }

    /// Rewrites the journal with only `live` records (the `accepted`
    /// records of still-incomplete jobs), via temp file + atomic
    /// rename. On failure the old journal stays in place and the error
    /// is absorbed.
    pub fn compact<'a>(&mut self, live: impl IntoIterator<Item = &'a JournalRecord>) {
        let mut content = String::new();
        for record in live {
            content.push_str(&record.to_line());
            content.push('\n');
        }
        if write_atomically(&self.path, content.as_bytes()).is_err() {
            self.errors += 1;
            return;
        }
        match OpenOptions::new().append(true).open(&self.path) {
            Ok(file) => {
                self.file = file;
                self.bytes = content.len() as u64;
                self.pending = 0;
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Journal size in bytes (valid content plus unsynced appends).
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Append/sync/compact failures survived so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

/// Renders `body` as one CRC-guarded record, `{"crc":"<8 hex>","body":...}`,
/// where the CRC-32 covers the compact rendering of `body`: the framing
/// of journal lines and of the result cache's disk files.
pub(crate) fn frame(body: &Value) -> String {
    let body = body.render_compact();
    format!("{FRAME_HEAD}{:08x}{FRAME_MID}{body}}}", crc32(body.as_bytes()))
}

/// The fixed bytes [`frame`] writes before and after the CRC; the body
/// follows, then a closing `}`.
const FRAME_HEAD: &str = "{\"crc\":\"";
const FRAME_MID: &str = "\",\"body\":";

/// Parses one [`frame`]d record (nested at most `max_depth` deep) and
/// returns its body if the CRC guard holds. The body's bytes are exactly
/// the ones [`frame`] sealed, so the CRC is checked over them as stored
/// and the body is parsed once.
pub(crate) fn unframe(text: &str, max_depth: usize) -> Option<Value> {
    if text.len() > crate::protocol::MAX_LINE_BYTES {
        return None;
    }
    let (stored, rest) = text.strip_prefix(FRAME_HEAD)?.split_at_checked(8)?;
    let body = rest.strip_prefix(FRAME_MID)?.strip_suffix('}')?;
    if stored != format!("{:08x}", crc32(body.as_bytes())) {
        return None;
    }
    // The body sits one level inside the frame's object.
    let max_depth = max_depth.checked_sub(1)?;
    let limits = Limits { max_bytes: crate::protocol::MAX_LINE_BYTES, max_depth };
    json::parse_limited(body, &limits).ok()
}

/// Writes `bytes` to `path` via a temp file, fsync, and atomic rename.
pub(crate) fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

/// A job the journal says was accepted but never finished: the restart
/// must run it to a terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// Canonical key of the run.
    pub key: String,
    /// Tenant of the first submission (quota accounting on re-enqueue).
    pub tenant: String,
    /// Job id of the first submission (reporting only).
    pub id: String,
    /// The spec to re-run.
    pub spec: JobSpec,
}

/// The recovery plan distilled from a replay: per-key state of every
/// journaled job.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Jobs with an `accepted` record but no terminal record, keyed by
    /// canonical key (duplicates collapse — one run serves them all).
    /// Order follows first appearance in the journal.
    pub incomplete: Vec<RecoveredJob>,
}

/// Distills a replayed record stream into the recovery plan.
pub fn plan_recovery(records: &[JournalRecord]) -> Recovery {
    let mut order: Vec<String> = Vec::new();
    let mut jobs: std::collections::HashMap<String, RecoveredJob> =
        std::collections::HashMap::new();
    let mut terminal: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for record in records {
        match record {
            JournalRecord::Accepted { tenant, id, spec } => {
                let key = spec.canonical_key();
                if !jobs.contains_key(&key) {
                    order.push(key.clone());
                    jobs.insert(
                        key.clone(),
                        RecoveredJob {
                            key,
                            tenant: tenant.clone(),
                            id: id.clone(),
                            spec: spec.clone(),
                        },
                    );
                }
            }
            JournalRecord::Completed { key, .. } => {
                terminal.insert(key);
            }
            JournalRecord::Started { .. } | JournalRecord::Shed { .. } => {}
        }
    }
    let incomplete = order
        .into_iter()
        .filter(|k| !terminal.contains(k.as_str()))
        .filter_map(|k| jobs.remove(&k))
        .collect();
    Recovery { incomplete }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> JobSpec {
        JobSpec { workloads: vec!["synth:2,1,2,64".into()], seed, ..JobSpec::default() }
    }

    fn sample_records() -> Vec<JournalRecord> {
        let a = spec(1);
        let b = spec(2);
        vec![
            JournalRecord::Accepted { tenant: "t".into(), id: "j1".into(), spec: a.clone() },
            JournalRecord::Started { key: a.canonical_key() },
            JournalRecord::Completed { key: a.canonical_key(), outcome: "ok".into(), cached: false },
            JournalRecord::Accepted { tenant: "t".into(), id: "j2".into(), spec: b },
            JournalRecord::Shed { tenant: "u".into(), id: "j3".into(), kind: "overloaded".into() },
        ]
    }

    fn render(records: &[JournalRecord]) -> Vec<u8> {
        let mut out = String::new();
        for r in records {
            out.push_str(&r.to_line());
            out.push('\n');
        }
        out.into_bytes()
    }

    #[test]
    fn records_round_trip_through_lines() {
        for record in sample_records() {
            let body = JournalRecord::parse_line(&record.to_line()).expect("crc");
            assert_eq!(JournalRecord::from_body(&body), Some(record));
        }
    }

    #[test]
    fn replay_keeps_the_clean_prefix_of_a_torn_tail() {
        let records = sample_records();
        let bytes = render(&records);
        let last_line_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        // Truncate at every byte offset inside the final record.
        for cut in last_line_start..bytes.len() - 1 {
            let (replayed, report) = replay_bytes(&bytes[..cut]);
            assert_eq!(replayed.len(), records.len() - 1, "cut at byte {cut}");
            assert_eq!(replayed, records[..records.len() - 1], "cut at byte {cut}");
            // Cutting exactly at the record boundary leaves a clean
            // file; any cut *inside* the record is a detected tear.
            assert_eq!(report.torn, cut > last_line_start, "cut at byte {cut}");
            assert_eq!(report.valid_bytes as usize, last_line_start);
        }
        // The intact file replays fully and cleanly.
        let (replayed, report) = replay_bytes(&bytes);
        assert_eq!(replayed, records);
        assert!(!report.torn);
    }

    #[test]
    fn replay_rejects_bitflips_via_the_crc_guard() {
        let records = sample_records();
        let mut bytes = render(&records);
        // Flip a byte inside the first record's body.
        let flip = bytes.iter().position(|&b| b == b':').map_or(10, |i| i + 12);
        bytes[flip] ^= 0x20;
        let (replayed, report) = replay_bytes(&bytes);
        assert!(replayed.is_empty());
        assert!(report.torn);
    }

    /// Re-renders `record` as a CRC-valid line whose job `mode` is
    /// `mode`: what a build with a different set of execution modes
    /// would have written.
    fn line_with_mode(record: &JournalRecord, mode: &str) -> String {
        let body = record.body().render_compact();
        let body = body.replace("\"mode\":\"timing\"", &format!("\"mode\":\"{mode}\""));
        assert!(body.contains(mode), "{body}");
        format!("{{\"crc\":\"{:08x}\",\"body\":{body}}}\n", crc32(body.as_bytes()))
    }

    #[test]
    fn replay_skips_intact_records_it_cannot_decode_and_never_truncates_them() {
        let records = sample_records();
        let old = JournalRecord::Accepted { tenant: "t".into(), id: "old".into(), spec: spec(9) };
        // An `accepted` record in the retired sampled mode, and one in a
        // mode no build ever had: both CRC-valid, neither decodable.
        let mut bytes = render(&records[..2]);
        for mode in ["sampled", "warp"] {
            bytes.extend_from_slice(line_with_mode(&old, mode).as_bytes());
        }
        bytes.extend_from_slice(&render(&records[2..]));

        let (replayed, report) = replay_bytes(&bytes);
        assert_eq!(replayed, records, "every decodable record replays, later ones included");
        assert_eq!(report.records, records.len());
        assert_eq!(report.skipped, 2);
        assert!(!report.torn);
        assert_eq!(report.valid_bytes as usize, bytes.len());

        // A reopen keeps the skipped lines: the file does not shrink.
        let dir = std::env::temp_dir().join(format!("occamyd_journal_skip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.log");
        std::fs::write(&path, &bytes).expect("write");
        let (journal, replayed, report) =
            Journal::open(&path, JournalConfig::default()).expect("open");
        assert_eq!(replayed, records);
        assert_eq!((report.skipped, report.torn), (2, false));
        assert_eq!(journal.len_bytes(), bytes.len() as u64);
        drop(journal);
        assert_eq!(std::fs::read(&path).expect("read"), bytes, "reopen must not truncate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_plan_finds_incomplete_jobs_and_collapses_duplicates() {
        let mut records = sample_records();
        // A duplicate submission of the incomplete job.
        records.push(JournalRecord::Accepted {
            tenant: "u".into(),
            id: "j9".into(),
            spec: spec(2),
        });
        let plan = plan_recovery(&records);
        assert_eq!(plan.incomplete.len(), 1, "job 1 completed, job 2 pending (once)");
        assert_eq!(plan.incomplete[0].spec.seed, 2);
        assert_eq!(plan.incomplete[0].tenant, "t", "first submission wins");
        assert_eq!(plan.incomplete[0].id, "j2");
    }

    #[test]
    fn open_append_reopen_round_trips_and_truncates_torn_tails() {
        let dir = std::env::temp_dir()
            .join(format!("occamyd_journal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.log");
        let _ = std::fs::remove_file(&path);

        let (mut journal, replayed, _) =
            Journal::open(&path, JournalConfig::default()).expect("open");
        assert!(replayed.is_empty());
        for record in sample_records() {
            journal.append(&record);
        }
        journal.sync();
        assert_eq!(journal.errors(), 0);
        drop(journal);

        // Tear the tail by appending garbage, then reopen.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"{\"crc\":\"00000000\",\"body\"");
        std::fs::write(&path, &bytes).expect("write");
        let (journal, replayed, report) =
            Journal::open(&path, JournalConfig::default()).expect("reopen");
        assert_eq!(replayed, sample_records());
        assert!(report.torn);
        assert_eq!(journal.len_bytes(), report.valid_bytes);
        drop(journal);

        // The torn tail was truncated away: a third open is clean.
        let (_, replayed, report) = Journal::open(&path, JournalConfig::default()).expect("clean");
        assert_eq!(replayed.len(), sample_records().len());
        assert!(!report.torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_only_live_records() {
        let dir = std::env::temp_dir()
            .join(format!("occamyd_journal_compact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.log");
        let _ = std::fs::remove_file(&path);

        let (mut journal, _, _) =
            Journal::open(&path, JournalConfig { max_bytes: 64 }).expect("open");
        for record in sample_records() {
            journal.append(&record);
        }
        journal.sync();
        assert!(journal.should_compact(), "tiny budget triggers compaction");
        let live = [sample_records()[3].clone()];
        journal.compact(live.iter());
        assert!(!journal.should_compact() || journal.len_bytes() <= 64 * 4);
        drop(journal);

        let (_, replayed, report) =
            Journal::open(&path, JournalConfig::default()).expect("reopen");
        assert_eq!(replayed, live);
        assert!(!report.torn);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
