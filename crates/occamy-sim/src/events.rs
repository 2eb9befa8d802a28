//! Cross-layer structured event tracing and Chrome `trace_event` export.
//!
//! One bounded ring buffer records everything an observer can ask for:
//! every instruction's pipeline stages (rename, issue, completion and
//! retirement, a gem5-`O3PipeView`-style stream that answers "why did
//! this instruction wait?") and what the *machine* did: phase
//! boundaries with their declared `<OI>`, lane-manager repartition
//! decisions, vector-length reconfigurations with their drain stalls,
//! rename-stall streaks, memory-hierarchy misses, and every transition
//! of the detection-and-recovery subsystem. Events are typed,
//! cycle-stamped and **zero-cost when disabled** (a single branch on
//! [`EventLog::is_enabled`]).
//!
//! [`to_chrome_trace`] exports the log as Chrome `trace_event` JSON — one
//! track per core plus dedicated tracks for the co-processor pipeline,
//! the lane manager, the memory hierarchy and the recovery subsystem —
//! loadable directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. The instruction stages also render as a text
//! pipeview and a Kanata log ([`crate::trace`]).
//!
//! # Truncation
//!
//! The ring buffer retains the most recent `capacity` events; older
//! events are evicted and counted in [`EventLog::dropped`]. Paired
//! span events whose `*Begin` was evicted render as instants from the
//! start of the retained window.

use std::collections::VecDeque;
use std::fmt::Write as _;

use mem_sim::{Cycle, ServiceLevel};

use crate::trace::lifecycles;

/// The timeline (Perfetto "thread") an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// Per-core events: phases, reconfigurations, rename stalls.
    Core(usize),
    /// The shared co-processor pipeline (instruction stages).
    Coproc,
    /// Lane-manager repartition decisions.
    LaneManager,
    /// Memory-hierarchy events (vector-cache / L2 misses).
    Memory,
    /// Detection & recovery: faults, rollbacks, quarantines, watchdog.
    Recovery,
}

impl Track {
    /// The Chrome-trace thread id for this track on a `cores`-core
    /// machine: cores are tids `1..=cores`, then the four shared tracks.
    pub fn tid(self, cores: usize) -> u64 {
        match self {
            Track::Core(c) => c as u64 + 1,
            Track::Coproc => cores as u64 + 1,
            Track::LaneManager => cores as u64 + 2,
            Track::Memory => cores as u64 + 3,
            Track::Recovery => cores as u64 + 4,
        }
    }
}

/// A pipeline stage an instruction passes through in the co-processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceStage {
    /// Renamed: physical registers allocated, ROB/IQ/LSU entry taken.
    Rename,
    /// Issued to an ExeBU or the LSU.
    Issue,
    /// Result produced (writeback / memory completion).
    Complete,
    /// Retired from the ROB.
    Retire,
}

impl std::fmt::Display for TraceStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TraceStage::Rename => "rename",
            TraceStage::Issue => "issue",
            TraceStage::Complete => "complete",
            TraceStage::Retire => "retire",
        };
        f.write_str(s)
    }
}

/// What happened. `*Begin`/`*End` pairs render as duration spans in the
/// Chrome export, and so does each instruction's run of
/// [`Stage`](EventKind::Stage) events; everything else renders as an
/// instant.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An instruction reached a pipeline stage (recorded on
    /// [`Track::Coproc`]).
    Stage {
        /// The issuing core.
        core: usize,
        /// The instruction's rename-order sequence number.
        seq: u64,
        /// The stage reached.
        stage: TraceStage,
        /// Disassembly of the instruction (recorded at rename only;
        /// empty for the later stages).
        disasm: String,
    },
    /// A phase opened: its `<OI>` write executed (Fig. 9 prologue).
    PhaseBegin {
        /// Declared issue intensity (instructions/byte).
        oi_issue: f64,
        /// Declared memory intensity (FLOPs/byte).
        oi_mem: f64,
    },
    /// The phase's closing `<OI> = 0` write executed.
    PhaseEnd,
    /// The renamer began stalling for lack of free physical registers.
    RenameStallBegin,
    /// The rename-stall streak ended.
    RenameStallEnd,
    /// `MSR <VL>` completed (after any pipeline-drain stall, §4.2.2).
    VlReconfig {
        /// Granules held before the write.
        from_granules: usize,
        /// Granules requested.
        to_granules: usize,
        /// Cycles the write waited for the pipeline to drain.
        drain_cycles: Cycle,
        /// Whether the reconfiguration was granted (`<status>`).
        ok: bool,
    },
    /// The lane manager published a new partition plan that changed at
    /// least one core's `<decision>`.
    Repartition {
        /// Monotonic replan epoch.
        epoch: usize,
        /// Per-core `<decision>` granule counts before the replan.
        old: Vec<u64>,
        /// Per-core `<decision>` granule counts after the replan.
        new: Vec<u64>,
    },
    /// A vector access missed the first-level (vector) cache.
    CacheMiss {
        /// The accessing core.
        core: usize,
        /// The level that ultimately served the access.
        level: ServiceLevel,
    },
    /// The residue check caught a corrupted lane result.
    FaultDetected {
        /// The victim core.
        core: usize,
        /// The faulty granule.
        granule: usize,
        /// Cycles from corruption to detection.
        latency: Cycle,
    },
    /// The machine rolled back to its last checkpoint.
    Rollback {
        /// The granule whose fault triggered the rollback.
        granule: usize,
        /// The checkpoint cycle the machine was restored to.
        to_cycle: Cycle,
        /// Architectural cycles discarded (to be re-executed).
        replayed: Cycle,
    },
    /// A granule entered quarantine (lazy drain toward retirement).
    QuarantineBegin {
        /// The quarantined granule.
        granule: usize,
    },
    /// The periodic self-test found a permanent fault on an idle granule.
    SelftestDetect {
        /// The faulty granule.
        granule: usize,
    },
    /// A drained granule retired from the machine.
    GranuleRetired {
        /// The retired granule.
        granule: usize,
    },
    /// The forward-progress watchdog tripped.
    WatchdogTrip {
        /// Consecutive stagnant cycles at the trip.
        stagnant_for: Cycle,
    },
}

/// One cycle-stamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The cycle the event was recorded.
    pub cycle: Cycle,
    /// The timeline it belongs to.
    pub track: Track,
    /// What happened.
    pub kind: EventKind,
}

/// A bounded ring buffer of [`Event`]s, zero-cost when disabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: VecDeque<Event>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl EventLog {
    /// A disabled log (records nothing).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled log retaining the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            events: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity: capacity.max(1),
            enabled: true,
            dropped: 0,
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled). At capacity the oldest
    /// event is evicted and counted in [`dropped`](Self::dropped).
    pub fn record(&mut self, event: Event) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One rendered Chrome-trace row, pre-serialization. Sorted by
/// `(tid, ts)` before rendering so timestamps are monotone within every
/// track.
struct Row {
    tid: u64,
    ts: Cycle,
    /// `Some(dur)` renders a complete span (`ph:"X"`); `None` an instant.
    dur: Option<Cycle>,
    name: String,
    /// Pre-rendered `"args"` object body (without braces), may be empty.
    args: String,
}

fn level_name(level: ServiceLevel) -> &'static str {
    match level {
        ServiceLevel::FirstLevel => "first-level",
        ServiceLevel::L2 => "miss-L2",
        ServiceLevel::Dram => "miss-DRAM",
    }
}

/// Converts one event into a row. Span pairing is handled by the caller;
/// this covers the instant kinds.
fn instant_row(e: &Event, cores: usize) -> Row {
    let tid = e.track.tid(cores);
    let (name, args) = match &e.kind {
        EventKind::VlReconfig { from_granules, to_granules, drain_cycles, ok } => (
            "vl-reconfig".to_owned(),
            format!(
                "\"from_granules\":{from_granules},\"to_granules\":{to_granules},\
                 \"drain_cycles\":{drain_cycles},\"ok\":{ok}"
            ),
        ),
        EventKind::Repartition { epoch, old, new } => {
            let fmt = |v: &[u64]| {
                let items: Vec<String> = v.iter().map(|g| g.to_string()).collect();
                format!("[{}]", items.join(","))
            };
            (
                "repartition".to_owned(),
                format!("\"epoch\":{epoch},\"old\":{},\"new\":{}", fmt(old), fmt(new)),
            )
        }
        EventKind::CacheMiss { core, level } => {
            (level_name(*level).to_owned(), format!("\"core\":{core}"))
        }
        EventKind::FaultDetected { core, granule, latency } => (
            "fault-detected".to_owned(),
            format!("\"core\":{core},\"granule\":{granule},\"latency\":{latency}"),
        ),
        EventKind::Rollback { granule, to_cycle, replayed } => (
            "rollback".to_owned(),
            format!("\"granule\":{granule},\"to_cycle\":{to_cycle},\"replayed\":{replayed}"),
        ),
        EventKind::QuarantineBegin { granule } => {
            ("quarantine-begin".to_owned(), format!("\"granule\":{granule}"))
        }
        EventKind::SelftestDetect { granule } => {
            ("selftest-detect".to_owned(), format!("\"granule\":{granule}"))
        }
        EventKind::GranuleRetired { granule } => {
            ("granule-retired".to_owned(), format!("\"granule\":{granule}"))
        }
        EventKind::WatchdogTrip { stagnant_for } => {
            ("watchdog-trip".to_owned(), format!("\"stagnant_for\":{stagnant_for}"))
        }
        // Span kinds are grouped or paired by the caller; an unmatched
        // End (its Begin was evicted from the ring) degrades to an instant.
        EventKind::Stage { stage, .. } => (stage.to_string(), String::new()),
        EventKind::PhaseBegin { .. } | EventKind::PhaseEnd => ("phase".to_owned(), String::new()),
        EventKind::RenameStallBegin | EventKind::RenameStallEnd => {
            ("rename-stall".to_owned(), String::new())
        }
    };
    Row { tid, ts: e.cycle, dur: None, name, args }
}

/// Exports the event log as Chrome `trace_event` JSON (the "JSON Array
/// Format" with thread-name metadata), loadable in Perfetto or
/// `chrome://tracing`. One cycle maps to one microsecond of trace time.
///
/// Tracks: one per core (`core0`, `core1`, …) carrying phase spans,
/// rename-stall spans and `<VL>` reconfigurations; `coproc` carrying one
/// span per recorded instruction (rename → retire); `lane-manager`
/// carrying repartition decisions; `memory` carrying cache misses; and
/// `recovery` carrying fault/rollback/quarantine/watchdog events.
pub fn to_chrome_trace(log: &EventLog, cores: usize) -> String {
    let lives = lifecycles(log);
    let mut rows: Vec<Row> = Vec::new();

    // Pair Begin/End kinds into spans. Per core there is at most one
    // open phase and one open rename-stall streak, so a single slot per
    // (core, kind) suffices.
    let mut last_machine_event = None;
    let mut open_phase: Vec<Option<(Cycle, String)>> = vec![None; cores];
    let mut open_stall: Vec<Option<Cycle>> = vec![None; cores];
    for e in log.events() {
        if matches!(e.kind, EventKind::Stage { .. }) {
            continue; // instruction spans are rendered from `lives` below
        }
        last_machine_event = Some(e.cycle);
        match (&e.kind, e.track) {
            (EventKind::PhaseBegin { oi_issue, oi_mem }, Track::Core(c)) if c < cores => {
                let args = format!("\"oi_issue\":{oi_issue},\"oi_mem\":{oi_mem}");
                open_phase[c] = Some((e.cycle, args));
            }
            (EventKind::PhaseEnd, Track::Core(c)) if c < cores => {
                let (start, args) = open_phase[c].take().unwrap_or((e.cycle, String::new()));
                rows.push(Row {
                    tid: e.track.tid(cores),
                    ts: start,
                    dur: Some(e.cycle.saturating_sub(start)),
                    name: "phase".to_owned(),
                    args,
                });
            }
            (EventKind::RenameStallBegin, Track::Core(c)) if c < cores => {
                open_stall[c] = Some(e.cycle);
            }
            (EventKind::RenameStallEnd, Track::Core(c)) if c < cores => {
                let start = open_stall[c].take().unwrap_or(e.cycle);
                rows.push(Row {
                    tid: e.track.tid(cores),
                    ts: start,
                    dur: Some(e.cycle.saturating_sub(start)),
                    name: "rename-stall".to_owned(),
                    args: String::new(),
                });
            }
            _ => rows.push(instant_row(e, cores)),
        }
    }
    // Spans still open at the end of the log extend to the last cycle:
    // the later of the last machine event and the last instruction stage.
    let last_cycle = last_machine_event.max(lives.iter().map(|l| l.last).max()).unwrap_or(0);
    for c in 0..cores {
        if let Some((start, args)) = open_phase[c].take() {
            rows.push(Row {
                tid: Track::Core(c).tid(cores),
                ts: start,
                dur: Some(last_cycle.saturating_sub(start)),
                name: "phase".to_owned(),
                args,
            });
        }
        if let Some(start) = open_stall[c].take() {
            rows.push(Row {
                tid: Track::Core(c).tid(cores),
                ts: start,
                dur: Some(last_cycle.saturating_sub(start)),
                name: "rename-stall".to_owned(),
                args: String::new(),
            });
        }
    }

    // One span per renamed instruction on the co-processor track, in
    // order of first appearance.
    for life in lives {
        // Instructions whose rename fell outside the retained window have
        // no disassembly; skip them like the pipeview does.
        if life.first_disasm.is_empty() {
            continue;
        }
        rows.push(Row {
            tid: Track::Coproc.tid(cores),
            ts: life.first,
            dur: Some(life.last - life.first),
            name: life.first_disasm.to_owned(),
            args: format!("\"core\":{},\"seq\":{}", life.core, life.seq),
        });
    }

    // Monotone timestamps within every track (stable: recording order
    // breaks ties).
    rows.sort_by_key(|r| (r.tid, r.ts));

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    emit(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"occamy-sim\"}}"
            .to_owned(),
        &mut out,
    );
    let mut names: Vec<(u64, String)> =
        (0..cores).map(|c| (Track::Core(c).tid(cores), format!("core{c}"))).collect();
    names.push((Track::Coproc.tid(cores), "coproc".to_owned()));
    names.push((Track::LaneManager.tid(cores), "lane-manager".to_owned()));
    names.push((Track::Memory.tid(cores), "memory".to_owned()));
    names.push((Track::Recovery.tid(cores), "recovery".to_owned()));
    for (tid, name) in names {
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
        );
    }
    for r in rows {
        let name = json_escape(&r.name);
        let args = if r.args.is_empty() { String::new() } else { format!(",\"args\":{{{}}}", r.args) };
        let line = match r.dur {
            Some(dur) => format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"{name}\"{args}}}",
                r.tid,
                r.ts,
                dur.max(1)
            ),
            None => format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\"s\":\"t\",\
                 \"name\":\"{name}\"{args}}}",
                r.tid, r.ts
            ),
        };
        emit(line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: Cycle, track: Track, kind: EventKind) -> Event {
        Event { cycle, track, kind }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::disabled();
        log.record(ev(0, Track::Coproc, EventKind::PhaseEnd));
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut log = EventLog::with_capacity(2);
        for i in 0..5 {
            log.record(ev(i, Track::Core(0), EventKind::PhaseEnd));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let cycles: Vec<Cycle> = log.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
    }

    #[test]
    fn chrome_trace_pairs_phase_spans() {
        let mut log = EventLog::with_capacity(16);
        log.record(ev(10, Track::Core(0), EventKind::PhaseBegin { oi_issue: 0.5, oi_mem: 0.25 }));
        log.record(ev(90, Track::Core(0), EventKind::PhaseEnd));
        let json = to_chrome_trace(&log, 2);
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":10,\"dur\":80"), "{json}");
        assert!(json.contains("\"oi_mem\":0.25"), "{json}");
        assert!(json.contains("\"name\":\"core0\""), "{json}");
    }

    #[test]
    fn unmatched_begin_extends_to_last_cycle() {
        let mut log = EventLog::with_capacity(16);
        log.record(ev(5, Track::Core(1), EventKind::RenameStallBegin));
        log.record(ev(40, Track::Recovery, EventKind::WatchdogTrip { stagnant_for: 7 }));
        let json = to_chrome_trace(&log, 2);
        assert!(json.contains("\"ts\":5,\"dur\":35"), "{json}");
        assert!(json.contains("watchdog-trip"), "{json}");
    }

    #[test]
    fn timestamps_are_monotone_per_track() {
        let mut log = EventLog::with_capacity(64);
        log.record(ev(50, Track::Core(0), EventKind::PhaseBegin { oi_issue: 1.0, oi_mem: 1.0 }));
        log.record(ev(60, Track::Memory, EventKind::CacheMiss { core: 0, level: ServiceLevel::L2 }));
        log.record(ev(70, Track::Core(0), EventKind::PhaseEnd));
        log.record(
            ev(80, Track::Memory, EventKind::CacheMiss { core: 1, level: ServiceLevel::Dram }),
        );
        let json = to_chrome_trace(&log, 2);
        // Extract (tid, ts) pairs in output order and check monotonicity.
        let mut last: Vec<(u64, u64)> = Vec::new();
        for line in json.lines().filter(|l| l.contains("\"ts\":")) {
            let grab = |key: &str| -> u64 {
                let at = line.find(key).unwrap() + key.len();
                line[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .unwrap()
            };
            let (tid, ts) = (grab("\"tid\":"), grab("\"ts\":"));
            if let Some(&(ptid, pts)) = last.iter().rev().find(|(t, _)| *t == tid) {
                assert!(ts >= pts, "track {ptid} went backwards: {pts} -> {ts}");
            }
            last.push((tid, ts));
        }
        assert!(!last.is_empty());
    }

    fn stage(cycle: Cycle, seq: u64, stage: TraceStage, disasm: &str) -> Event {
        let kind = EventKind::Stage { core: 0, seq, stage, disasm: disasm.into() };
        ev(cycle, Track::Coproc, kind)
    }

    #[test]
    fn instruction_stages_merge_onto_coproc_track() {
        let mut log = EventLog::with_capacity(16);
        log.record(stage(3, 7, TraceStage::Rename, "fadd z3, z1, z2"));
        log.record(ev(5, Track::Core(0), EventKind::RenameStallBegin));
        log.record(stage(9, 7, TraceStage::Retire, ""));
        let json = to_chrome_trace(&log, 2);
        assert!(json.contains("fadd z3, z1, z2"), "{json}");
        assert!(json.contains("\"ts\":3,\"dur\":6"), "{json}");
        assert!(json.contains("\"name\":\"coproc\""), "{json}");
        // The open stall extends to the last instruction stage.
        assert!(json.contains("\"ts\":5,\"dur\":4"), "{json}");
    }

    #[test]
    fn instruction_spans_with_equal_timestamps_keep_log_order() {
        let mut log = EventLog::with_capacity(16);
        log.record(stage(4, 9, TraceStage::Rename, "second-seq"));
        log.record(stage(4, 2, TraceStage::Rename, "first-seq"));
        let json = to_chrome_trace(&log, 1);
        let (a, b) = (json.find("second-seq").unwrap(), json.find("first-seq").unwrap());
        assert!(a < b, "spans must follow first appearance in the log: {json}");
    }

    #[test]
    fn instruction_stages_count_toward_dropped() {
        let mut log = EventLog::with_capacity(3);
        log.record(ev(1, Track::Core(0), EventKind::PhaseEnd));
        log.record(stage(2, 1, TraceStage::Rename, ""));
        log.record(stage(3, 1, TraceStage::Issue, ""));
        log.record(stage(4, 1, TraceStage::Complete, ""));
        assert_eq!(log.dropped(), 1, "one ring: a stage event evicts a machine event");
        log.record(stage(5, 1, TraceStage::Retire, ""));
        assert_eq!(log.dropped(), 2);
        assert!(log.events().all(|e| matches!(e.kind, EventKind::Stage { .. })));
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
