//! Instruction-lifecycle views of the event log (a gem5-`O3PipeView`-
//! style facility).
//!
//! When the event log is enabled on a [`Machine`](crate::Machine), the
//! co-processor records one [`EventKind::Stage`] event per pipeline stage
//! per instruction: rename, issue, completion and retirement.
//! [`lifecycles`] groups those events by instruction once; every
//! instruction view renders from that grouping: [`render_pipeview`] (one
//! text line per instruction with stage-relative timing — the fastest way
//! to see *why* an instruction waited), [`to_kanata`] (the Konata
//! viewer's log format) and the `coproc` track of
//! [`to_chrome_trace`](crate::to_chrome_trace).

use std::collections::HashMap;
use std::fmt::Write as _;

use mem_sim::Cycle;

use crate::events::{EventKind, EventLog, TraceStage};

/// One instruction's [`Stage`](EventKind::Stage) events in a log,
/// grouped by `(core, seq)`.
pub(crate) struct Life<'a> {
    pub(crate) core: usize,
    pub(crate) seq: u64,
    /// The cycle of each stage's latest record: rename, issue, complete,
    /// retire.
    stamps: [Option<Cycle>; 4],
    /// The earliest and latest cycle over all its records.
    pub(crate) first: Cycle,
    pub(crate) last: Cycle,
    /// The first and the latest non-empty disassembly (they differ only
    /// when a rollback re-renamed the sequence number).
    pub(crate) first_disasm: &'a str,
    disasm: &'a str,
}

impl Life<'_> {
    fn stamp(&self, stage: TraceStage) -> Option<Cycle> {
        self.stamps[stage as usize]
    }
}

/// Groups the log's instruction stages by `(core, seq)`, in order of
/// each instruction's first appearance in the log.
pub(crate) fn lifecycles(log: &EventLog) -> Vec<Life<'_>> {
    let mut index: HashMap<(usize, u64), usize> = HashMap::new();
    let mut lives: Vec<Life<'_>> = Vec::new();
    for e in log.events() {
        let EventKind::Stage { core, seq, stage, disasm } = &e.kind else { continue };
        let i = *index.entry((*core, *seq)).or_insert_with(|| {
            lives.push(Life {
                core: *core,
                seq: *seq,
                stamps: [None; 4],
                first: e.cycle,
                last: e.cycle,
                first_disasm: "",
                disasm: "",
            });
            lives.len() - 1
        });
        let life = &mut lives[i];
        life.stamps[*stage as usize] = Some(e.cycle);
        life.first = life.first.min(e.cycle);
        life.last = life.last.max(e.cycle);
        if !disasm.is_empty() {
            if life.first_disasm.is_empty() {
                life.first_disasm = disasm;
            }
            life.disasm = disasm;
        }
    }
    lives
}

/// [`lifecycles`] in `(core, seq)` order, with the earliest stage stamp
/// (the views' time origin).
fn by_instruction(log: &EventLog) -> (Vec<Life<'_>>, Cycle) {
    let mut lives = lifecycles(log);
    lives.sort_unstable_by_key(|l| (l.core, l.seq));
    let t0 = lives.iter().flat_map(|l| l.stamps.iter().flatten()).min().copied().unwrap_or(0);
    (lives, t0)
}

/// Formats the log's instruction stages as one line per instruction:
///
/// ```text
/// seq    core  disasm                        R..I.....C...X
/// ```
///
/// where `R`/`I`/`C`/`X` mark rename/issue/complete/retire and dots are
/// waiting cycles.
pub fn render_pipeview(log: &EventLog) -> String {
    let (lives, t0) = by_instruction(log);
    if lives.is_empty() {
        return String::from("(no renamed instructions in trace window)\n");
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:>6} {:>4}  {:<34} pipeline (from cycle {t0})", "seq", "core", "instruction");
    for life in &lives {
        let mut timeline = String::new();
        let mut cursor = None::<Cycle>;
        for (stage, mark) in [
            (TraceStage::Rename, 'R'),
            (TraceStage::Issue, 'I'),
            (TraceStage::Complete, 'C'),
            (TraceStage::Retire, 'X'),
        ] {
            if let Some(cycle) = life.stamp(stage) {
                if let Some(prev) = cursor {
                    for _ in prev + 1..cycle {
                        timeline.push('.');
                    }
                }
                timeline.push(mark);
                cursor = Some(cycle);
            }
        }
        let mut disasm = life.disasm.to_owned();
        if disasm.chars().count() > 34 {
            disasm = disasm.chars().take(31).collect::<String>() + "...";
        }
        let _ = writeln!(out, "{:>6} {:>4}  {:<34} {timeline}", life.seq, life.core, disasm);
    }
    out
}

/// Exports the log's instruction stages in the [Kanata] log format,
/// viewable in the Konata pipeline visualizer (the de-facto viewer for
/// gem5 `O3PipeView` logs). Each renamed instruction becomes one row with
/// `R`/`I`/`C` stage segments; the retire event closes the row.
///
/// Instructions that never renamed inside the retained window are
/// skipped.
///
/// [Kanata]: https://github.com/shioyadan/Konata
pub fn to_kanata(log: &EventLog) -> String {
    let (lives, t0) = by_instruction(log);
    let mut out = String::from("Kanata\t0004\n");
    let _ = writeln!(out, "C=\t{t0}");

    // Events must be emitted in cycle order with relative C ticks.
    let mut commands: Vec<(Cycle, String)> = Vec::new();
    for (row, life) in lives.iter().enumerate() {
        let Some(renamed) = life.stamp(TraceStage::Rename) else { continue };
        let (id, seq, core) = (row as u64, life.seq, life.core);
        commands.push((renamed, format!("I\t{id}\t{seq}\t{core}")));
        commands.push((renamed, format!("L\t{id}\t0\t{}", life.disasm)));
        commands.push((renamed, format!("S\t{id}\t0\tRn")));
        if let Some(issued) = life.stamp(TraceStage::Issue) {
            commands.push((issued, format!("S\t{id}\t0\tEx")));
        }
        if let Some(done) = life.stamp(TraceStage::Complete) {
            commands.push((done, format!("S\t{id}\t0\tWb")));
        }
        if let Some(end) = life.stamp(TraceStage::Retire).or(life.stamp(TraceStage::Complete)) {
            commands.push((end, format!("R\t{id}\t{seq}\t0")));
        }
    }
    commands.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut now = t0;
    for (cycle, cmd) in commands {
        if cycle > now {
            let _ = writeln!(out, "C\t{}", cycle - now);
            now = cycle;
        }
        let _ = writeln!(out, "{cmd}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Event, Track};

    fn record(log: &mut EventLog, cycle: Cycle, seq: u64, stage: TraceStage) {
        let disasm = format!("inst{seq}");
        let kind = EventKind::Stage { core: 0, seq, stage, disasm };
        log.record(Event { cycle, track: Track::Coproc, kind });
    }

    #[test]
    fn ring_evicts_the_oldest_stages() {
        let mut log = EventLog::with_capacity(2);
        for seq in 1..=3 {
            record(&mut log, seq, seq, TraceStage::Rename);
        }
        assert_eq!(log.len(), 2);
        let lives = lifecycles(&log);
        assert_eq!(lives.iter().map(|l| l.seq).collect::<Vec<_>>(), [2, 3]);
    }

    #[test]
    fn pipeview_orders_stages() {
        let mut log = EventLog::with_capacity(64);
        record(&mut log, 10, 7, TraceStage::Rename);
        record(&mut log, 12, 7, TraceStage::Issue);
        record(&mut log, 16, 7, TraceStage::Complete);
        record(&mut log, 17, 7, TraceStage::Retire);
        let view = render_pipeview(&log);
        assert!(view.contains("inst7"), "{view}");
        let line = view.lines().nth(1).unwrap();
        let r = line.find('R').unwrap();
        let i = line.find('I').unwrap();
        let c = line.find('C').unwrap();
        let x = line.find('X').unwrap();
        assert!(r < i && i < c && c < x, "{line}");
        assert!(line.ends_with("R.I...CX"), "{line}");
    }

    #[test]
    fn machine_events_do_not_show_in_instruction_views() {
        let mut log = EventLog::with_capacity(8);
        log.record(Event { cycle: 3, track: Track::Core(0), kind: EventKind::PhaseEnd });
        assert!(render_pipeview(&log).contains("no renamed"));
        assert_eq!(to_kanata(&log), "Kanata\t0004\nC=\t0\n");
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert!(render_pipeview(&EventLog::with_capacity(8)).contains("no renamed"));
    }

    #[test]
    fn kanata_export_has_header_rows_and_relative_ticks() {
        let mut log = EventLog::with_capacity(64);
        record(&mut log, 10, 7, TraceStage::Rename);
        record(&mut log, 12, 7, TraceStage::Issue);
        record(&mut log, 16, 7, TraceStage::Complete);
        record(&mut log, 17, 7, TraceStage::Retire);
        record(&mut log, 11, 8, TraceStage::Rename);
        record(&mut log, 13, 8, TraceStage::Issue);
        record(&mut log, 14, 8, TraceStage::Complete);
        let text = to_kanata(&log);
        assert!(text.starts_with("Kanata\t0004\n"), "{text}");
        assert!(text.contains("C=\t10"), "base cycle: {text}");
        assert!(text.contains("L\t0\t0\tinst7"), "{text}");
        assert!(text.contains("S\t0\t0\tEx"), "{text}");
        // Retire closes each row; the unretired row 1 closes at complete.
        assert_eq!(text.matches("R\t").count(), 2, "{text}");
        // Relative ticks only ever advance.
        let mut sum = 0u64;
        for line in text.lines().filter(|l| l.starts_with("C\t")) {
            sum += line[2..].parse::<u64>().unwrap();
        }
        assert_eq!(sum, 17 - 10, "ticks cover the window: {text}");
    }

    #[test]
    fn kanata_export_of_empty_trace_is_just_the_header() {
        let text = to_kanata(&EventLog::with_capacity(8));
        assert!(text.starts_with("Kanata\t0004\n"));
        assert_eq!(text.lines().count(), 2, "{text}");
    }
}
