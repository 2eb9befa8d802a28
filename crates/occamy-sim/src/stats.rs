//! Statistics: per-core counters, per-phase issue rates, and the
//! per-1000-cycle timelines used by Fig. 2 and Fig. 14.

use em_simd::OperationalIntensity;
use mem_sim::Cycle;

/// Counters for one scalar core and its share of the co-processor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoreStats {
    /// Vector compute instructions issued to ExeBUs.
    pub vector_compute_issued: u64,
    /// Vector memory instructions issued to the LSU.
    pub vector_mem_issued: u64,
    /// Scalar instructions executed.
    pub scalar_executed: u64,
    /// Lane-cycles actually busy (lanes × occupancy, integrated).
    pub busy_lane_cycles: f64,
    /// Lane-cycles allocated to this core (its `<VL>` integrated over
    /// time, in lanes).
    pub alloc_lane_cycles: u64,
    /// Cycles the renamer stalled for lack of free physical registers
    /// (the Fig. 13 metric).
    pub rename_stall_cycles: u64,
    /// Cycles attributed to the partition monitor (Fig. 15, "Monitoring
    /// Lane Partitioning").
    pub monitor_cycles: f64,
    /// Cycles attributed to vector-length reconfiguration, including
    /// pipeline-drain stalls (Fig. 15, "Reconfiguring Vector Length").
    pub reconfig_cycles: f64,
    /// Cycle at which the workload executed its `Halt` (None = running).
    pub finish_cycle: Option<Cycle>,
    /// Completed phases, in order.
    pub phases: Vec<PhaseStats>,
}

impl CoreStats {
    /// Charges `cycles` cycles of rename stalled on register-block
    /// exhaustion.
    pub(crate) fn charge_rename_stall(&mut self, cycles: Cycle) {
        self.rename_stall_cycles += cycles;
    }

    /// Total vector instructions issued (compute + memory) — the
    /// numerator of the issue-rate metric, exposed for serializers.
    pub fn total_vector_issued(&self) -> u64 {
        self.vector_compute_issued + self.vector_mem_issued
    }

    /// SIMD issue rate over the core's whole run — vector instructions
    /// (compute + memory) per cycle, the Fig. 2(f) metric.
    pub fn issue_rate(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.total_vector_issued() as f64 / cycles as f64
        }
    }

    /// Average lanes held over a runtime of `cycles` (the `<VL>`
    /// integral divided by time), the "avg lanes held" report line.
    pub fn avg_lanes_held(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.alloc_lane_cycles as f64 / cycles as f64
        }
    }
}

/// Issue statistics for one phase of a workload (delimited by `<OI>`
/// writes), the rows of Fig. 2(f) and Fig. 14(c).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// The phase's operational intensity as declared in the prologue.
    pub oi: OperationalIntensity,
    /// Cycle at which the phase's `<OI>` write executed.
    pub start_cycle: Cycle,
    /// Cycle at which the phase's closing `<OI> = 0` write executed
    /// (`None` while in flight).
    pub end_cycle: Option<Cycle>,
    /// Vector instructions (compute + memory) issued during the phase.
    pub compute_issued: u64,
    /// Granules held at the end of the phase's initial configuration.
    pub configured_granules: usize,
}

impl PhaseStats {
    /// The phase's SIMD issue rate (compute instructions per cycle).
    pub fn issue_rate(&self) -> f64 {
        match self.end_cycle {
            Some(end) if end > self.start_cycle => {
                self.compute_issued as f64 / (end - self.start_cycle) as f64
            }
            _ => 0.0,
        }
    }

    /// Phase duration in cycles (zero while still running).
    pub fn duration(&self) -> Cycle {
        self.end_cycle.map_or(0, |e| e.saturating_sub(self.start_cycle))
    }
}

/// One bucket of the execution timeline (default: 1000 cycles), matching
/// the x-axis of Fig. 2(b)–(e) and Fig. 14(b).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineBucket {
    /// First cycle covered by this bucket.
    pub start_cycle: Cycle,
    /// Average busy lanes per core over the bucket.
    pub busy_lanes: Vec<f64>,
    /// Average allocated lanes per core over the bucket.
    pub alloc_lanes: Vec<f64>,
}

/// Accumulates per-bucket lane-occupancy series.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    bucket_cycles: Cycle,
    cores: usize,
    buckets: Vec<TimelineBucket>,
    cur_busy: Vec<f64>,
    cur_alloc: Vec<u64>,
    cur_count: Cycle,
}

impl Timeline {
    /// Creates a timeline with the given bucket width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_cycles` is zero.
    pub fn new(cores: usize, bucket_cycles: Cycle) -> Self {
        assert!(bucket_cycles > 0, "bucket width must be positive");
        Timeline {
            bucket_cycles,
            cores,
            buckets: Vec::new(),
            cur_busy: vec![0.0; cores],
            cur_alloc: vec![0; cores],
            cur_count: 0,
        }
    }

    /// Records `span` consecutive cycles from `cycle` on, each with the
    /// given per-core busy and allocated lane counts. Bucket boundaries
    /// inside the span flush where one-cycle records would, so a span
    /// equals that many one-cycle records whenever `busy × n` is exact
    /// in f64: always for one cycle, and for the zero busy lanes of an
    /// inert span the event kernel jumps.
    pub fn record(&mut self, mut cycle: Cycle, busy: &[f64], alloc: &[usize], mut span: Cycle) {
        while span > 0 {
            let take = (self.bucket_cycles - self.cur_count).min(span);
            for c in 0..self.cores {
                self.cur_busy[c] += busy[c] * take as f64;
                self.cur_alloc[c] += alloc[c] as u64 * take;
            }
            self.cur_count += take;
            cycle += take;
            span -= take;
            if self.cur_count == self.bucket_cycles {
                // The bucket's last cycle was `cycle - 1`.
                self.flush(cycle - self.bucket_cycles);
            }
        }
    }

    fn flush(&mut self, start: Cycle) {
        if self.cur_count == 0 {
            return;
        }
        let n = self.cur_count as f64;
        self.buckets.push(TimelineBucket {
            start_cycle: start,
            busy_lanes: self.cur_busy.iter().map(|&b| b / n).collect(),
            alloc_lanes: self.cur_alloc.iter().map(|&a| a as f64 / n).collect(),
        });
        self.cur_busy.iter_mut().for_each(|b| *b = 0.0);
        self.cur_alloc.iter_mut().for_each(|a| *a = 0);
        self.cur_count = 0;
    }

    /// Flushes any partial bucket and returns the series.
    pub fn finish(mut self, final_cycle: Cycle) -> Vec<TimelineBucket> {
        let rem = self.cur_count;
        if rem > 0 {
            self.flush(final_cycle.saturating_sub(rem));
        }
        self.buckets
    }

    /// A non-consuming snapshot including any partial bucket.
    pub fn snapshot(&self, final_cycle: Cycle) -> Vec<TimelineBucket> {
        self.clone().finish(final_cycle)
    }

    /// The completed buckets so far.
    pub fn buckets(&self) -> &[TimelineBucket] {
        &self.buckets
    }
}

/// The complete statistics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineStats {
    /// Total cycles simulated (until every workload halted).
    pub cycles: Cycle,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Lane-occupancy timeline (1000-cycle buckets).
    pub timeline: Vec<TimelineBucket>,
    /// Total lanes in the machine (denominator of the utilisation metric).
    pub total_lanes: usize,
    /// Whether every workload ran to completion (false = the run hit its
    /// cycle budget first).
    pub completed: bool,
    /// Whether a [`Machine::run`](crate::Machine::run) hit its cycle
    /// budget before every workload completed. Always the negation of
    /// [`completed`](Self::completed) for stats returned by `run`;
    /// `false` for mid-run snapshots from
    /// [`Machine::stats`](crate::Machine::stats).
    pub timed_out: bool,
    /// Whether this run was executed by the functional engine (see
    /// [`SimMode`](crate::SimMode)): when set,
    /// [`estimated_cycles`](Self::estimated_cycles) is an extrapolation
    /// and no timing-derived quantity (cycles, utilisation, timeline,
    /// phase durations) was measured.
    pub estimated: bool,
    /// The slowest core's functional instruction count (IPC = 1) when
    /// [`estimated`](Self::estimated); otherwise equal to
    /// [`cycles`](Self::cycles).
    pub estimated_cycles: Cycle,
    /// Instructions executed by the functional engine (zero in pure
    /// timing runs).
    pub functional_insts: u64,
    /// Hierarchical metrics snapshot (the gem5-style stats tree, see
    /// [`Machine::metrics`](crate::Machine::metrics)).
    pub metrics: crate::metrics::MetricsRegistry,
}

impl MachineStats {
    /// The paper's SIMD utilisation metric (§2):
    /// `Σ_c busy_lanes(c) / (total_lanes × C)`.
    pub fn simd_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.total_busy_lane_cycles() / (self.total_lanes as f64 * self.cycles as f64)
    }

    /// Per-core runtime in cycles (finish cycle, or the full run when the
    /// core never halted).
    pub fn core_time(&self, core: usize) -> Cycle {
        self.cores[core].finish_cycle.unwrap_or(self.cycles)
    }

    /// Fraction of a core's runtime spent stalled in rename for lack of
    /// free physical registers (Fig. 13).
    pub fn rename_stall_fraction(&self, core: usize) -> f64 {
        let t = self.core_time(core);
        if t == 0 {
            0.0
        } else {
            self.cores[core].rename_stall_cycles as f64 / t as f64
        }
    }

    /// Fraction of a core's runtime spent on elastic-sharing overhead
    /// (Fig. 15), returned as `(monitoring, reconfiguring)`.
    pub fn overhead_fractions(&self, core: usize) -> (f64, f64) {
        let t = self.core_time(core).max(1) as f64;
        (self.cores[core].monitor_cycles / t, self.cores[core].reconfig_cycles / t)
    }

    /// Busy lane-cycles summed across cores — the numerator of
    /// [`simd_utilization`](Self::simd_utilization), exposed for
    /// serializers.
    pub fn total_busy_lane_cycles(&self) -> f64 {
        self.cores.iter().map(|c| c.busy_lane_cycles).sum()
    }

    /// A complete, human-readable statistics report (the gem5-style
    /// end-of-simulation dump).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "==== simulation statistics ====");
        let _ = writeln!(out, "cycles simulated      : {}", self.cycles);
        let _ = writeln!(out, "completed             : {}", self.completed);
        let _ = writeln!(out, "timed out             : {}", self.timed_out);
        if self.estimated {
            let _ = writeln!(
                out,
                "estimated cycles      : {} (extrapolated; {} insts fast-forwarded)",
                self.estimated_cycles, self.functional_insts
            );
        }
        let _ = writeln!(
            out,
            "SIMD utilisation      : {:.2}% of {} lanes",
            100.0 * self.simd_utilization(),
            self.total_lanes
        );
        for (c, cs) in self.cores.iter().enumerate() {
            let t = self.core_time(c);
            let _ = writeln!(out, "-- core {c} --");
            let _ = writeln!(out, "  runtime             : {t} cycles");
            let _ = writeln!(
                out,
                "  vector issued       : {} compute + {} memory ({:.2}/cycle)",
                cs.vector_compute_issued,
                cs.vector_mem_issued,
                cs.issue_rate(t)
            );
            let _ = writeln!(out, "  scalar executed     : {}", cs.scalar_executed);
            let _ = writeln!(out, "  avg lanes held      : {:.1}", cs.avg_lanes_held(t));
            let _ = writeln!(
                out,
                "  rename stalls       : {} cycles ({:.1}%)",
                cs.rename_stall_cycles,
                100.0 * self.rename_stall_fraction(c)
            );
            let (mon, rec) = self.overhead_fractions(c);
            let _ = writeln!(
                out,
                "  elastic overhead    : monitor {:.2}% + reconfig {:.2}%",
                100.0 * mon,
                100.0 * rec
            );
            let _ = writeln!(out, "  phases              : {}", cs.phases.len());
            for (i, p) in cs.phases.iter().enumerate().take(8) {
                let _ = writeln!(
                    out,
                    "    p{i}: oi={:.2} lanes={} issue={:.2} dur={}",
                    p.oi.mem(),
                    p.configured_granules * 4,
                    p.issue_rate(),
                    p.duration()
                );
            }
            if cs.phases.len() > 8 {
                let _ = writeln!(out, "    ... {} more", cs.phases.len() - 8);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_buckets_average() {
        let mut t = Timeline::new(2, 4);
        for cycle in 0..8 {
            t.record(cycle, &[2.0, 4.0], &[8, 16], 1);
        }
        let buckets = t.finish(8);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].busy_lanes, vec![2.0, 4.0]);
        assert_eq!(buckets[1].alloc_lanes, vec![8.0, 16.0]);
        assert_eq!(buckets[1].start_cycle, 4);
    }

    #[test]
    fn partial_bucket_is_flushed_on_finish() {
        let mut t = Timeline::new(1, 10);
        t.record(0, &[5.0], &[10], 1);
        t.record(1, &[7.0], &[10], 1);
        let buckets = t.finish(2);
        assert_eq!(buckets.len(), 1);
        assert!((buckets[0].busy_lanes[0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn a_span_record_equals_that_many_single_cycle_records() {
        // (busy, alloc, span) over 4-cycle buckets: cycle 0 alone, a span
        // from mid-bucket across two boundaries, one from mid-bucket that
        // ends exactly on a boundary, and a partial bucket for `finish`.
        let spans: [([f64; 2], [usize; 2], Cycle); 4] = [
            ([1.5, 0.0], [8, 16], 1),
            ([0.0, 0.25], [4, 12], 10),
            ([2.75, 1.0], [16, 0], 5),
            ([0.5, 0.5], [8, 8], 2),
        ];
        let (mut bulk, mut single) = (Timeline::new(2, 4), Timeline::new(2, 4));
        let mut cycle = 0;
        for (busy, alloc, span) in spans {
            bulk.record(cycle, &busy, &alloc, span);
            for c in cycle..cycle + span {
                single.record(c, &busy, &alloc, 1);
            }
            cycle += span;
            assert_eq!(bulk, single, "after the span ending at cycle {cycle}");
        }
        assert_eq!(bulk.buckets().len(), 4, "boundaries at 4, 8, 12 and 16");
        let series = bulk.finish(cycle);
        assert_eq!(series, single.finish(cycle));
        assert_eq!(series.len(), 5);
        assert_eq!(series[4].start_cycle, 16);
        assert_eq!(series[4].busy_lanes, vec![0.5, 0.5]);
        assert_eq!(series[2].alloc_lanes, vec![7.0, 9.0], "cycles 8..12 straddle two spans");
    }

    #[test]
    fn utilization_formula() {
        let mut stats = MachineStats {
            cycles: 100,
            cores: vec![CoreStats::default(), CoreStats::default()],
            timeline: vec![],
            total_lanes: 32,
            completed: true,
            timed_out: false,
            estimated: false,
            estimated_cycles: 100,
            functional_insts: 0,
            metrics: crate::metrics::MetricsRegistry::new(),
        };
        stats.cores[0].busy_lane_cycles = 800.0;
        stats.cores[1].busy_lane_cycles = 1600.0;
        assert!((stats.simd_utilization() - 2400.0 / 3200.0).abs() < 1e-12);
    }

    #[test]
    fn phase_issue_rate() {
        let p = PhaseStats {
            oi: OperationalIntensity::uniform(0.5),
            start_cycle: 100,
            end_cycle: Some(300),
            compute_issued: 400,
            configured_granules: 3,
        };
        assert!((p.issue_rate() - 2.0).abs() < 1e-12);
        assert_eq!(p.duration(), 200);
    }

    #[test]
    fn open_phase_has_zero_rate() {
        let p = PhaseStats {
            oi: OperationalIntensity::uniform(0.5),
            start_cycle: 100,
            end_cycle: None,
            compute_issued: 400,
            configured_granules: 3,
        };
        assert_eq!(p.issue_rate(), 0.0);
    }

    #[test]
    fn core_time_prefers_finish_cycle() {
        let mut stats = MachineStats {
            cycles: 1000,
            cores: vec![CoreStats::default()],
            timeline: vec![],
            total_lanes: 32,
            completed: true,
            timed_out: false,
            estimated: false,
            estimated_cycles: 1000,
            functional_insts: 0,
            metrics: crate::metrics::MetricsRegistry::new(),
        };
        assert_eq!(stats.core_time(0), 1000);
        stats.cores[0].finish_cycle = Some(700);
        assert_eq!(stats.core_time(0), 700);
        stats.cores[0].rename_stall_cycles = 70;
        assert!((stats.rename_stall_fraction(0) - 0.1).abs() < 1e-12);
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec!(CoreStats {
    vector_compute_issued,
    vector_mem_issued,
    scalar_executed,
    busy_lane_cycles,
    alloc_lane_cycles,
    rename_stall_cycles,
    monitor_cycles,
    reconfig_cycles,
    finish_cycle,
    phases,
});
statecodec::impl_codec!(PhaseStats {
    oi,
    start_cycle,
    end_cycle,
    compute_issued,
    configured_granules,
});
statecodec::impl_codec!(TimelineBucket { start_cycle, busy_lanes, alloc_lanes });

// Hand-written so decode re-establishes the invariants `record` relies
// on (non-zero bucket width, one accumulator per core).
impl statecodec::Codec for Timeline {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.bucket_cycles, sink);
        statecodec::Codec::encode(&self.cores, sink);
        statecodec::Codec::encode(&self.buckets, sink);
        statecodec::Codec::encode(&self.cur_busy, sink);
        statecodec::Codec::encode(&self.cur_alloc, sink);
        statecodec::Codec::encode(&self.cur_count, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let bucket_cycles = <u64 as statecodec::Codec>::decode(src)?;
        let cores = <usize as statecodec::Codec>::decode(src)?;
        let buckets: Vec<TimelineBucket> = statecodec::Codec::decode(src)?;
        let cur_busy: Vec<f64> = statecodec::Codec::decode(src)?;
        let cur_alloc: Vec<u64> = statecodec::Codec::decode(src)?;
        let cur_count = <u64 as statecodec::Codec>::decode(src)?;
        if bucket_cycles == 0 {
            return Err(statecodec::DecodeError::at(src, "timeline bucket width is zero"));
        }
        if cur_busy.len() != cores || cur_alloc.len() != cores {
            return Err(statecodec::DecodeError::at(
                src,
                format!(
                    "timeline accumulators sized {}/{} for {cores} cores",
                    cur_busy.len(),
                    cur_alloc.len()
                ),
            ));
        }
        Ok(Timeline { bucket_cycles, cores, buckets, cur_busy, cur_alloc, cur_count })
    }
}

impl Timeline {
    /// Core count this timeline was sized for; checkpoint decoding
    /// cross-checks it against the machine configuration.
    pub(crate) fn num_cores(&self) -> usize {
        self.cores
    }
}
