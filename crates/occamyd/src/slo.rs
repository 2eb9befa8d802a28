//! Deterministic per-tenant SLO accounting in *virtual time*.
//!
//! Wall-clock latencies vary run to run with scheduling, so they make
//! terrible golden-test material. This module keeps a second, fully
//! deterministic time axis: a job's **service time** is the number of
//! simulated cycles its result payload reports (a pure function of the
//! job spec — identical for cold runs, cache hits and coalesced
//! waiters), and a tenant's **virtual clock** is the running sum of
//! service cycles over that tenant's jobs in *admission order*. A job's
//! virtual queue wait is the tenant's clock when it was admitted; its
//! virtual end-to-end latency is queue wait plus its own service time.
//!
//! Worker interleaving cannot perturb any of this: admission order per
//! tenant is fixed by the submitter, and terminals are folded through a
//! per-tenant reorder buffer (settled out-of-order, drained in
//! admission order), so the histograms are order-independent multiset
//! aggregations. That is what lets tier-1 tests assert exact histogram
//! contents and `load_test --slo` commit a byte-identical golden across
//! `--workers` counts.
//!
//! Failed jobs (typed errors, cancellations, expired deadlines) settle
//! with zero service cycles: they consume no simulated time and are
//! excluded from the latency histograms, but still release the reorder
//! buffer so later jobs drain.

use std::collections::BTreeMap;

use bench::json::Value;
use occamy_sim::{Histogram, MetricsRegistry};

/// Bucket edges (in simulated cycles) for the virtual-time queue-wait,
/// service-time and latency histograms: half-decade steps spanning
/// everything from a trimmed synthetic probe (hundreds of cycles) to a
/// full paper workload at the daemon's default cycle budget.
pub const VCYCLE_EDGES: &[u64] = &[
    100,
    300,
    1_000,
    3_000,
    10_000,
    30_000,
    100_000,
    300_000,
    1_000_000,
    3_000_000,
    10_000_000,
    30_000_000,
    100_000_000,
];

/// Bucket edges of `sim.phase_len` as published by the machine
/// (`crates/occamy-sim/src/machine.rs`), needed to rebuild per-job
/// phase-length histograms from result payloads for bucket-wise
/// merging into per-tenant aggregates.
pub const PHASE_LEN_EDGES: &[u64] = &[100, 1_000, 10_000, 100_000];

/// One tenant's SLO state.
struct TenantSlo {
    /// Admission sequence numbers handed out so far.
    admitted: u64,
    /// Next sequence number to drain from the reorder buffer.
    next_drain: u64,
    /// Out-of-order terminal results: `seq → Some(service_cycles)`
    /// (0 for failed jobs), `None` while still in flight.
    pending: BTreeMap<u64, Option<u64>>,
    /// Virtual clock: cumulative service cycles of drained ok jobs.
    vclock: u64,
    /// Jobs that settled with a result.
    ok: u64,
    /// Virtual queue wait of ok jobs (cycles).
    queue_wait: Histogram,
    /// Service time of ok jobs (cycles).
    service: Histogram,
    /// Virtual end-to-end latency of ok jobs (cycles).
    latency: Histogram,
    /// Bucket-wise merge of each result payload's `sim.phase_len`.
    phase_len: Histogram,
    /// Total simulated cycles attributed to this tenant's results
    /// (cache hits included — the tenant consumed the result either
    /// way).
    sim_cycles: u64,
}

impl TenantSlo {
    fn new() -> Self {
        TenantSlo {
            admitted: 0,
            next_drain: 0,
            pending: BTreeMap::new(),
            vclock: 0,
            ok: 0,
            queue_wait: Histogram::new(VCYCLE_EDGES),
            service: Histogram::new(VCYCLE_EDGES),
            latency: Histogram::new(VCYCLE_EDGES),
            phase_len: Histogram::new(PHASE_LEN_EDGES),
            sim_cycles: 0,
        }
    }

    fn drain(&mut self) {
        while let Some(Some(cycles)) = self.pending.get(&self.next_drain).copied() {
            self.pending.remove(&self.next_drain);
            self.next_drain += 1;
            if cycles > 0 {
                self.ok += 1;
                self.queue_wait.observe(self.vclock);
                self.service.observe(cycles);
                self.latency.observe(self.vclock.saturating_add(cycles));
                self.vclock = self.vclock.saturating_add(cycles);
            }
        }
    }
}

/// The service-wide SLO book: one `TenantSlo` record per tenant, keyed and
/// published in sorted tenant order (deterministic snapshots without
/// sorting at snapshot time).
#[derive(Default)]
pub struct SloBook {
    tenants: BTreeMap<String, TenantSlo>,
}

impl SloBook {
    /// An empty book.
    pub fn new() -> Self {
        SloBook::default()
    }

    /// Records an admission for `tenant`, returning the sequence number
    /// the matching [`SloBook::settle`] must present.
    pub fn admit(&mut self, tenant: &str) -> u64 {
        let t = self.tenants.entry(tenant.to_owned()).or_insert_with(TenantSlo::new);
        let seq = t.admitted;
        t.admitted += 1;
        t.pending.insert(seq, None);
        seq
    }

    /// Settles admission `seq` for `tenant` with its service time in
    /// simulated cycles (0 for jobs that ended without a result), then
    /// drains every contiguously settled admission into the histograms.
    pub fn settle(&mut self, tenant: &str, seq: u64, service_cycles: u64) {
        let Some(t) = self.tenants.get_mut(tenant) else {
            return;
        };
        if let Some(slot) = t.pending.get_mut(&seq) {
            *slot = Some(service_cycles);
        }
        t.drain();
    }

    /// Folds a completed job's result payload into the tenant's
    /// resource aggregates: total simulated cycles, and the payload's
    /// `sim.phase_len` histogram merged bucket-wise.
    pub fn fold_payload(&mut self, tenant: &str, payload: &Value) {
        let t = self.tenants.entry(tenant.to_owned()).or_insert_with(TenantSlo::new);
        if let Some(cycles) = payload.get("cycles").and_then(Value::as_u64) {
            t.sim_cycles = t.sim_cycles.saturating_add(cycles);
        }
        if let Some(hist) = payload
            .get("metrics")
            .and_then(|m| m.get("sim.phase_len"))
            .and_then(parse_phase_len)
        {
            t.phase_len.absorb(&hist);
        }
    }

    /// Tenant names in published (sorted) order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// Publishes every tenant's SLO metrics under
    /// `service.tenant.<tenant>.<quantity>`. All values are virtual
    /// time — deterministic and safe for golden comparisons.
    pub fn publish(&self, m: &mut MetricsRegistry) {
        for (name, t) in &self.tenants {
            let p = |q: &str| format!("service.tenant.{name}.{q}");
            m.counter(&p("admitted"), t.admitted, "jobs admitted for this tenant");
            m.counter(&p("ok"), t.ok, "jobs settled with a result");
            m.counter(&p("sim_cycles"), t.sim_cycles, "simulated cycles consumed (cache hits included)");
            m.gauge(&p("queue_wait_vcycles_p50"), t.queue_wait.quantile(0.5) as f64, "virtual queue wait p50 (cycles)");
            m.gauge(&p("queue_wait_vcycles_p99"), t.queue_wait.quantile(0.99) as f64, "virtual queue wait p99 (cycles)");
            m.gauge(&p("latency_vcycles_p50"), t.latency.quantile(0.5) as f64, "virtual end-to-end latency p50 (cycles)");
            m.gauge(&p("latency_vcycles_p99"), t.latency.quantile(0.99) as f64, "virtual end-to-end latency p99 (cycles)");
            m.histogram(&p("queue_wait_vcycles"), t.queue_wait.clone(), "virtual queue wait of ok jobs (cycles)");
            m.histogram(&p("service_vcycles"), t.service.clone(), "service time of ok jobs (cycles)");
            m.histogram(&p("latency_vcycles"), t.latency.clone(), "virtual end-to-end latency of ok jobs (cycles)");
            m.histogram(&p("phase_len"), t.phase_len.clone(), "completed-phase durations folded from result payloads");
        }
    }
}

/// Rebuilds a [`Histogram`] from a `sim.phase_len` JSON snapshot
/// (`{samples, mean, lt_100, 100_1000, …}`). The per-bucket counts are
/// exact; the sum is reconstructed from `mean × samples`, which is
/// deterministic (f64 arithmetic on deterministic inputs).
fn parse_phase_len(v: &Value) -> Option<Histogram> {
    let mut counts = Vec::with_capacity(PHASE_LEN_EDGES.len() + 1);
    for i in 0..=PHASE_LEN_EDGES.len() {
        let label = if i == 0 {
            format!("lt_{}", PHASE_LEN_EDGES[0])
        } else if i == PHASE_LEN_EDGES.len() {
            format!("ge_{}", PHASE_LEN_EDGES[i - 1])
        } else {
            format!("{}_{}", PHASE_LEN_EDGES[i - 1], PHASE_LEN_EDGES[i])
        };
        counts.push(v.get(&label).and_then(Value::as_u64)?);
    }
    let samples = v.get("samples").and_then(Value::as_u64)?;
    let mean = v.get("mean").and_then(Value::as_f64)?;
    let sum = (mean * samples as f64).round();
    let sum = if sum.is_finite() && sum >= 0.0 { sum as u64 } else { 0 };
    Histogram::from_parts(PHASE_LEN_EDGES, &counts, sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_settlement_drains_in_admission_order() {
        let mut book = SloBook::new();
        let s0 = book.admit("t");
        let s1 = book.admit("t");
        let s2 = book.admit("t");
        // Settle in reverse: nothing drains until seq 0 lands.
        book.settle("t", s2, 300);
        book.settle("t", s1, 0); // failed job: zero service time
        let before = snapshot(&book);
        let ok_line = before
            .lines()
            .find(|l| l.trim_start().starts_with("service.tenant.t.ok "))
            .expect("ok counter in the dump");
        assert_eq!(
            ok_line.split_whitespace().nth(1),
            Some("0"),
            "nothing may drain before seq 0 settles: {ok_line}"
        );
        book.settle("t", s0, 100);
        let t = &book.tenants["t"];
        assert_eq!(t.ok, 2);
        assert_eq!(t.vclock, 400);
        // Queue waits: job0 waited 0, job1 failed (not observed), job2
        // waited 100 (job1 contributed nothing).
        assert_eq!(t.queue_wait.total(), 2);
        assert_eq!(t.latency.total(), 2);
        assert_eq!(t.service.total(), 2);
    }

    #[test]
    fn settlement_order_does_not_change_the_histograms() {
        let settle_orders: &[&[usize]] = &[&[0, 1, 2, 3], &[3, 2, 1, 0], &[2, 0, 3, 1]];
        let cycles = [50u64, 0, 700, 20];
        let mut snaps = Vec::new();
        for order in settle_orders {
            let mut book = SloBook::new();
            let seqs: Vec<u64> = (0..4).map(|_| book.admit("t")).collect();
            for &i in *order {
                book.settle("t", seqs[i], cycles[i]);
            }
            snaps.push(snapshot(&book));
        }
        assert_eq!(snaps[0], snaps[1]);
        assert_eq!(snaps[0], snaps[2]);
    }

    #[test]
    fn fold_payload_merges_phase_len_and_cycles() {
        let payload = bench::json::parse(
            "{\"cycles\":1234,\"metrics\":{\"sim.phase_len\":{\"samples\":3,\"mean\":400.0,\
             \"lt_100\":1,\"100_1000\":1,\"1000_10000\":1,\"10000_100000\":0,\"ge_100000\":0}}}",
        )
        .expect("valid payload");
        let mut book = SloBook::new();
        book.fold_payload("t", &payload);
        book.fold_payload("t", &payload);
        let t = &book.tenants["t"];
        assert_eq!(t.sim_cycles, 2468);
        assert_eq!(t.phase_len.total(), 6);
        assert_eq!(t.phase_len.sum(), 2400);
    }

    #[test]
    fn publish_is_sorted_by_tenant() {
        let mut book = SloBook::new();
        book.admit("zeta");
        book.admit("alpha");
        let snap = snapshot(&book);
        let a = snap.find("service.tenant.alpha").expect("alpha published");
        let z = snap.find("service.tenant.zeta").expect("zeta published");
        assert!(a < z, "tenants publish in sorted order:\n{snap}");
    }

    fn snapshot(book: &SloBook) -> String {
        let mut m = MetricsRegistry::new();
        book.publish(&mut m);
        m.dump()
    }
}
