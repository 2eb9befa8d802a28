//! The job service: a worker pool with admission control, coalescing,
//! retry/backoff, crash isolation, deadlines, cancellation and the
//! result cache — everything between the wire protocol and the
//! simulator.
//!
//! # Life of a job
//!
//! 1. **Admission** ([`Service::submit`]): duplicate-id check, then a
//!    three-way split under the state lock — cache hit (instant
//!    terminal reply), coalesce onto an identical in-flight run
//!    (quota-checked via [`AdmissionQueue::admit_direct`]), or queue as
//!    a fresh run (bounded, per-tenant fair). Refusals are typed
//!    [`ShedReason`]s, never silent drops.
//! 2. **Execution**: a worker dequeues round-robin, re-checks the
//!    cache, then simulates in bounded slices; between slices it sweeps
//!    the requester list for cancellations and expired deadlines and
//!    aborts if nobody is left waiting. Retryable failures (fault
//!    injection only — deterministic failures cannot be cured by
//!    retrying) re-run under the seeded exponential backoff of
//!    [`bench::runner::BackoffPolicy`], re-salting the fault seed per
//!    attempt.
//! 3. **Isolation**: the whole attempt loop runs under
//!    `catch_unwind`, so a panicking job (chaos, or a real bug) becomes
//!    a structured `panic` error reply for that job alone; the worker
//!    and every other job keep running. Poisoned locks are recovered
//!    (`into_inner`) and audited in `service.poisoned_locks`.
//! 4. **Terminal**: exactly one terminal reply per admitted requester —
//!    result, typed error, or typed shed — all through `State::settle`,
//!    as every refusal goes through `State::shed`. A run ends through
//!    `Inner::end_run`, which journals its terminal and hands its queue
//!    ticket back to the lane that owns it. Successes populate the
//!    content-addressed [`ResultCache`]; sampled hits are re-verified
//!    against the cached bytes.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bench::json::Value;
use bench::runner::{run_with_retry, BackoffPolicy};
use occamy_sim::{Architecture, FaultPlan, Histogram, Machine, MetricsRegistry, SimConfig};
use workloads::{corun, table3, SyntheticSpec, WorkloadSpec};

use crate::admission::{AdmissionConfig, AdmissionQueue, ShedReason};
use crate::cache::{short_address, CacheConfig, ResultCache};
use crate::journal::{plan_recovery, write_atomically, Journal, JournalConfig, JournalRecord};
use crate::protocol::{limits, ChaosKind, JobSpec, JobTiming, Reply};
use crate::slo::SloBook;

/// Tenant name for requester-less background verification runs. The
/// control character keeps it out of the wire namespace: the protocol
/// rejects control characters in tenant names, so no client can ever
/// collide with (or spoof) it.
const VERIFY_TENANT: &str = "\u{1}verify";

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission queue bounds.
    pub admission: AdmissionConfig,
    /// Result-cache bounds and verification sampling.
    pub cache: CacheConfig,
    /// Attempts per job (minimum 1); only fault-injected failures are
    /// retried — deterministic failures repeat identically.
    pub max_attempts: u32,
    /// Inter-attempt backoff schedule.
    pub backoff: BackoffPolicy,
    /// Cycles simulated between control checks (cancellation, deadline
    /// sweep). Smaller slices react faster and cost slightly more.
    pub slice_cycles: u64,
    /// Forward-progress watchdog per attempt.
    pub watchdog: u64,
    /// Durable-state directory. `None` (the default) runs the service
    /// fully in memory — byte-identical to the pre-durability daemon.
    /// `Some(dir)` enables the write-ahead job journal
    /// (`dir/journal.log`), the persistent result cache (`dir/cache/`)
    /// and checkpoint-resumable jobs (`dir/checkpoints/`).
    pub state_dir: Option<PathBuf>,
    /// With a state dir: persist a resumable checkpoint every N
    /// simulation slices of a first-attempt run.
    pub checkpoint_slices: u32,
    /// With a state dir: journal size that triggers compaction.
    pub journal_max_bytes: u64,
    /// With a state dir: byte budget of the on-disk result cache.
    pub disk_cache_bytes: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            admission: AdmissionConfig::default(),
            cache: CacheConfig::default(),
            max_attempts: 2,
            backoff: BackoffPolicy::default(),
            slice_cycles: 25_000,
            watchdog: 1_000_000,
            state_dir: None,
            checkpoint_slices: 8,
            journal_max_bytes: 4 * 1024 * 1024,
            disk_cache_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Why a job ended without a result. [`JobError::tag`] values are the
/// wire-visible `kind` strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The machine could not be built (bad spec). Deterministic.
    Build(String),
    /// The cycle budget ran out on every attempt.
    TimedOut {
        /// Cycles consumed when the final attempt's budget ran out.
        cycles: u64,
    },
    /// A typed simulation fault on every attempt.
    Faulted {
        /// `SimError::kind` of the fault.
        kind: String,
        /// Full fault message.
        detail: String,
    },
    /// The job panicked; the panic was contained at the job boundary.
    Panicked(String),
    /// The wall-clock deadline expired before completion.
    Deadline,
    /// The requester cancelled the job.
    Cancelled,
    /// A chaos hook fired ([`ChaosKind::Fault`]).
    Chaos(String),
}

impl JobError {
    /// Machine-readable `kind` for error replies.
    pub fn tag(&self) -> &str {
        match self {
            JobError::Build(_) => "build",
            JobError::TimedOut { .. } => "timed_out",
            JobError::Faulted { kind, .. } => kind,
            JobError::Panicked(_) => "panic",
            JobError::Deadline => "deadline",
            JobError::Cancelled => "cancelled",
            JobError::Chaos(_) => "chaos",
        }
    }

    /// Human-readable detail for error replies.
    pub fn detail(&self) -> String {
        match self {
            JobError::Build(d) => d.clone(),
            JobError::TimedOut { cycles } => format!("cycle budget exhausted after {cycles} cycles"),
            JobError::Faulted { detail, .. } => detail.clone(),
            JobError::Panicked(d) => format!("job panicked: {d}"),
            JobError::Deadline => "deadline expired before the job completed".into(),
            JobError::Cancelled => "cancelled by the requester".into(),
            JobError::Chaos(d) => d.clone(),
        }
    }
}

/// One party waiting on a run (the submitting requester, or a
/// later submitter coalesced onto the same canonical key).
struct Requester {
    tenant: String,
    id: String,
    deadline: Option<Instant>,
    tx: Sender<Reply>,
    /// Whether this requester holds an `admit_direct` in-flight count of
    /// its own (a coalesced waiter), released when it settles. The
    /// submitting requester's quota is the run's queue ticket instead,
    /// and a cache hit holds none.
    direct_quota: bool,
    /// This requester's admission sequence in the per-tenant SLO book;
    /// every terminal must settle it so the tenant's reorder buffer
    /// keeps draining.
    slo_seq: u64,
    /// When the requester was admitted (wall clock, for the timing
    /// breakdown in result replies).
    submitted: Instant,
}

enum RunState {
    Queued,
    Running,
}

/// Who a run answers to — and therefore how requester-less states and
/// the journal treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunClass {
    /// Submitted by a live client; abandoned when every requester
    /// leaves; terminal outcome journaled.
    Client,
    /// Re-enqueued from the journal after a crash. Requester-less by
    /// construction (the submitting connections died with the old
    /// process) but must still run to its journaled terminal.
    Recovered,
    /// Background verification of a sampled cache hit. Requester-less,
    /// and *not* journaled: its key already has a terminal record, and
    /// a second non-cached `ok` would read as a duplicated side effect.
    Verify,
}

/// All bookkeeping for one canonical key with at least one live
/// requester (or a live background purpose).
struct InFlight {
    state: RunState,
    class: RunClass,
    requesters: Vec<Requester>,
    /// Tenant whose lane owns the run's queue ticket: the ticket is
    /// queued there, and a worker's `take` moves it into that lane's
    /// in-flight count. [`Inner::end_run`] hands it back exactly once.
    queue_slot_tenant: String,
    /// Cached payload bytes to compare against when this run is a
    /// verification re-run of a sampled cache hit.
    verify_against: Option<String>,
    /// The journal record that admitted this run — kept so compaction
    /// can rewrite the journal with only still-incomplete jobs.
    accepted: Option<JournalRecord>,
}

/// A queue ticket: the key into the in-flight map plus the spec to run.
struct QueuedJob {
    key: String,
    spec: JobSpec,
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    accepted: u64,
    shed_overloaded: u64,
    shed_quota: u64,
    shed_shutdown: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    deadline_expired: u64,
    panics_contained: u64,
    retries: u64,
    coalesced: u64,
    poisoned_locks: u64,
    recovered: u64,
    checkpoints_written: u64,
    checkpoints_resumed: u64,
    watch_emitted: u64,
    watch_dropped: u64,
}

impl Counters {
    fn count_shed(&mut self, reason: ShedReason) {
        match reason {
            ShedReason::Overloaded => self.shed_overloaded += 1,
            ShedReason::QuotaExceeded => self.shed_quota += 1,
            ShedReason::ShuttingDown => self.shed_shutdown += 1,
        }
    }

    fn shed(&self) -> u64 {
        self.shed_overloaded + self.shed_quota + self.shed_shutdown
    }
}

/// One live `watch` subscriber. Delivery is strictly non-blocking: the
/// `pending` counter (shared with the connection's writer thread, which
/// decrements it as frames reach the socket) caps frames in flight, and
/// a subscriber at its cap has the frame *dropped and counted* — a slow
/// reader can never stall a worker.
struct Watcher {
    tx: Sender<Reply>,
    /// Frames queued but not yet written to the subscriber's socket.
    pending: Arc<AtomicUsize>,
    /// Drop threshold for `pending`.
    cap: usize,
    /// Only events for this tenant (None = all).
    tenant: Option<String>,
    /// Per-subscriber frame sequence (monotone from 1).
    seq: u64,
    /// Frames dropped for this subscriber so far.
    dropped: u64,
}

struct State {
    queue: AdmissionQueue<QueuedJob>,
    inflight: HashMap<String, InFlight>,
    cache: ResultCache,
    counters: Counters,
    latency_us: Histogram,
    /// Deterministic per-tenant SLO accounting (virtual time).
    slo: SloBook,
    /// Live `watch` subscribers.
    watchers: Vec<Watcher>,
    /// Virtual clock for event stamps: total simulated cycles of
    /// fresh (non-cached) completions service-wide.
    vcycles: u64,
    /// Wall-clock microseconds the last worker drain took (set by
    /// [`Service::drain_workers`]; nondeterministic, gauge-only).
    drain_us: Option<u64>,
    shutting_down: bool,
    live_workers: usize,
    /// The write-ahead job journal (`--state-dir` only).
    journal: Option<Journal>,
}

impl State {
    /// Appends to the journal when one is attached (no-op otherwise).
    fn journal_append(&mut self, record: JournalRecord) {
        if let Some(journal) = &mut self.journal {
            journal.append(&record);
        }
    }

    /// Group commit: fsyncs pending journal appends before a reply that
    /// promises durability is released, then compacts if the size
    /// trigger fired.
    fn journal_commit(&mut self) {
        let State { journal, inflight, .. } = self;
        let Some(journal) = journal else {
            return;
        };
        journal.sync();
        if journal.should_compact() {
            journal.compact(inflight.values().filter_map(|f| f.accepted.as_ref()));
        }
    }

    /// Fans one event out to every matching `watch` subscriber, without
    /// ever blocking: a subscriber at its in-flight cap has the frame
    /// dropped and counted instead of queued. Subscribers whose
    /// connection is gone are pruned here.
    fn emit_event(&mut self, kind: &str, tenant: &str, id: &str, detail: &str) {
        if self.watchers.is_empty() {
            return;
        }
        // Service-internal runs are visible but not tenant-attributed.
        let tenant = if tenant == VERIFY_TENANT { "" } else { tenant };
        let vcycles = self.vcycles;
        let State { watchers, counters, .. } = self;
        watchers.retain_mut(|w| {
            if w.tenant.as_deref().is_some_and(|t| t != tenant) {
                return true;
            }
            if w.pending.load(Ordering::Acquire) >= w.cap {
                w.dropped += 1;
                counters.watch_dropped += 1;
                return true;
            }
            w.seq += 1;
            let frame = Reply::Event {
                seq: w.seq,
                dropped: w.dropped,
                vcycles,
                kind: kind.into(),
                tenant: tenant.into(),
                id: id.into(),
                detail: detail.into(),
            };
            w.pending.fetch_add(1, Ordering::AcqRel);
            if w.tx.send(frame).is_err() {
                // The connection is gone; drop the subscription.
                return false;
            }
            counters.watch_emitted += 1;
            true
        });
    }

    /// The tenant and job id a key's run is attributed to in event
    /// frames: its first live requester, or the queue-slot tenant for
    /// requester-less (recovered/verify) runs.
    fn flight_identity(&self, key: &str) -> (String, String) {
        match self.inflight.get(key) {
            Some(f) => match f.requesters.first() {
                Some(r) => (r.tenant.clone(), r.id.clone()),
                None => (f.queue_slot_tenant.clone(), String::new()),
            },
            None => (String::new(), String::new()),
        }
    }

    /// Journals the terminal record of `key`'s job (no-op without a
    /// journal). `outcome` is `ok`, an error kind, `abandoned` or
    /// `shed:<reason>`; `cached` marks an `ok` answered from the cache.
    fn journal_terminal(&mut self, key: &str, outcome: &str, cached: bool) {
        self.journal_append(JournalRecord::Completed {
            key: key.to_owned(),
            outcome: outcome.to_owned(),
            cached,
        });
    }

    /// Refuses a submission: the shed counter, the journal record, the
    /// `shed` event and the typed reply. Nothing was admitted, so
    /// nothing is settled or released.
    fn shed(&mut self, tenant: &str, id: &str, reason: ShedReason, tx: &Sender<Reply>) {
        self.counters.count_shed(reason);
        self.journal_append(JournalRecord::Shed {
            tenant: tenant.into(),
            id: id.into(),
            kind: reason.tag().into(),
        });
        self.emit_event("shed", tenant, id, reason.tag());
        send(tx, shed_reply(id, reason));
    }

    /// Ends an admitted requester's wait, exactly once: its terminal
    /// reply, the counter `end` names, its SLO settlement, its
    /// `completed` (or `shed`) event, and the release of its own quota
    /// admission if it holds one.
    fn settle(&mut self, r: &Requester, end: End<'_>) {
        let id = || r.id.clone();
        let error = |kind: &str, detail| Reply::Error { id: id(), kind: kind.into(), detail };
        let c = &mut self.counters;
        let mut cycles = 0;
        let (reply, event, detail) = match end {
            End::Ok { payload, cached, attempts, timing } => {
                c.completed += 1;
                cycles = payload.get("cycles").and_then(Value::as_u64).unwrap_or(0);
                self.slo.fold_payload(&r.tenant, &payload);
                let timing = Some(timing);
                let reply = Reply::Result { id: id(), cached, attempts, timing, payload };
                (reply, "completed", "ok")
            }
            End::Failed(e) => {
                if *e == JobError::Deadline {
                    c.deadline_expired += 1;
                }
                c.failed += 1;
                (error(e.tag(), e.detail()), "completed", e.tag())
            }
            End::Cancelled => {
                c.cancelled += 1;
                (error("cancelled", JobError::Cancelled.detail()), "completed", "cancelled")
            }
            End::Abandoned => {
                c.failed += 1;
                (error("cancelled", "the run was abandoned".into()), "completed", "cancelled")
            }
            End::Shed(reason) => {
                c.count_shed(reason);
                (shed_reply(&r.id, reason), "shed", reason.tag())
            }
        };
        send(&r.tx, reply);
        self.slo.settle(&r.tenant, r.slo_seq, cycles);
        self.emit_event(event, &r.tenant, &r.id, detail);
        if r.direct_quota {
            self.queue.release(&r.tenant);
        }
    }
}

/// How an admitted requester's wait ends ([`State::settle`]): the
/// terminal reply it gets and the counter that counts it.
enum End<'a> {
    /// A result (`cached` as the reply reports it); counts `completed`
    /// and settles the payload's cycles as service time.
    Ok { payload: Value, cached: bool, attempts: u32, timing: JobTiming },
    /// The run's typed error; counts `failed`, and a deadline also
    /// `deadline_expired`.
    Failed(&'a JobError),
    /// The requester cancelled; counts `cancelled`.
    Cancelled,
    /// The run was abandoned under a requester that slipped in after
    /// the last sweep; a `cancelled` reply that counts `failed`.
    Abandoned,
    /// Shed after admission, when the shutdown drain empties the queue;
    /// counts the shed reason.
    Shed(ShedReason),
}

struct Inner {
    config: ServiceConfig,
    state: Mutex<State>,
    work_ready: Condvar,
    idle: Condvar,
}

impl Inner {
    /// Locks the state, recovering (and auditing) a poisoned mutex: a
    /// contained job panic must not take the whole service down with a
    /// poisoned-lock cascade.
    fn locked(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|poisoned| {
            let mut st = poisoned.into_inner();
            st.counters.poisoned_locks += 1;
            st
        })
    }

    /// Ends the run of `key`: takes its flight out of the in-flight map,
    /// hands its queue ticket back to the lane of `queue_slot_tenant`
    /// (dequeued if still queued, released if a worker took it),
    /// journals `outcome` as the terminal of a journaled run, and wakes
    /// [`Service::quiesce`] once nothing is queued or running. Returns
    /// the flight so the caller can settle its remaining requesters; the
    /// caller commits the journal.
    fn end_run(&self, st: &mut State, key: &str, outcome: &str) -> Option<InFlight> {
        let flight = st.inflight.remove(key)?;
        match flight.state {
            // A no-op after the shutdown drain, which already took every
            // queued ticket.
            RunState::Queued => {
                st.queue.remove_queued(&flight.queue_slot_tenant, |job| job.key == key);
            }
            RunState::Running => st.queue.release(&flight.queue_slot_tenant),
        }
        // Background verification runs stay out of the journal: their
        // key already has its terminal, and a second non-cached `ok`
        // would read as a duplicated effect.
        if flight.accepted.is_some() {
            st.journal_terminal(key, outcome, false);
        }
        if st.queue.is_empty() && st.inflight.is_empty() {
            self.idle.notify_all();
        }
        Some(flight)
    }
}

/// The running service: owns the worker pool. Cheap to clone handles
/// are not provided — the server shares it via `Arc`.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool. With [`ServiceConfig::state_dir`] set,
    /// first restores durable state: the persistent result cache is
    /// re-attached, the write-ahead journal is replayed, and every job
    /// that was accepted but never reached a terminal outcome is
    /// re-enqueued (requester-less) so it still runs to its journaled
    /// terminal.
    pub fn start(config: ServiceConfig) -> Service {
        let workers = config.workers.max(1);
        let mut state = State {
            queue: AdmissionQueue::new(config.admission),
            inflight: HashMap::new(),
            cache: ResultCache::new(config.cache),
            counters: Counters::default(),
            latency_us: latency_histogram(),
            slo: SloBook::new(),
            watchers: Vec::new(),
            vcycles: 0,
            drain_us: None,
            shutting_down: false,
            live_workers: workers,
            journal: None,
        };
        if let Some(dir) = &config.state_dir {
            recover_state(&mut state, dir, &config);
        }
        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            config,
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Service { inner, workers: handles }
    }

    /// Submits a job. Every call produces at least one reply on `tx`:
    /// an instant terminal (cache hit, shed, duplicate id), or
    /// `Accepted` followed eventually by exactly one terminal reply.
    pub fn submit(&self, tenant: &str, id: &str, spec: JobSpec, tx: &Sender<Reply>) {
        let key = spec.canonical_key();
        let now = Instant::now();
        let deadline = spec.deadline_ms.map(|ms| now + Duration::from_millis(ms));
        let mut st = self.inner.locked();
        st.counters.submitted += 1;
        if st.shutting_down {
            st.shed(tenant, id, ShedReason::ShuttingDown, tx);
            return;
        }
        let duplicate = st
            .inflight
            .values()
            .flat_map(|f| f.requesters.iter())
            .any(|r| r.tenant == tenant && r.id == id);
        if duplicate {
            send(
                tx,
                Reply::Error {
                    id: id.into(),
                    kind: "duplicate_id".into(),
                    detail: format!("tenant `{tenant}` already has an active job `{id}`"),
                },
            );
            return;
        }
        let requester = |slo_seq, direct_quota| Requester {
            tenant: tenant.into(),
            id: id.into(),
            deadline,
            tx: tx.clone(),
            direct_quota,
            slo_seq,
            submitted: now,
        };

        // Coalesce onto an identical in-flight run: the duplicate never
        // reaches the queue or the simulator, it just shares the
        // original run's terminal reply (quota still applies).
        if st.inflight.contains_key(&key) {
            if let Err(reason) = st.queue.admit_direct(tenant) {
                st.shed(tenant, id, reason, tx);
                return;
            }
            st.counters.accepted += 1;
            st.counters.coalesced += 1;
            st.journal_append(JournalRecord::Accepted {
                tenant: tenant.into(),
                id: id.into(),
                spec,
            });
            st.journal_commit();
            let depth = st.queue.len() as u64;
            send(tx, Reply::Accepted { id: id.into(), queue_depth: depth });
            st.emit_event("accepted", tenant, id, "coalesced");
            let waiter = requester(st.slo.admit(tenant), true);
            if let Some(flight) = st.inflight.get_mut(&key) {
                flight.requesters.push(waiter);
                // A background run a client coalesced onto now answers
                // to that client: it may be abandoned if the client
                // leaves, and its terminal must be journaled (the
                // accepted record above needs one).
                flight.class = RunClass::Client;
            }
            return;
        }

        // Fast path: a cache hit answers instantly — even one sampled
        // for verification, which re-runs in the *background* (the
        // requester must not pay for our own invariant auditing).
        if let Some(hit) = st.cache.lookup(&key) {
            st.counters.accepted += 1;
            st.journal_append(JournalRecord::Accepted {
                tenant: tenant.into(),
                id: id.into(),
                spec: spec.clone(),
            });
            st.journal_terminal(&key, "ok", true);
            st.journal_commit();
            // Settled at once: a cache hit consumes the same
            // deterministic service cycles as the cold run that
            // produced the payload.
            let slo_seq = st.slo.admit(tenant);
            st.emit_event("accepted", tenant, id, "cache_hit");
            let expected = hit.verify.then(|| hit.payload.render_compact());
            let timing = JobTiming { queue_us: 0, run_us: 0 };
            let end = End::Ok { payload: hit.payload, cached: true, attempts: 0, timing };
            st.settle(&requester(slo_seq, false), end);
            if let Some(expected) = expected {
                let offered = st
                    .queue
                    .offer(VERIFY_TENANT, QueuedJob { key: key.clone(), spec })
                    .is_ok();
                if offered {
                    st.inflight.insert(
                        key,
                        InFlight {
                            state: RunState::Queued,
                            class: RunClass::Verify,
                            requesters: Vec::new(),
                            queue_slot_tenant: VERIFY_TENANT.into(),
                            verify_against: Some(expected),
                            accepted: None,
                        },
                    );
                    drop(st);
                    self.inner.work_ready.notify_one();
                }
                // A full queue skips the sample — verification is
                // opportunistic, load is not allowed to shed for it.
            }
            return;
        }

        // Fresh run: through the bounded fair queue.
        let accepted =
            JournalRecord::Accepted { tenant: tenant.into(), id: id.into(), spec: spec.clone() };
        let depth = match st.queue.offer(tenant, QueuedJob { key: key.clone(), spec }) {
            Ok(depth) => depth,
            Err(reason) => {
                st.shed(tenant, id, reason, tx);
                return;
            }
        };
        st.counters.accepted += 1;
        st.journal_append(accepted.clone());
        st.journal_commit();
        send(tx, Reply::Accepted { id: id.into(), queue_depth: depth as u64 });
        st.emit_event("accepted", tenant, id, "queued");
        let first = requester(st.slo.admit(tenant), false);
        let journaled = st.journal.is_some();
        st.inflight.insert(
            key,
            InFlight {
                state: RunState::Queued,
                class: RunClass::Client,
                requesters: vec![first],
                queue_slot_tenant: tenant.into(),
                verify_against: None,
                accepted: journaled.then_some(accepted),
            },
        );
        drop(st);
        self.inner.work_ready.notify_one();
    }

    /// Cancels a queued, coalesced or running job. The requester gets
    /// an immediate `cancelled` terminal reply; a run nobody else waits
    /// on is aborted at its next control check. Returns whether the job
    /// was found.
    pub fn cancel(&self, tenant: &str, id: &str) -> bool {
        let mut st = self.inner.locked();
        let Some((key, idx)) = st.inflight.iter().find_map(|(k, f)| {
            f.requesters
                .iter()
                .position(|r| r.tenant == tenant && r.id == id)
                .map(|i| (k.clone(), i))
        }) else {
            return false;
        };
        let Some(flight) = st.inflight.get_mut(&key) else {
            return false;
        };
        let requester = flight.requesters.remove(idx);
        let orphaned_in_queue =
            flight.requesters.is_empty() && matches!(flight.state, RunState::Queued);
        st.settle(&requester, End::Cancelled);
        if orphaned_in_queue {
            // Nobody else wants this run: end it before a worker picks
            // up its ticket. Its terminal rides the next group commit.
            self.inner.end_run(&mut st, &key, "abandoned");
        }
        true
    }

    /// Statistics snapshot as a JSON object (the `stats` reply
    /// payload): service counters, per-tenant SLO metrics, queue gauges
    /// and cache counters, plus a `tenants` name list so clients can
    /// parse per-tenant entries without guessing at dots in tenant
    /// names. `tenant`/`prefix` narrow the metrics exactly like the
    /// wire-level `stats` filters.
    pub fn stats_value(&self, tenant: Option<&str>, prefix: Option<&str>) -> Value {
        let st = self.inner.locked();
        let metrics = filter_metrics(&snapshot_metrics(&st), tenant, prefix);
        let tenants = st
            .slo
            .tenant_names()
            .into_iter()
            .filter(|t| tenant.is_none_or(|want| want == t))
            .map(Value::Str)
            .collect();
        let mut obj = Value::obj();
        obj.push("metrics", bench::metrics_to_json(&metrics))
            .push("tenants", Value::Arr(tenants))
            .push("cache", st.cache.to_value());
        obj
    }

    /// Metrics registry snapshot (service counters + latency
    /// histogram), for embedding or dumping.
    pub fn metrics(&self) -> MetricsRegistry {
        snapshot_metrics(&self.inner.locked())
    }

    /// Registers a `watch` subscriber on `tx`. `pending` must be
    /// decremented by the owner of `tx` as each event frame actually
    /// reaches the subscriber (the socket writer does this); `buffer`
    /// caps frames in flight, beyond which frames are dropped and
    /// counted rather than queued. Returns the effective buffer.
    pub fn watch(
        &self,
        tenant: Option<String>,
        buffer: Option<u64>,
        tx: Sender<Reply>,
        pending: Arc<AtomicUsize>,
    ) -> u64 {
        let cap = buffer
            .unwrap_or(limits::DEFAULT_WATCH_BUFFER)
            .clamp(1, limits::MAX_WATCH_BUFFER);
        let mut st = self.inner.locked();
        st.watchers.push(Watcher {
            tx,
            pending,
            cap: cap as usize,
            tenant,
            seq: 0,
            dropped: 0,
        });
        cap
    }

    /// Begins a graceful shutdown: no new admissions, queued jobs are
    /// shed with typed replies, in-flight runs finish normally.
    pub fn shutdown(&self) {
        let mut st = self.inner.locked();
        if st.shutting_down {
            return;
        }
        st.shutting_down = true;
        // The drain is journaled as each run's terminal, so a restart
        // does not resurrect work the clients were told was shed.
        let outcome = format!("shed:{}", ShedReason::ShuttingDown.tag());
        for (_, job) in st.queue.drain() {
            if let Some(flight) = self.inner.end_run(&mut st, &job.key, &outcome) {
                for r in &flight.requesters {
                    st.settle(r, End::Shed(ShedReason::ShuttingDown));
                }
            }
        }
        st.journal_commit();
        // Watch subscriptions end with the service: clearing them drops
        // our `Sender` clones so connection writer loops can finish.
        st.watchers.clear();
        drop(st);
        self.inner.work_ready.notify_all();
    }

    /// Blocks until every worker has exited (call after
    /// [`Service::shutdown`]). Consumes the service.
    pub fn join(mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            // A worker that somehow panicked outside the job boundary
            // is already dead; joining it cannot bring it back, so the
            // error is ignored rather than propagated.
            let _ = handle.join();
        }
        // Final flush: every terminal the drained workers wrote is on
        // disk before the process exits.
        self.inner.locked().journal_commit();
    }

    /// Blocks until every worker has exited (after [`Service::shutdown`])
    /// and flushes the journal — the shared-handle drain used by the
    /// socket server, which cannot consume the service like
    /// [`Service::join`] does.
    pub fn drain_workers(&self) {
        let begun = Instant::now();
        let mut st = self.inner.locked();
        while st.live_workers > 0 {
            st = self.inner.idle.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.drain_us = Some(begun.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        st.journal_commit();
    }

    /// Blocks until no work is queued or running (test/soak helper).
    pub fn quiesce(&self) {
        let mut st = self.inner.locked();
        while !(st.queue.is_empty() && st.inflight.is_empty()) {
            st = self.inner.idle.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

fn latency_histogram() -> Histogram {
    // Microsecond edges from sub-millisecond to minutes.
    Histogram::new(&[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000])
}

fn snapshot_metrics(st: &State) -> MetricsRegistry {
    let c = &st.counters;
    let mut m = MetricsRegistry::new();
    m.counter("service.submitted", c.submitted, "jobs offered to admission control");
    m.counter("service.accepted", c.accepted, "jobs admitted (queued, coalesced or cache hits)");
    m.counter("service.shed", c.shed(), "jobs refused with a typed shed reply");
    m.counter("service.completed", c.completed, "jobs finished with a result");
    m.counter("service.failed", c.failed, "jobs finished with a typed error");
    m.counter("service.cancelled", c.cancelled, "requesters cancelled");
    m.counter("service.deadline_expired", c.deadline_expired, "requesters past their deadline");
    m.counter("service.panics_contained", c.panics_contained, "job panics caught at the boundary");
    m.counter("service.retries", c.retries, "extra simulation attempts consumed");
    m.counter("service.coalesced", c.coalesced, "submissions coalesced onto in-flight runs");
    m.counter("service.poisoned_locks", c.poisoned_locks, "poisoned state locks recovered");
    m.counter("service.recovered_jobs", c.recovered, "journaled jobs re-enqueued after a restart");
    m.counter(
        "service.checkpoints_written",
        c.checkpoints_written,
        "resumable job checkpoints persisted",
    );
    m.counter(
        "service.checkpoints_resumed",
        c.checkpoints_resumed,
        "runs resumed from a persisted checkpoint",
    );
    m.counter("service.shed_overloaded", c.shed_overloaded, "sheds: global queue or tenant table full");
    m.counter("service.shed_quota", c.shed_quota, "sheds: tenant active-job quota exhausted");
    m.counter("service.shed_shutting_down", c.shed_shutdown, "sheds: daemon draining");
    m.counter("service.watch.emitted", c.watch_emitted, "event frames delivered to watch subscribers");
    m.counter(
        "service.watch.dropped_frames",
        c.watch_dropped,
        "event frames dropped because a watch subscriber was slow",
    );
    let cache = st.cache.stats();
    m.counter("sim.cache.hits", cache.hits, "result-cache hits (instant terminal replies)");
    m.counter("sim.cache.misses", cache.misses, "result-cache misses (fresh simulations)");
    m.counter("sim.cache.disk_errors", cache.disk_errors, "persistent-cache I/O failures absorbed");
    m.counter(
        "sim.cache.verify_mismatch",
        cache.verify_failures,
        "cache verification re-runs whose payload differed from the cached bytes",
    );
    if let Some(journal) = &st.journal {
        m.counter("service.journal_errors", journal.errors(), "journal I/O failures absorbed");
        m.gauge("service.journal_bytes", journal.len_bytes() as f64, "journal size on disk");
    }
    m.gauge("service.queue_depth", st.queue.len() as f64, "jobs currently queued");
    m.gauge("service.tenants", st.queue.tenants() as f64, "distinct tenants tracked");
    m.gauge("service.watch.subscribers", st.watchers.len() as f64, "live watch subscribers");
    if let Some(us) = st.drain_us {
        // Wall clock: nondeterministic by nature, excluded from golden
        // comparisons (gauges published only after a drain).
        m.gauge("service.drain_us", us as f64, "wall time the last worker drain took (µs)");
    }
    m.histogram(
        "service.latency_us",
        st.latency_us.clone(),
        "admission-to-terminal latency of executed jobs (µs)",
    );
    st.slo.publish(&mut m);
    m
}

/// Applies the `stats` request's `tenant`/`prefix` filters to a metrics
/// snapshot. A tenant filter keeps that tenant's `service.tenant.<T>.*`
/// entries plus every tenant-less entry; a prefix filter keeps entries
/// whose dotted name starts with the prefix. Both compose.
fn filter_metrics(
    full: &MetricsRegistry,
    tenant: Option<&str>,
    prefix: Option<&str>,
) -> MetricsRegistry {
    if tenant.is_none() && prefix.is_none() {
        return full.clone();
    }
    let tenant_prefix = tenant.map(|t| format!("service.tenant.{t}."));
    let mut out = MetricsRegistry::new();
    for metric in full.iter() {
        if prefix.is_some_and(|p| !metric.name.starts_with(p)) {
            continue;
        }
        if let Some(want) = &tenant_prefix {
            if metric.name.starts_with("service.tenant.") && !metric.name.starts_with(want) {
                continue;
            }
        }
        match &metric.value {
            occamy_sim::MetricValue::Counter(v) => out.counter(&metric.name, *v, &metric.desc),
            occamy_sim::MetricValue::Gauge(v) => out.gauge(&metric.name, *v, &metric.desc),
            occamy_sim::MetricValue::Histogram(h) => {
                out.histogram(&metric.name, h.clone(), &metric.desc)
            }
        }
    }
    out
}

/// Restores durable state from `dir` at startup: persistent cache,
/// journal replay, and re-enqueue of incomplete jobs. Degrades to
/// in-memory operation on I/O failure — a broken disk must not keep the
/// service down.
fn recover_state(st: &mut State, dir: &Path, config: &ServiceConfig) {
    if std::fs::create_dir_all(dir.join("checkpoints")).is_err() {
        return;
    }
    // Persistence is best-effort: a failed attach leaves a working
    // in-memory cache.
    let _ = st.cache.attach_disk(&dir.join("cache"), config.disk_cache_bytes);
    let journal_cfg = JournalConfig { max_bytes: config.journal_max_bytes };
    let Ok((journal, records, _report)) = Journal::open(&dir.join("journal.log"), journal_cfg)
    else {
        return;
    };
    st.journal = Some(journal);
    for job in plan_recovery(&records).incomplete {
        if job.spec.deadline_ms.is_some() {
            // The wall-clock deadline predates the crash, so it has
            // long expired; journal the terminal directly. Re-running
            // would also cache a result for a key whose crash-free
            // outcome is `deadline`.
            st.journal_terminal(&job.key, "deadline", false);
            continue;
        }
        if st.cache.contains(&job.key) {
            // The result survived in the persistent cache — the crash
            // landed between the cache write and the journal record.
            st.journal_terminal(&job.key, "ok", true);
            continue;
        }
        let accepted = JournalRecord::Accepted {
            tenant: job.tenant.clone(),
            id: job.id,
            spec: job.spec.clone(),
        };
        match st.queue.offer(&job.tenant, QueuedJob { key: job.key.clone(), spec: job.spec }) {
            Ok(_) => {
                st.counters.recovered += 1;
                st.inflight.insert(
                    job.key,
                    InFlight {
                        state: RunState::Queued,
                        class: RunClass::Recovered,
                        requesters: Vec::new(),
                        queue_slot_tenant: job.tenant,
                        verify_against: None,
                        accepted: Some(accepted),
                    },
                );
            }
            Err(reason) => {
                // No room to re-run: the job still gets its journaled
                // terminal, so nothing is silently lost.
                st.journal_terminal(&job.key, &format!("shed:{}", reason.tag()), false);
            }
        }
    }
    if let Some(journal) = &mut st.journal {
        journal.sync();
    }
}

/// Saturating wall-clock span in microseconds (0 when `until < from`,
/// e.g. a waiter that coalesced onto a run already underway).
fn elapsed_us(from: Instant, until: Instant) -> u64 {
    until.saturating_duration_since(from).as_micros().min(u128::from(u64::MAX)) as u64
}

fn send(tx: &Sender<Reply>, reply: Reply) {
    // A gone client cannot receive its reply; dropping it is the only
    // correct behaviour and must not disturb the service.
    let _ = tx.send(reply);
}

fn shed_reply(id: &str, reason: ShedReason) -> Reply {
    Reply::Shed { id: id.into(), kind: reason.tag().into(), detail: reason.detail().into() }
}

/// What the inter-slice control check decided.
enum Control {
    Continue,
    /// No live requesters remain; stop simulating.
    Abandon,
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (key, spec, started) = {
            let mut st = inner.locked();
            loop {
                if let Some((tenant, job)) = st.queue.take() {
                    if let Some(flight) = st.inflight.get_mut(&job.key) {
                        flight.state = RunState::Running;
                        if flight.accepted.is_some() {
                            // Informational; rides along with the next
                            // group commit.
                            st.journal_append(JournalRecord::Started { key: job.key.clone() });
                        }
                    }
                    let (_, id) = st.flight_identity(&job.key);
                    st.emit_event("started", &tenant, &id, short_address(&job.key).as_str());
                    break (job.key, job.spec, Instant::now());
                }
                if st.shutting_down {
                    st.live_workers -= 1;
                    inner.idle.notify_all();
                    return;
                }
                st = inner.work_ready.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };

        // Sweep before spending any simulation time: the job may have
        // waited out its deadline (or been fully cancelled) in queue.
        if matches!(sweep(inner, &key), Control::Abandon) {
            finish(inner, &key, started, None);
            continue;
        }

        // The crash-isolation boundary: a panic anywhere in the attempt
        // loop (chaos hook or a genuine simulator bug) is contained
        // here and fails only this job. The closure touches no shared
        // state — replies and bookkeeping happen after the boundary —
        // so unwinding cannot leave the service torn.
        let attempt_outcome = catch_unwind(AssertUnwindSafe(|| execute(inner, &key, &spec)));
        let outcome = match attempt_outcome {
            Ok(outcome) => outcome,
            Err(panic) => {
                let mut st = inner.locked();
                st.counters.panics_contained += 1;
                drop(st);
                Outcome { attempts: 1, result: Err(JobError::Panicked(panic_message(&panic))) }
            }
        };
        finish(inner, &key, started, Some(outcome));
    }
}

struct Outcome {
    attempts: u32,
    result: Result<Value, JobError>,
}

/// Runs the attempt loop (build → sliced simulate → stats), with
/// bounded retry under seeded backoff for fault-injected failures.
fn execute(inner: &Arc<Inner>, key: &str, spec: &JobSpec) -> Outcome {
    match spec.chaos {
        Some(ChaosKind::Panic) => {
            // The deliberate crash-isolation probe. Allow-listed in the
            // panic lint: this line exists to prove the catch_unwind
            // boundary works.
            panic!("chaos: deliberate panic probe");
        }
        Some(ChaosKind::Fault) => {
            return Outcome {
                attempts: 1,
                result: Err(JobError::Chaos("chaos: synthetic fault probe".into())),
            };
        }
        None => {}
    }

    // Only fault-injected runs can fail transiently: the per-attempt
    // fault seed is re-salted, so a retry sees different faults. All
    // other failures are deterministic and retrying repeats them.
    let retryable = |e: &JobError| {
        spec.inject.is_some()
            && matches!(e, JobError::TimedOut { .. } | JobError::Faulted { .. })
    };
    let salt = spec.seed ^ crate::protocol::fnv1a(key.as_bytes());
    let retry = run_with_retry(
        inner.config.max_attempts,
        &inner.config.backoff,
        salt,
        retryable,
        |attempt| run_attempt(inner, key, spec, attempt),
    );
    if retry.attempts > 1 {
        let mut st = inner.locked();
        st.counters.retries += u64::from(retry.attempts - 1);
        let (tenant, id) = st.flight_identity(key);
        st.emit_event("retried", &tenant, &id, &format!("attempts={}", retry.attempts));
    }
    Outcome { attempts: retry.attempts, result: retry.result }
}

/// One simulation attempt: fresh machine, sliced run with control
/// checks between slices. With a state dir, first attempts periodically
/// persist a resumable checkpoint and resume from one left by a crashed
/// process — simulations are deterministic, so the resumed run's result
/// is byte-identical to an uninterrupted one.
fn run_attempt(inner: &Arc<Inner>, key: &str, spec: &JobSpec, attempt: u32) -> Result<Value, JobError> {
    let specs = resolve_workloads(spec).map_err(JobError::Build)?;
    let cfg = SimConfig::paper(specs.len().max(2));
    let arch = resolve_arch(&spec.arch, &specs, &cfg);
    let mut machine = corun::build_machine(&specs, &cfg, &arch, spec.scale)
        .map_err(|e| JobError::Build(e.to_string()))?;
    machine.set_mode(spec.mode).map_err(|e| JobError::Build(e.to_string()))?;
    machine.set_watchdog(inner.config.watchdog);
    if let Some(inject) = &spec.inject {
        let mut plan = FaultPlan::parse(inject).map_err(JobError::Build)?;
        // Re-salt per attempt: a retry faces fresh (but deterministic)
        // faults instead of replaying the exact failure.
        plan.seed ^= u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        machine.set_fault_plan(&plan);
    }

    // Checkpoints apply only to first attempts: a retry re-salts the
    // fault seed, so a checkpoint from a different attempt would resume
    // a different fault stream.
    let ck_path = if attempt == 0 { checkpoint_path(inner, key) } else { None };
    let mut horizon = 0u64;
    if let Some(path) = &ck_path {
        if let Some(resumed_horizon) = load_checkpoint(&mut machine, path, key) {
            horizon = resumed_horizon;
            let mut st = inner.locked();
            st.counters.checkpoints_resumed += 1;
            let (tenant, id) = st.flight_identity(key);
            st.emit_event("resumed", &tenant, &id, &format!("horizon={resumed_horizon}"));
        }
    }

    // `Machine::run` treats the budget as an absolute cycle deadline
    // and resumes on repeated calls, so the run is sliced to give
    // cancellation and deadline sweeps a bounded reaction time.
    let slice = inner.config.slice_cycles.max(1);
    let mut slices_since_ck = 0u32;
    loop {
        horizon = horizon.saturating_add(slice).min(spec.max_cycles);
        let stats = machine
            .run(horizon)
            .map_err(|e| JobError::Faulted { kind: e.kind().into(), detail: e.to_string() })?;
        if stats.completed {
            return Ok(bench::stats_to_json(&stats));
        }
        if horizon >= spec.max_cycles {
            return Err(JobError::TimedOut { cycles: stats.cycles });
        }
        if matches!(sweep(inner, key), Control::Abandon) {
            // Every requester is gone; the distinction between
            // cancellation and deadline was already reported to each
            // of them by the sweep.
            return Err(JobError::Cancelled);
        }
        if let Some(path) = &ck_path {
            slices_since_ck += 1;
            if slices_since_ck >= inner.config.checkpoint_slices.max(1) {
                slices_since_ck = 0;
                if save_checkpoint(&machine, path, key, horizon) {
                    inner.locked().counters.checkpoints_written += 1;
                }
            }
        }
    }
}

/// Where a run's resumable checkpoint lives (state dir only).
fn checkpoint_path(inner: &Inner, key: &str) -> Option<PathBuf> {
    inner
        .config
        .state_dir
        .as_ref()
        .map(|d| d.join("checkpoints").join(format!("{}.ck", short_address(key))))
}

/// Checkpoint file layout: `u64` resume horizon (LE), `u32` key length
/// (LE), the full canonical key, then the versioned CRC-guarded
/// snapshot from [`occamy_sim::snapshot_to_bytes`]. The key is stored
/// in full because the file name is only a 64-bit content address.
fn save_checkpoint(machine: &Machine, path: &Path, key: &str, horizon: u64) -> bool {
    let Ok(snapshot) = occamy_sim::snapshot_to_bytes(&machine.snapshot()) else {
        // Refused (observer state enabled) — checkpointing is an
        // optimization, the run continues without it.
        return false;
    };
    let mut bytes = Vec::with_capacity(16 + key.len() + snapshot.len());
    bytes.extend_from_slice(&horizon.to_le_bytes());
    bytes.extend_from_slice(&(key.len() as u32).to_le_bytes());
    bytes.extend_from_slice(key.as_bytes());
    bytes.extend_from_slice(&snapshot);
    write_atomically(path, &bytes).is_ok()
}

/// Restores a checkpoint left by a crashed process, returning the
/// horizon to resume from. Any mismatch or corruption (the snapshot
/// layer CRC-checks itself) falls back to a fresh run.
fn load_checkpoint(machine: &mut Machine, path: &Path, key: &str) -> Option<u64> {
    let bytes = std::fs::read(path).ok()?;
    let horizon = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
    let key_len = u32::from_le_bytes(bytes.get(8..12)?.try_into().ok()?) as usize;
    let stored_key = bytes.get(12..12 + key_len)?;
    if stored_key != key.as_bytes() {
        // A different key hashed to the same address; ignore the file.
        return None;
    }
    let snapshot = occamy_sim::snapshot_from_bytes(bytes.get(12 + key_len..)?).ok()?;
    machine.restore_snapshot(&snapshot);
    Some(horizon)
}

/// Removes deadline-expired requesters (settling each), and reports
/// whether anyone is still waiting.
fn sweep(inner: &Arc<Inner>, key: &str) -> Control {
    let now = Instant::now();
    let mut st = inner.locked();
    let Some(flight) = st.inflight.get_mut(key) else {
        return Control::Abandon;
    };
    let expired: Vec<Requester> =
        flight.requesters.extract_if(.., |r| r.deadline.is_some_and(|d| d <= now)).collect();
    // Requester-less background runs (recovery, verification) answer
    // to the journal or the cache, not to a client — they are never
    // abandoned for having no audience.
    let abandon = flight.requesters.is_empty() && flight.class == RunClass::Client;
    for r in &expired {
        st.settle(r, End::Failed(&JobError::Deadline));
    }
    if abandon {
        Control::Abandon
    } else {
        Control::Continue
    }
}

/// Ends a worker's run: updates the cache, then ends the run and
/// settles every requester still waiting on it. `outcome: None` means
/// the run was abandoned (its requesters were already settled by sweeps
/// or cancellation).
fn finish(inner: &Arc<Inner>, key: &str, started: Instant, outcome: Option<Outcome>) {
    let wall_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    // The run is over; its resumable checkpoint (if any) is obsolete.
    if let Some(path) = checkpoint_path(inner, key) {
        let _ = std::fs::remove_file(path);
    }
    let mut st = inner.locked();
    st.latency_us.observe(wall_us);
    let State { inflight, cache, .. } = &mut *st;
    let Some(flight) = inflight.get(key) else {
        return;
    };
    if let Some(Outcome { result, .. }) = &outcome {
        if let Some(expected) = &flight.verify_against {
            // A verification re-run of a cached `ok`. The simulator is
            // deterministic, so a failed or different re-run is a
            // mismatch — it poisons the entry and is counted.
            let matched = result.as_ref().is_ok_and(|p| p.render_compact() == *expected);
            cache.report_verification(key, matched);
        }
        // Ordering matters for exactly-once: the durable cache write
        // lands *before* the journal terminal. A crash in between
        // re-enqueues the job on restart, which then hits the
        // persistent cache and journals `cached: true` — never a second
        // fresh `ok`.
        if let Ok(payload) = result {
            cache.insert(key.to_owned(), payload.clone());
        }
    }
    let terminal = match &outcome {
        None => "abandoned",
        Some(Outcome { result: Ok(_), .. }) => "ok",
        Some(Outcome { result: Err(error), .. }) => error.tag(),
    };
    let Some(flight) = inner.end_run(&mut st, key, terminal) else {
        return;
    };
    if flight.accepted.is_some() {
        // The journaled terminal is durable before any reply leaves.
        st.journal_commit();
    }
    match outcome {
        // Requesters that slipped in between the last sweep and here
        // get a cancelled reply so no one waits forever.
        None => {
            for r in &flight.requesters {
                st.settle(r, End::Abandoned);
            }
        }
        Some(Outcome { attempts, result: Ok(payload) }) => {
            // Advance the service's virtual clock by this fresh run's
            // simulated cycles (cache hits never reach here).
            let cycles = payload.get("cycles").and_then(Value::as_u64).unwrap_or(0);
            st.vcycles = st.vcycles.saturating_add(cycles);
            let now = Instant::now();
            for (i, r) in flight.requesters.iter().enumerate() {
                let timing = JobTiming {
                    queue_us: elapsed_us(r.submitted, started),
                    run_us: elapsed_us(started.max(r.submitted), now),
                };
                // The first requester paid for the run; the rest were
                // coalesced onto it.
                let end = End::Ok { payload: payload.clone(), cached: i > 0, attempts, timing };
                st.settle(r, end);
            }
        }
        Some(Outcome { result: Err(error), .. }) => {
            for r in &flight.requesters {
                st.settle(r, End::Failed(&error));
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// Resolves workload names to specs: `WL1`–`WL22` (SPEC), `cv1`–`cv12`
/// (OpenCV), or `synth:<loads>,<stores>,<flops>[,<trip>[,<repeat>]]`.
///
/// # Errors
///
/// Returns a human-readable description of the first unresolvable name
/// (surfaced as a `build` error reply).
pub fn resolve_workloads(spec: &JobSpec) -> Result<Vec<WorkloadSpec>, String> {
    spec.workloads.iter().map(|name| resolve_workload(name)).collect()
}

fn resolve_workload(name: &str) -> Result<WorkloadSpec, String> {
    if let Some(n) = name.strip_prefix("WL") {
        let i: usize = n.parse().map_err(|_| format!("bad SPEC workload `{name}`"))?;
        if !(1..=22).contains(&i) {
            return Err(format!("SPEC workload index {i} out of range 1..=22"));
        }
        return Ok(table3::spec_workload(i, 1.0));
    }
    if let Some(n) = name.strip_prefix("cv") {
        let i: usize = n.parse().map_err(|_| format!("bad OpenCV workload `{name}`"))?;
        if !(1..=12).contains(&i) {
            return Err(format!("OpenCV workload index {i} out of range 1..=12"));
        }
        return Ok(table3::opencv_workload(i, 1.0));
    }
    if let Some(rest) = name.strip_prefix("synth:") {
        return resolve_synth(rest);
    }
    Err(format!("unknown workload `{name}` (expected WL1..22, cv1..12, or synth:...)"))
}

fn resolve_synth(rest: &str) -> Result<WorkloadSpec, String> {
    let parts: Vec<u64> = rest
        .split(',')
        .map(|p| p.trim().parse::<u64>().map_err(|_| format!("bad synth parameter `{p}`")))
        .collect::<Result<_, _>>()?;
    if !(3..=5).contains(&parts.len()) {
        return Err("synth needs loads,stores,flops[,trip[,repeat]]".into());
    }
    let (loads, stores, flops) = (parts[0] as usize, parts[1] as usize, parts[2] as usize);
    let trip = parts.get(3).copied().unwrap_or(4096) as usize;
    let repeat = parts.get(4).copied().unwrap_or(1) as usize;
    // Pre-validate everything SyntheticSpec would assert on, so a bad
    // spec is a typed build error instead of a panic.
    if loads == 0 || loads > 16 || stores > 16 || flops > 64 {
        return Err("synth needs 1..=16 loads, <=16 stores, <=64 flops".into());
    }
    if stores == 0 && flops == 0 {
        return Err("synth kernel needs some work (stores or flops)".into());
    }
    if stores == 0 {
        return Err("synth needs at least one store".into());
    }
    if flops + stores < loads {
        return Err("synth flops+stores must cover every load".into());
    }
    if !(64..=1 << 20).contains(&trip) || !(1..=64).contains(&repeat) {
        return Err("synth trip must be 64..=1048576 and repeat 1..=64".into());
    }
    let kernel = SyntheticSpec::new(format!("synth_{loads}_{stores}_{flops}"), loads, stores, flops)
        .build();
    let paper_oi = occamy_compiler_oi(&kernel);
    Ok(WorkloadSpec::new(
        format!("synth:{loads},{stores},{flops}"),
        vec![workloads::PhaseSpec { kernel, trip, repeat, paper_oi }],
    ))
}

fn occamy_compiler_oi(kernel: &occamy_compiler::Kernel) -> f64 {
    occamy_compiler::analyze(kernel).oi.mem()
}

fn resolve_arch(arch: &str, specs: &[WorkloadSpec], cfg: &SimConfig) -> Architecture {
    match arch {
        "private" => Architecture::Private,
        "fts" => Architecture::TemporalSharing,
        "vls" => {
            Architecture::StaticSpatialSharing { partition: corun::vls_partition(specs, cfg) }
        }
        // The protocol layer validated the name; anything else is the
        // default architecture.
        _ => Architecture::Occamy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn tiny_spec(seed: u64) -> JobSpec {
        JobSpec {
            workloads: vec!["synth:2,1,2,64".into()],
            scale: 0.05,
            seed,
            max_cycles: 2_000_000,
            ..JobSpec::default()
        }
    }

    fn test_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            backoff: BackoffPolicy { base_us: 1, cap_us: 10, seed: 1 },
            ..ServiceConfig::default()
        }
    }

    fn wait_terminal(rx: &mpsc::Receiver<Reply>) -> Reply {
        loop {
            let reply = rx.recv_timeout(Duration::from_secs(60)).expect("a reply arrives");
            if reply.is_terminal() {
                return reply;
            }
        }
    }

    #[test]
    fn a_job_runs_to_a_result_and_repeats_from_cache() {
        let service = Service::start(test_config());
        let (tx, rx) = mpsc::channel();
        service.submit("t", "j1", tiny_spec(1), &tx);
        let first = wait_terminal(&rx);
        let Reply::Result { cached, attempts, payload, .. } = &first else {
            panic!("expected a result, got {first:?}");
        };
        assert!(!cached);
        assert_eq!(*attempts, 1);
        let cold = payload.render_compact();

        service.submit("t", "j2", tiny_spec(1), &tx);
        let second = wait_terminal(&rx);
        let Reply::Result { cached, attempts, payload, .. } = &second else {
            panic!("expected a result, got {second:?}");
        };
        assert!(*cached, "second submission hits the cache");
        assert_eq!(*attempts, 0);
        assert_eq!(payload.render_compact(), cold, "cache hit is byte-identical");
        service.join();
    }

    #[test]
    fn chaos_panic_is_contained_to_its_job() {
        let service = Service::start(test_config());
        let (tx, rx) = mpsc::channel();
        let mut chaos = tiny_spec(2);
        chaos.chaos = Some(ChaosKind::Panic);
        service.submit("t", "boom", chaos, &tx);
        let reply = wait_terminal(&rx);
        let Reply::Error { kind, .. } = &reply else {
            panic!("expected an error, got {reply:?}");
        };
        assert_eq!(kind, "panic");

        // The service survives and still runs real jobs.
        service.submit("t", "after", tiny_spec(3), &tx);
        assert!(matches!(wait_terminal(&rx), Reply::Result { .. }));
        let stats = service.metrics();
        match stats.get("service.panics_contained") {
            Some(occamy_sim::MetricValue::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("missing panic counter: {other:?}"),
        }
        service.join();
    }

    #[test]
    fn duplicate_ids_and_bad_builds_get_typed_errors() {
        let service = Service::start(test_config());
        let (tx, rx) = mpsc::channel();
        let mut bad = tiny_spec(4);
        bad.workloads = vec!["synth:9,1,2,64".into()]; // flops+stores < loads
        service.submit("t", "bad", bad, &tx);
        let reply = wait_terminal(&rx);
        let Reply::Error { kind, .. } = &reply else {
            panic!("expected an error, got {reply:?}");
        };
        assert_eq!(kind, "build");
        service.join();
    }

    #[test]
    fn zero_deadline_jobs_expire_instead_of_running() {
        let service = Service::start(test_config());
        let (tx, rx) = mpsc::channel();
        let mut spec = tiny_spec(5);
        spec.deadline_ms = Some(0);
        service.submit("t", "late", spec, &tx);
        let reply = wait_terminal(&rx);
        let Reply::Error { kind, .. } = &reply else {
            panic!("expected an error, got {reply:?}");
        };
        assert_eq!(kind, "deadline");
        service.join();
    }

    #[test]
    fn shutdown_sheds_queued_work_with_typed_replies() {
        // One worker and a long job keep the rest queued.
        let config = ServiceConfig { workers: 1, ..test_config() };
        let service = Service::start(config);
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            service.submit("t", &format!("j{i}"), tiny_spec(100 + i), &tx);
        }
        service.shutdown();
        // Submissions after shutdown are shed immediately.
        service.submit("t", "late", tiny_spec(999), &tx);
        let mut terminals = 0;
        while terminals < 5 {
            if wait_terminal(&rx).is_terminal() {
                terminals += 1;
            }
        }
        service.join();
    }

    #[test]
    fn fault_injection_drives_retry_then_typed_failure() {
        let config = ServiceConfig { max_attempts: 3, ..test_config() };
        let service = Service::start(config);
        let (tx, rx) = mpsc::channel();
        let mut spec = tiny_spec(7);
        // A certain transient lane fault: every attempt trips the
        // residue check, so the job burns all three attempts before
        // surfacing a typed failure.
        spec.inject = Some("seed=9,lanet=1.0".into());
        service.submit("t", "j1", spec, &tx);
        let reply = wait_terminal(&rx);
        let Reply::Error { kind, .. } = &reply else {
            panic!("expected a lane-fault error, got {reply:?}");
        };
        assert_eq!(kind, "lane-fault");
        let stats = service.stats_value(None, None).render_compact();
        assert!(
            stats.contains("\"service.retries\":2"),
            "two retries recorded in {stats}"
        );
        service.join();
    }

    #[test]
    fn workload_resolution_covers_all_suites() {
        assert!(resolve_workload("WL8").is_ok());
        assert!(resolve_workload("cv3").is_ok());
        assert!(resolve_workload("synth:4,2,4").is_ok());
        assert!(resolve_workload("WL23").is_err());
        assert!(resolve_workload("cv0").is_err());
        assert!(resolve_workload("synth:0,1,1").is_err());
        assert!(resolve_workload("synth:2,1").is_err());
        assert!(resolve_workload("mystery").is_err());
    }
}
