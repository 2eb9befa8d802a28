//! The `occamyd` wire protocol: line-delimited JSON over a TCP or
//! Unix-domain stream.
//!
//! Each message is one JSON object on one `\n`-terminated line
//! (rendered with [`Value::render_compact`], so string escapes keep
//! embedded newlines out of the framing). Requests flow client → server,
//! replies server → client; the server may interleave replies to
//! different jobs on one connection, so every job-scoped reply carries
//! the job `id`.
//!
//! The decoder is hardened against hostile peers: lines are read
//! through a bounded reader ([`read_frame`], cap [`MAX_LINE_BYTES`]),
//! parsed under [`bench::json::Limits`] (depth- and size-bounded), and
//! schema-checked field by field with typed [`ProtocolError`]s — no
//! panics, no allocation beyond the line cap.

use std::io::BufRead;

use bench::json::{self, Limits, ParseErrorKind, Value};
use occamy_sim::{FaultPlan, SimMode};

/// Upper bound on one protocol line, including the newline. Covers the
/// largest legitimate message (a sweep result payload stays well under
/// 32 KiB) with headroom; longer lines are drained and rejected.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

/// Hard caps on request fields, enforced at decode time so a hostile
/// tenant cannot make the service allocate or simulate unboundedly.
pub mod limits {
    /// Longest accepted tenant or job-id string.
    pub const MAX_NAME: usize = 64;
    /// Most workloads (cores) per job.
    pub const MAX_WORKLOADS: usize = 8;
    /// Longest accepted fault-injection spec string.
    pub const MAX_INJECT: usize = 256;
    /// Largest accepted trip-count scale.
    pub const MAX_SCALE: f64 = 4.0;
    /// Largest accepted per-job cycle budget.
    pub const MAX_CYCLES: u64 = 500_000_000;
    /// Largest accepted deadline (one hour).
    pub const MAX_DEADLINE_MS: u64 = 3_600_000;
    /// Longest accepted stats metric-name prefix filter.
    pub const MAX_PREFIX: usize = 128;
    /// Largest accepted per-subscriber watch buffer (frames in flight).
    pub const MAX_WATCH_BUFFER: u64 = 65_536;
    /// Watch buffer used when the subscriber does not pick one.
    pub const DEFAULT_WATCH_BUFFER: u64 = 1_024;
}

/// Why a message was rejected before reaching the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolErrorKind {
    /// Not valid JSON (syntax or nesting-depth violation).
    Malformed,
    /// The line ended inside a JSON value.
    Truncated,
    /// The line exceeds [`MAX_LINE_BYTES`] (or the JSON size limit).
    Oversized,
    /// Valid JSON that does not match the request schema.
    Schema,
    /// The stream failed mid-message (connection error).
    Io,
}

impl ProtocolErrorKind {
    /// Stable machine-readable tag used in `protocol_error` replies.
    pub fn tag(self) -> &'static str {
        match self {
            ProtocolErrorKind::Malformed => "malformed",
            ProtocolErrorKind::Truncated => "truncated",
            ProtocolErrorKind::Oversized => "oversized",
            ProtocolErrorKind::Schema => "schema",
            ProtocolErrorKind::Io => "io",
        }
    }
}

/// A typed protocol-level rejection. The connection survives every kind
/// except [`ProtocolErrorKind::Io`]; the offending line is consumed and
/// the peer may send the next message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Failure class.
    pub kind: ProtocolErrorKind,
    /// Human-readable detail.
    pub detail: String,
}

impl ProtocolError {
    /// A schema violation with the given detail.
    pub fn schema(detail: impl Into<String>) -> Self {
        ProtocolError { kind: ProtocolErrorKind::Schema, detail: detail.into() }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error ({}): {}", self.kind.tag(), self.detail)
    }
}

impl std::error::Error for ProtocolError {}

impl From<json::ParseError> for ProtocolError {
    fn from(e: json::ParseError) -> Self {
        let kind = match e.kind {
            ParseErrorKind::Truncated => ProtocolErrorKind::Truncated,
            ParseErrorKind::Oversized => ProtocolErrorKind::Oversized,
            ParseErrorKind::Syntax | ParseErrorKind::TooDeep => ProtocolErrorKind::Malformed,
        };
        ProtocolError { kind, detail: e.to_string() }
    }
}

/// Chaos hooks for robustness campaigns (the `load_test` binary and the
/// soak suite). Documented and accepted on the wire so campaigns can
/// exercise the daemon end to end; a production deployment would gate
/// them behind an operator flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// The job panics inside the worker — proves the `catch_unwind`
    /// crash-isolation boundary turns it into a structured error reply.
    Panic,
    /// The job reports a synthetic simulation fault without running.
    Fault,
}

impl ChaosKind {
    fn parse(s: &str) -> Result<ChaosKind, ProtocolError> {
        match s {
            "panic" => Ok(ChaosKind::Panic),
            "fault" => Ok(ChaosKind::Fault),
            other => Err(ProtocolError::schema(format!(
                "unknown chaos kind `{other}` (expected panic|fault)"
            ))),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            ChaosKind::Panic => "panic",
            ChaosKind::Fault => "fault",
        }
    }
}

/// One simulation job: which workloads to co-run, on what architecture,
/// at what scale, in which execution mode, with optional deterministic
/// fault injection — plus service-level bounds (cycle budget, wall
/// deadline).
///
/// The tuple `(workloads, arch, scale, mode, inject, seed, max_cycles,
/// chaos)` is the job's *identity*: runs are deterministic in it, so it
/// is also the result-cache key ([`JobSpec::canonical_key`]). The
/// deadline is service-level and deliberately not part of the identity.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Workload names, one per core: `WL1`–`WL22` (SPEC), `cv1`–`cv12`
    /// (OpenCV), or `synth:<loads>,<stores>,<flops>[,<trip>[,<repeat>]]`.
    pub workloads: Vec<String>,
    /// `occamy` | `private` | `fts` | `vls`.
    pub arch: String,
    /// Trip-count multiplier in `(0, MAX_SCALE]`.
    pub scale: f64,
    /// Two-speed execution mode: `timing` or `functional`.
    pub mode: SimMode,
    /// Optional [`FaultPlan`] spec (validated at decode time). The plan
    /// seed is re-salted per retry attempt, modelling transient faults.
    pub inject: Option<String>,
    /// Job seed: salts the retry-backoff jitter stream and the
    /// per-attempt fault-plan seeds.
    pub seed: u64,
    /// Cycle budget per attempt.
    pub max_cycles: u64,
    /// Optional wall-clock deadline, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Chaos hook for robustness campaigns.
    pub chaos: Option<ChaosKind>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            workloads: Vec::new(),
            arch: "occamy".into(),
            scale: 1.0,
            mode: SimMode::Timing,
            inject: None,
            seed: 0,
            max_cycles: 50_000_000,
            deadline_ms: None,
            chaos: None,
        }
    }
}

impl JobSpec {
    /// The job's content address: a canonical, compact rendering of the
    /// identity fields in fixed order. Two specs with equal keys produce
    /// byte-identical results (simulations are deterministic), which is
    /// what makes the result cache and in-flight coalescing sound.
    pub fn canonical_key(&self) -> String {
        let mut obj = Value::obj();
        obj.push(
            "workloads",
            Value::Arr(self.workloads.iter().map(|w| Value::Str(w.clone())).collect()),
        )
        .push("arch", Value::Str(self.arch.clone()))
        .push("scale", Value::Num(self.scale))
        .push("mode", Value::Str(self.mode.to_string()))
        .push(
            "inject",
            self.inject.as_ref().map_or(Value::Null, |s| Value::Str(s.clone())),
        )
        .push("seed", Value::UInt(self.seed))
        .push("max_cycles", Value::UInt(self.max_cycles))
        .push(
            "chaos",
            self.chaos.map_or(Value::Null, |c| Value::Str(c.tag().into())),
        );
        obj.render_compact()
    }

    /// FNV-1a 64 hash of [`JobSpec::canonical_key`] — the short content
    /// address used in logs and stats.
    pub fn key_hash(&self) -> u64 {
        fnv1a(self.canonical_key().as_bytes())
    }

    /// Encodes the spec as the protocol's `job` object.
    pub fn to_value(&self) -> Value {
        let mut obj = Value::obj();
        obj.push(
            "workloads",
            Value::Arr(self.workloads.iter().map(|w| Value::Str(w.clone())).collect()),
        )
        .push("arch", Value::Str(self.arch.clone()))
        .push("scale", Value::Num(self.scale))
        .push("mode", Value::Str(self.mode.to_string()))
        .push("seed", Value::UInt(self.seed))
        .push("max_cycles", Value::UInt(self.max_cycles));
        if let Some(inject) = &self.inject {
            obj.push("inject", Value::Str(inject.clone()));
        }
        if let Some(ms) = self.deadline_ms {
            obj.push("deadline_ms", Value::UInt(ms));
        }
        if let Some(chaos) = self.chaos {
            obj.push("chaos", Value::Str(chaos.tag().into()));
        }
        obj
    }

    /// Decodes and validates a `job` object.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] naming the offending field when the
    /// object violates the schema or the [`limits`].
    pub fn from_value(v: &Value) -> Result<JobSpec, ProtocolError> {
        let mut spec = JobSpec::default();
        let Value::Obj(fields) = v else {
            return Err(ProtocolError::schema("job must be an object"));
        };
        let mut saw_workloads = false;
        for (key, value) in fields {
            match key.as_str() {
                "workloads" => {
                    let items = value.items();
                    if items.is_empty() || items.len() > limits::MAX_WORKLOADS {
                        return Err(ProtocolError::schema(format!(
                            "workloads must list 1..={} names",
                            limits::MAX_WORKLOADS
                        )));
                    }
                    spec.workloads = items
                        .iter()
                        .map(|w| {
                            w.as_str()
                                .filter(|s| !s.is_empty() && s.len() <= limits::MAX_NAME)
                                .map(str::to_owned)
                                .ok_or_else(|| {
                                    ProtocolError::schema(
                                        "each workload must be a non-empty string \
                                         of at most 64 bytes",
                                    )
                                })
                        })
                        .collect::<Result<_, _>>()?;
                    saw_workloads = true;
                }
                "arch" => {
                    let a = value
                        .as_str()
                        .ok_or_else(|| ProtocolError::schema("arch must be a string"))?;
                    if !matches!(a, "occamy" | "private" | "fts" | "vls") {
                        return Err(ProtocolError::schema(format!(
                            "unknown arch `{a}` (expected occamy|private|fts|vls)"
                        )));
                    }
                    spec.arch = a.to_owned();
                }
                "scale" => {
                    let s = value
                        .as_f64()
                        .ok_or_else(|| ProtocolError::schema("scale must be a number"))?;
                    if !(s.is_finite() && s > 0.0 && s <= limits::MAX_SCALE) {
                        return Err(ProtocolError::schema(format!(
                            "scale must be in (0, {}]",
                            limits::MAX_SCALE
                        )));
                    }
                    spec.scale = s;
                }
                "mode" => {
                    let m = value
                        .as_str()
                        .ok_or_else(|| ProtocolError::schema("mode must be a string"))?;
                    spec.mode = SimMode::parse(m)
                        .map_err(|e| ProtocolError::schema(format!("mode: {e}")))?;
                }
                "inject" => {
                    let s = value
                        .as_str()
                        .ok_or_else(|| ProtocolError::schema("inject must be a string"))?;
                    if s.len() > limits::MAX_INJECT {
                        return Err(ProtocolError::schema("inject spec too long"));
                    }
                    FaultPlan::parse(s)
                        .map_err(|e| ProtocolError::schema(format!("inject: {e}")))?;
                    spec.inject = Some(s.to_owned());
                }
                "seed" => {
                    spec.seed = value
                        .as_u64()
                        .ok_or_else(|| ProtocolError::schema("seed must be a u64"))?;
                }
                "max_cycles" => {
                    let c = value
                        .as_u64()
                        .ok_or_else(|| ProtocolError::schema("max_cycles must be a u64"))?;
                    if c == 0 || c > limits::MAX_CYCLES {
                        return Err(ProtocolError::schema(format!(
                            "max_cycles must be in 1..={}",
                            limits::MAX_CYCLES
                        )));
                    }
                    spec.max_cycles = c;
                }
                "deadline_ms" => {
                    let ms = value
                        .as_u64()
                        .ok_or_else(|| ProtocolError::schema("deadline_ms must be a u64"))?;
                    if ms > limits::MAX_DEADLINE_MS {
                        return Err(ProtocolError::schema(format!(
                            "deadline_ms must be at most {}",
                            limits::MAX_DEADLINE_MS
                        )));
                    }
                    spec.deadline_ms = Some(ms);
                }
                "chaos" => {
                    let s = value
                        .as_str()
                        .ok_or_else(|| ProtocolError::schema("chaos must be a string"))?;
                    spec.chaos = Some(ChaosKind::parse(s)?);
                }
                other => {
                    return Err(ProtocolError::schema(format!("unknown job field `{other}`")))
                }
            }
        }
        if !saw_workloads {
            return Err(ProtocolError::schema("job needs a workloads list"));
        }
        Ok(spec)
    }
}

/// FNV-1a 64-bit (the content-address hash; exactness comes from the
/// full canonical key, the hash is for reporting).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job for tenant `tenant` under client-chosen id `id`.
    Submit {
        /// Tenant (quota accounting unit).
        tenant: String,
        /// Client-chosen job id, unique among the tenant's active jobs.
        id: String,
        /// The job.
        job: JobSpec,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Owning tenant.
        tenant: String,
        /// The job id given at submit.
        id: String,
    },
    /// Ask for the service statistics snapshot, optionally narrowed to
    /// one tenant's metrics and/or a dotted metric-name prefix.
    Stats {
        /// Only metrics attributed to this tenant (plus the tenant-less
        /// service-wide entries when combined with no prefix).
        tenant: Option<String>,
        /// Only metrics whose dotted name starts with this prefix.
        prefix: Option<String>,
    },
    /// Subscribe this connection to the live event stream (job
    /// accepted/started/completed/shed/retried/resumed frames). The
    /// stream is lossy by design: a subscriber that cannot keep up has
    /// frames dropped (and counted) rather than stalling the workers.
    Watch {
        /// Only events for this tenant.
        tenant: Option<String>,
        /// Per-subscriber in-flight frame budget (1..=[`limits::MAX_WATCH_BUFFER`]);
        /// defaults to [`limits::DEFAULT_WATCH_BUFFER`].
        buffer: Option<u64>,
    },
    /// Liveness probe.
    Ping,
    /// Ask the daemon to shut down gracefully.
    Shutdown,
}

fn name_field(v: &Value, key: &str) -> Result<String, ProtocolError> {
    let s = v
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ProtocolError::schema(format!("missing string field `{key}`")))?;
    if s.is_empty() || s.len() > limits::MAX_NAME {
        return Err(ProtocolError::schema(format!(
            "`{key}` must be 1..={} bytes",
            limits::MAX_NAME
        )));
    }
    if s.chars().any(|c| c.is_control()) {
        return Err(ProtocolError::schema(format!("`{key}` must not contain control characters")));
    }
    Ok(s.to_owned())
}

/// An optional name-shaped field: absent → `None`, present → validated
/// like [`name_field`] but with a caller-chosen byte cap (the stats
/// prefix filter allows longer dotted paths than tenant/job names).
fn opt_name_field(v: &Value, key: &str, max: usize) -> Result<Option<String>, ProtocolError> {
    let Some(field) = v.get(key) else {
        return Ok(None);
    };
    let s = field
        .as_str()
        .ok_or_else(|| ProtocolError::schema(format!("`{key}` must be a string")))?;
    if s.is_empty() || s.len() > max {
        return Err(ProtocolError::schema(format!("`{key}` must be 1..={max} bytes")));
    }
    if s.chars().any(|c| c.is_control()) {
        return Err(ProtocolError::schema(format!("`{key}` must not contain control characters")));
    }
    Ok(Some(s.to_owned()))
}

impl Request {
    /// Encodes the request as a wire object.
    pub fn to_value(&self) -> Value {
        let mut obj = Value::obj();
        match self {
            Request::Submit { tenant, id, job } => {
                obj.push("op", Value::Str("submit".into()))
                    .push("tenant", Value::Str(tenant.clone()))
                    .push("id", Value::Str(id.clone()))
                    .push("job", job.to_value());
            }
            Request::Cancel { tenant, id } => {
                obj.push("op", Value::Str("cancel".into()))
                    .push("tenant", Value::Str(tenant.clone()))
                    .push("id", Value::Str(id.clone()));
            }
            Request::Stats { tenant, prefix } => {
                obj.push("op", Value::Str("stats".into()));
                if let Some(t) = tenant {
                    obj.push("tenant", Value::Str(t.clone()));
                }
                if let Some(p) = prefix {
                    obj.push("prefix", Value::Str(p.clone()));
                }
            }
            Request::Watch { tenant, buffer } => {
                obj.push("op", Value::Str("watch".into()));
                if let Some(t) = tenant {
                    obj.push("tenant", Value::Str(t.clone()));
                }
                if let Some(b) = buffer {
                    obj.push("buffer", Value::UInt(*b));
                }
            }
            Request::Ping => {
                obj.push("op", Value::Str("ping".into()));
            }
            Request::Shutdown => {
                obj.push("op", Value::Str("shutdown".into()));
            }
        }
        obj
    }

    /// Encodes the request as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_value().render_compact()
    }

    /// Decodes one protocol line into a request.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtocolError`] on malformed/truncated/
    /// oversized JSON or a schema violation.
    pub fn parse_line(line: &str) -> Result<Request, ProtocolError> {
        let limits = Limits { max_bytes: MAX_LINE_BYTES, max_depth: 16 };
        let v = json::parse_limited(line, &limits)?;
        if !matches!(v, Value::Obj(_)) {
            return Err(ProtocolError::schema("request must be a JSON object"));
        }
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtocolError::schema("missing string field `op`"))?;
        match op {
            "submit" => {
                let tenant = name_field(&v, "tenant")?;
                let id = name_field(&v, "id")?;
                let job = v
                    .get("job")
                    .ok_or_else(|| ProtocolError::schema("missing `job` object"))?;
                Ok(Request::Submit { tenant, id, job: JobSpec::from_value(job)? })
            }
            "cancel" => {
                Ok(Request::Cancel { tenant: name_field(&v, "tenant")?, id: name_field(&v, "id")? })
            }
            "stats" => Ok(Request::Stats {
                tenant: opt_name_field(&v, "tenant", limits::MAX_NAME)?,
                prefix: opt_name_field(&v, "prefix", limits::MAX_PREFIX)?,
            }),
            "watch" => {
                let tenant = opt_name_field(&v, "tenant", limits::MAX_NAME)?;
                let buffer = match v.get("buffer") {
                    None => None,
                    Some(b) => {
                        let b = b
                            .as_u64()
                            .ok_or_else(|| ProtocolError::schema("`buffer` must be a u64"))?;
                        if b == 0 || b > limits::MAX_WATCH_BUFFER {
                            return Err(ProtocolError::schema(format!(
                                "`buffer` must be in 1..={}",
                                limits::MAX_WATCH_BUFFER
                            )));
                        }
                        Some(b)
                    }
                };
                Ok(Request::Watch { tenant, buffer })
            }
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::schema(format!("unknown op `{other}`"))),
        }
    }
}

/// Wall-clock timing breakdown attached to a completed reply. These are
/// *nondeterministic* observability numbers (they vary run to run with
/// scheduling); the deterministic virtual-time SLO axis lives in the
/// stats registry, never here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Microseconds between admission and the job leaving the queue
    /// (0 for cache hits and coalesced waiters — they never queue).
    pub queue_us: u64,
    /// Microseconds between leaving the queue and the terminal reply.
    pub run_us: u64,
}

impl JobTiming {
    fn to_value(self) -> Value {
        let mut obj = Value::obj();
        obj.push("queue_us", Value::UInt(self.queue_us)).push("run_us", Value::UInt(self.run_us));
        obj
    }

    fn from_value(v: &Value) -> Option<JobTiming> {
        Some(JobTiming {
            queue_us: v.get("queue_us").and_then(Value::as_u64)?,
            run_us: v.get("run_us").and_then(Value::as_u64)?,
        })
    }
}

/// A server → client message. Every submitted job receives exactly one
/// *terminal* reply — [`Reply::Result`], [`Reply::Error`] or
/// [`Reply::Shed`] — possibly preceded by one [`Reply::Accepted`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The job passed admission control and is queued.
    Accepted {
        /// The job id.
        id: String,
        /// Queue depth right after admission (including this job).
        queue_depth: u64,
    },
    /// Terminal: the job completed; `payload` holds the machine
    /// statistics (byte-identical for cache hits and cold runs).
    Result {
        /// The job id.
        id: String,
        /// Whether the payload came from the result cache or a
        /// coalesced in-flight run rather than a fresh simulation.
        cached: bool,
        /// Simulation attempts consumed (0 for pure cache hits).
        attempts: u32,
        /// Wall-clock queue-wait/service-time breakdown (absent from
        /// replies recovered after a crash restart, where admission
        /// time is unknowable).
        timing: Option<JobTiming>,
        /// The result document.
        payload: Value,
    },
    /// Terminal: the job failed with a typed error.
    Error {
        /// The job id.
        id: String,
        /// Machine-readable failure tag (`build`, `timed_out`, a
        /// `SimError` kind, `panic`, `deadline`, `cancelled`,
        /// `duplicate_id`, `chaos`, `shutdown`…).
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Terminal: admission control refused the job (load shedding).
    Shed {
        /// The job id.
        id: String,
        /// `overloaded`, `quota_exceeded` or `shutting_down`.
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A request line was rejected before reaching the service.
    ProtocolError {
        /// [`ProtocolErrorKind::tag`].
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Liveness answer.
    Pong,
    /// Statistics snapshot.
    Stats {
        /// Counters, queue gauges and cache statistics.
        payload: Value,
    },
    /// Acknowledges a [`Request::Watch`] subscription.
    Watching {
        /// The effective in-flight frame budget for this subscriber.
        buffer: u64,
    },
    /// One live event frame on a watched connection. Frames carry a
    /// per-subscriber sequence number and a cumulative drop counter so
    /// a reader can detect (and quantify) loss from falling behind.
    Event {
        /// Per-subscriber sequence number (monotone from 1).
        seq: u64,
        /// Frames dropped so far because this subscriber was slow.
        dropped: u64,
        /// Virtual-time stamp: total simulated cycles completed by the
        /// service when the event fired.
        vcycles: u64,
        /// `accepted` | `started` | `completed` | `shed` | `retried` |
        /// `resumed`.
        kind: String,
        /// The owning tenant (empty for service-internal runs).
        tenant: String,
        /// The job id (empty for service-internal runs).
        id: String,
        /// Event-specific detail (outcome tag, shed kind, attempt…).
        detail: String,
    },
    /// The daemon acknowledged a shutdown request.
    ShuttingDown,
}

impl Reply {
    /// The job id this reply concerns, if any.
    pub fn id(&self) -> Option<&str> {
        match self {
            Reply::Accepted { id, .. }
            | Reply::Result { id, .. }
            | Reply::Error { id, .. }
            | Reply::Shed { id, .. } => Some(id),
            _ => None,
        }
    }

    /// Whether this is a job's terminal reply.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Reply::Result { .. } | Reply::Error { .. } | Reply::Shed { .. })
    }

    /// Encodes the reply as a wire object.
    pub fn to_value(&self) -> Value {
        let mut obj = Value::obj();
        match self {
            Reply::Accepted { id, queue_depth } => {
                obj.push("reply", Value::Str("accepted".into()))
                    .push("id", Value::Str(id.clone()))
                    .push("queue_depth", Value::UInt(*queue_depth));
            }
            Reply::Result { id, cached, attempts, timing, payload } => {
                obj.push("reply", Value::Str("result".into()))
                    .push("id", Value::Str(id.clone()))
                    .push("cached", Value::Bool(*cached))
                    .push("attempts", Value::UInt(u64::from(*attempts)));
                if let Some(t) = timing {
                    obj.push("timing", t.to_value());
                }
                obj.push("payload", payload.clone());
            }
            Reply::Error { id, kind, detail } => {
                obj.push("reply", Value::Str("error".into()))
                    .push("id", Value::Str(id.clone()))
                    .push("kind", Value::Str(kind.clone()))
                    .push("detail", Value::Str(detail.clone()));
            }
            Reply::Shed { id, kind, detail } => {
                obj.push("reply", Value::Str("shed".into()))
                    .push("id", Value::Str(id.clone()))
                    .push("kind", Value::Str(kind.clone()))
                    .push("detail", Value::Str(detail.clone()));
            }
            Reply::ProtocolError { kind, detail } => {
                obj.push("reply", Value::Str("protocol_error".into()))
                    .push("kind", Value::Str(kind.clone()))
                    .push("detail", Value::Str(detail.clone()));
            }
            Reply::Pong => {
                obj.push("reply", Value::Str("pong".into()));
            }
            Reply::Stats { payload } => {
                obj.push("reply", Value::Str("stats".into())).push("payload", payload.clone());
            }
            Reply::Watching { buffer } => {
                obj.push("reply", Value::Str("watching".into()))
                    .push("buffer", Value::UInt(*buffer));
            }
            Reply::Event { seq, dropped, vcycles, kind, tenant, id, detail } => {
                obj.push("reply", Value::Str("event".into()))
                    .push("seq", Value::UInt(*seq))
                    .push("dropped", Value::UInt(*dropped))
                    .push("vcycles", Value::UInt(*vcycles))
                    .push("kind", Value::Str(kind.clone()))
                    .push("tenant", Value::Str(tenant.clone()))
                    .push("id", Value::Str(id.clone()))
                    .push("detail", Value::Str(detail.clone()));
            }
            Reply::ShuttingDown => {
                obj.push("reply", Value::Str("shutting_down".into()));
            }
        }
        obj
    }

    /// Encodes the reply as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_value().render_compact()
    }

    /// Decodes one protocol line into a reply (the client half).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtocolError`] on malformed input or a schema
    /// violation.
    pub fn parse_line(line: &str) -> Result<Reply, ProtocolError> {
        let limits = Limits { max_bytes: MAX_LINE_BYTES, max_depth: 32 };
        let mut v = json::parse_limited(line, &limits)?;
        let payload = v.remove("payload");
        let tag = v
            .get("reply")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtocolError::schema("missing string field `reply`"))?;
        let id = || {
            v.get("id")
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ProtocolError::schema("missing string field `id`"))
        };
        let string = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ProtocolError::schema(format!("missing string field `{key}`")))
        };
        match tag {
            "accepted" => Ok(Reply::Accepted {
                id: id()?,
                queue_depth: v.get("queue_depth").and_then(Value::as_u64).unwrap_or(0),
            }),
            "result" => Ok(Reply::Result {
                id: id()?,
                cached: v.get("cached").and_then(Value::as_bool).unwrap_or(false),
                attempts: v.get("attempts").and_then(Value::as_u64).unwrap_or(0) as u32,
                timing: v.get("timing").and_then(JobTiming::from_value),
                payload: payload.ok_or_else(|| ProtocolError::schema("missing `payload`"))?,
            }),
            "error" => Ok(Reply::Error { id: id()?, kind: string("kind")?, detail: string("detail")? }),
            "shed" => Ok(Reply::Shed { id: id()?, kind: string("kind")?, detail: string("detail")? }),
            "protocol_error" => {
                Ok(Reply::ProtocolError { kind: string("kind")?, detail: string("detail")? })
            }
            "pong" => Ok(Reply::Pong),
            "stats" => Ok(Reply::Stats {
                payload: payload.ok_or_else(|| ProtocolError::schema("missing `payload`"))?,
            }),
            "watching" => Ok(Reply::Watching {
                buffer: v.get("buffer").and_then(Value::as_u64).unwrap_or(0),
            }),
            "event" => Ok(Reply::Event {
                seq: v.get("seq").and_then(Value::as_u64).unwrap_or(0),
                dropped: v.get("dropped").and_then(Value::as_u64).unwrap_or(0),
                vcycles: v.get("vcycles").and_then(Value::as_u64).unwrap_or(0),
                kind: string("kind")?,
                tenant: string("tenant")?,
                id: string("id")?,
                detail: string("detail")?,
            }),
            "shutting_down" => Ok(Reply::ShuttingDown),
            other => Err(ProtocolError::schema(format!("unknown reply `{other}`"))),
        }
    }
}

/// Reads one `\n`-terminated line with a hard byte cap.
///
/// Returns `Ok(None)` at a clean EOF. A line longer than `max` is
/// drained (the excess is discarded without buffering it) and reported
/// as [`ProtocolErrorKind::Oversized`] — the stream stays usable for
/// the next line. Invalid UTF-8 is reported as malformed.
///
/// # Errors
///
/// [`ProtocolErrorKind::Io`] wraps transport failures; the caller
/// should drop the connection.
pub fn read_frame(reader: &mut impl BufRead, max: usize) -> Result<Option<String>, ProtocolError> {
    read_frame_interruptible(reader, max, || false)
}

/// [`read_frame`] over a stream with a read timeout: timeouts poll
/// `interrupt` and otherwise keep accumulating the current (possibly
/// partial) line, so a slow sender never loses bytes to the poll tick.
/// When `interrupt` reports true, reading stops with a typed
/// [`ProtocolErrorKind::Io`] error.
///
/// # Errors
///
/// [`ProtocolErrorKind::Io`] wraps transport failures and interrupts.
pub fn read_frame_interruptible(
    reader: &mut impl BufRead,
    max: usize,
    interrupt: impl Fn() -> bool,
) -> Result<Option<String>, ProtocolError> {
    let mut line: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if interrupt() {
                    return Err(ProtocolError {
                        kind: ProtocolErrorKind::Io,
                        detail: "interrupted by shutdown".into(),
                    });
                }
                continue;
            }
            Err(e) => return Err(ProtocolError { kind: ProtocolErrorKind::Io, detail: e.to_string() }),
        };
        if available.is_empty() {
            // EOF: a clean end between lines, or mid-line truncation.
            return if line.is_empty() && !overflowed {
                Ok(None)
            } else if overflowed {
                Err(oversized(max))
            } else {
                match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => Err(bad_utf8()),
                }
            };
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if !overflowed {
            let room = max.saturating_sub(line.len());
            if take > room {
                overflowed = true;
                line.clear();
            } else {
                line.extend_from_slice(&available[..take - usize::from(newline.is_some())]);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            return if overflowed {
                Err(oversized(max))
            } else {
                match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => Err(bad_utf8()),
                }
            };
        }
    }
}

fn oversized(max: usize) -> ProtocolError {
    ProtocolError {
        kind: ProtocolErrorKind::Oversized,
        detail: format!("line exceeds the {max}-byte frame limit"),
    }
}

fn bad_utf8() -> ProtocolError {
    ProtocolError { kind: ProtocolErrorKind::Malformed, detail: "line is not valid UTF-8".into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            workloads: vec!["WL8".into(), "WL17".into()],
            arch: "occamy".into(),
            scale: 0.05,
            seed: 7,
            deadline_ms: Some(2_000),
            ..JobSpec::default()
        }
    }

    #[test]
    fn submit_round_trips() {
        let req = Request::Submit { tenant: "alice".into(), id: "j1".into(), job: spec() };
        let line = req.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Request::parse_line(&line).expect("round trip"), req);
    }

    #[test]
    fn control_ops_round_trip() {
        for req in [
            Request::Cancel { tenant: "t".into(), id: "j".into() },
            Request::Stats { tenant: None, prefix: None },
            Request::Stats { tenant: Some("alice".into()), prefix: Some("service.".into()) },
            Request::Watch { tenant: None, buffer: None },
            Request::Watch { tenant: Some("alice".into()), buffer: Some(16) },
            Request::Ping,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse_line(&req.to_line()).expect("round trip"), req);
        }
        // The pre-filter wire form still parses (older clients).
        assert_eq!(
            Request::parse_line("{\"op\":\"stats\"}").expect("bare stats"),
            Request::Stats { tenant: None, prefix: None }
        );
    }

    #[test]
    fn stats_and_watch_filters_are_validated() {
        let long = "p".repeat(limits::MAX_PREFIX + 1);
        let cases = [
            format!("{{\"op\":\"stats\",\"prefix\":\"{long}\"}}"),
            "{\"op\":\"stats\",\"prefix\":\"\"}".to_owned(),
            "{\"op\":\"stats\",\"tenant\":42}".to_owned(),
            "{\"op\":\"stats\",\"prefix\":\"a\\nb\"}".to_owned(),
            "{\"op\":\"watch\",\"buffer\":0}".to_owned(),
            "{\"op\":\"watch\",\"buffer\":100000}".to_owned(),
            "{\"op\":\"watch\",\"buffer\":\"big\"}".to_owned(),
            format!("{{\"op\":\"watch\",\"tenant\":\"{}\"}}", "t".repeat(limits::MAX_NAME + 1)),
        ];
        for line in &cases {
            let e = Request::parse_line(line).expect_err(line);
            assert_eq!(e.kind, ProtocolErrorKind::Schema, "{line} → {e}");
        }
    }

    #[test]
    fn replies_round_trip() {
        let mut payload = Value::obj();
        payload.push("cycles", Value::UInt(123));
        for reply in [
            Reply::Accepted { id: "j".into(), queue_depth: 4 },
            Reply::Result {
                id: "j".into(),
                cached: true,
                attempts: 2,
                timing: None,
                payload: payload.clone(),
            },
            Reply::Result {
                id: "j".into(),
                cached: false,
                attempts: 1,
                timing: Some(JobTiming { queue_us: 1500, run_us: 42_000 }),
                payload: payload.clone(),
            },
            Reply::Error { id: "j".into(), kind: "panic".into(), detail: "boom".into() },
            Reply::Shed { id: "j".into(), kind: "overloaded".into(), detail: "full".into() },
            Reply::ProtocolError { kind: "schema".into(), detail: "nope".into() },
            Reply::Pong,
            Reply::Stats { payload },
            Reply::Watching { buffer: 1024 },
            Reply::Event {
                seq: 7,
                dropped: 2,
                vcycles: 123_456,
                kind: "completed".into(),
                tenant: "alice".into(),
                id: "j7".into(),
                detail: "ok".into(),
            },
            Reply::ShuttingDown,
        ] {
            assert_eq!(Reply::parse_line(&reply.to_line()).expect("round trip"), reply);
        }
    }

    #[test]
    fn schema_violations_are_typed() {
        let cases = [
            "42",
            "{}",
            "{\"op\":\"submit\"}",
            "{\"op\":\"submit\",\"tenant\":\"\",\"id\":\"x\",\"job\":{\"workloads\":[\"WL1\"]}}",
            "{\"op\":\"submit\",\"tenant\":\"t\",\"id\":\"x\",\"job\":{}}",
            "{\"op\":\"submit\",\"tenant\":\"t\",\"id\":\"x\",\"job\":{\"workloads\":[\"WL1\"],\"arch\":\"cuda\"}}",
            "{\"op\":\"submit\",\"tenant\":\"t\",\"id\":\"x\",\"job\":{\"workloads\":[\"WL1\"],\"scale\":-1.0}}",
            "{\"op\":\"submit\",\"tenant\":\"t\",\"id\":\"x\",\"job\":{\"workloads\":[\"WL1\"],\"inject\":\"bogus=1\"}}",
            "{\"op\":\"submit\",\"tenant\":\"t\",\"id\":\"x\",\"job\":{\"workloads\":[\"WL1\"],\"chaos\":\"meteor\"}}",
            "{\"op\":\"warp\"}",
        ];
        for line in cases {
            let e = Request::parse_line(line).expect_err(line);
            assert_eq!(e.kind, ProtocolErrorKind::Schema, "{line} → {e}");
        }
    }

    #[test]
    fn submit_in_an_unknown_mode_is_a_schema_error_naming_both_modes() {
        let line = "{\"op\":\"submit\",\"tenant\":\"t\",\"id\":\"x\",\
                    \"job\":{\"workloads\":[\"WL1\"],\"mode\":\"sampled\"}}";
        let e = Request::parse_line(line).expect_err(line);
        assert_eq!(e.kind, ProtocolErrorKind::Schema, "{line} → {e}");
        assert!(e.detail.contains("timing") && e.detail.contains("functional"), "{e}");
    }

    #[test]
    fn malformed_and_truncated_lines_are_typed() {
        assert_eq!(
            Request::parse_line("{\"op\":}").unwrap_err().kind,
            ProtocolErrorKind::Malformed
        );
        assert_eq!(
            Request::parse_line("{\"op\":\"ping\"").unwrap_err().kind,
            ProtocolErrorKind::Truncated
        );
    }

    #[test]
    fn canonical_key_ignores_deadline_but_not_identity() {
        let a = spec();
        let mut b = spec();
        b.deadline_ms = None;
        assert_eq!(a.canonical_key(), b.canonical_key(), "deadline is service-level");
        let mut c = spec();
        c.seed = 8;
        assert_ne!(a.canonical_key(), c.canonical_key());
        let mut d = spec();
        d.chaos = Some(ChaosKind::Panic);
        assert_ne!(a.canonical_key(), d.canonical_key(), "chaos changes the outcome");
        assert_eq!(a.key_hash(), b.key_hash());
    }

    #[test]
    fn bounded_reader_enforces_the_frame_cap() {
        use std::io::BufReader;
        let long = format!("{}\nping\n", "x".repeat(MAX_LINE_BYTES + 10));
        let mut r = BufReader::new(long.as_bytes());
        let e = read_frame(&mut r, MAX_LINE_BYTES).unwrap_err();
        assert_eq!(e.kind, ProtocolErrorKind::Oversized);
        // The stream recovers at the next line.
        assert_eq!(read_frame(&mut r, MAX_LINE_BYTES).expect("next line"), Some("ping".into()));
        assert_eq!(read_frame(&mut r, MAX_LINE_BYTES).expect("eof"), None);
    }

    #[test]
    fn bounded_reader_handles_eof_and_bad_utf8() {
        use std::io::BufReader;
        let mut r = BufReader::new(&b"tail-without-newline"[..]);
        assert_eq!(
            read_frame(&mut r, 64).expect("trailing line"),
            Some("tail-without-newline".into())
        );
        assert_eq!(read_frame(&mut r, 64).expect("eof"), None);
        let mut r = BufReader::new(&[0xFFu8, 0xFE, b'\n'][..]);
        assert_eq!(read_frame(&mut r, 64).unwrap_err().kind, ProtocolErrorKind::Malformed);
    }
}
