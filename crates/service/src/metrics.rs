//! Operator-grade metrics: request-latency histograms, per-slot shard
//! timings, and service gauges, exported two ways.
//!
//! The service's original observability surface was a handful of
//! counters in [`crate::ServiceStats`]. This module grows it into a
//! real metrics layer:
//!
//! * [`Histogram`] — fixed **log-spaced** latency buckets backed by
//!   lock-free relaxed atomics, so the hot serving path pays a few
//!   uncontended `fetch_add`s per request and the scrape thread can
//!   read concurrently without stopping the world;
//! * [`MetricsRegistry`] — the shared hub: one histogram per
//!   [`RequestKind`] (recorded by `SessionStore::handle`), one per
//!   worker-pool slot (recorded by `WorkerPool` as each shard joins),
//!   and the last published [`crate::ServiceStats`] snapshot for the
//!   gauge families;
//! * [`render_prometheus`](MetricsRegistry::render_prometheus) — the
//!   whole registry as Prometheus text exposition format
//!   (`# HELP`/`# TYPE` + `family{labels} value` lines);
//! * [`serve_scrape`] — a hand-rolled `std::net` HTTP responder (the
//!   vendored-crate policy rules out hyper et al.) behind
//!   `glc-serve --metrics-addr`, answering `GET /metrics`.
//!
//! # Determinism
//!
//! Nothing here touches a seed, an engine, or a partial: recording is
//! observation-only, so interleaving Stats requests or scrapes between
//! Submit/Extend/Query cannot move a bit of any Query response. The
//! metrics property tests pin exactly that.

use crate::ServiceStats;
use serde::{Deserialize, Serialize};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bounds (seconds) of the latency buckets: log-spaced by 4x
/// from 1 µs to ~67 s, covering a sub-microsecond Stats read through a
/// multi-minute remote Extend. Fixed at compile time so observation is
/// a branchless scan + one atomic increment, and every histogram in a
/// scrape is bucket-compatible.
pub const LATENCY_BUCKET_BOUNDS: [f64; 14] = [
    1.0e-6, 4.0e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1.024e-3, 4.096e-3, 1.6384e-2, 6.5536e-2, 2.62144e-1,
    1.048576, 4.194304, 16.777216, 67.108864,
];

/// Buckets per histogram: the finite bounds plus one overflow bucket
/// (the `+Inf` bucket of the exposition format).
const BUCKETS: usize = LATENCY_BUCKET_BOUNDS.len() + 1;

/// Process-wide frame-payload byte counters, sent and received. They
/// live outside [`MetricsRegistry`] because the framed transports count
/// bytes wherever they run — inside the pool, the multiplexed listener,
/// or a test harness — without threading a registry handle through
/// every connection; the scrape renders the one process-wide truth as
/// `glc_frame_bytes_total{dir,codec}`. GLCB is the only payload codec,
/// so the `codec` label is constant; it stays so a scrape keeps the
/// series names dashboards already match.
static FRAME_BYTES_TX: AtomicU64 = AtomicU64::new(0);
static FRAME_BYTES_RX: AtomicU64 = AtomicU64::new(0);

/// Counts `bytes` of frame payload sent by this process.
pub fn count_frame_tx(bytes: usize) {
    FRAME_BYTES_TX.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Counts `bytes` of frame payload received by this process.
pub fn count_frame_rx(bytes: usize) {
    FRAME_BYTES_RX.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The frame-byte counters as `(dir, bytes)` rows, in scrape order.
pub fn frame_bytes_snapshot() -> [(&'static str, u64); 2] {
    [
        ("tx", FRAME_BYTES_TX.load(Ordering::Relaxed)),
        ("rx", FRAME_BYTES_RX.load(Ordering::Relaxed)),
    ]
}

/// A fixed-bucket latency histogram over lock-free atomic counters.
///
/// `observe` is wait-free (relaxed `fetch_add`s); `snapshot` reads the
/// counters relaxed too, so a scrape taken mid-request may be off by
/// the in-flight observation — bucket counts are monotone per bucket,
/// and the cumulative form is re-derived at snapshot time so it is
/// monotone *by construction* no matter how the loads interleave.
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) observation counts; the last slot
    /// is the overflow (`+Inf`) bucket.
    buckets: [AtomicU64; BUCKETS],
    /// Total observed time, in nanoseconds (u64 wraps after ~584 years
    /// of busy time — beyond any process lifetime this serves).
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one latency observation.
    pub fn observe(&self, elapsed: Duration) {
        let seconds = elapsed.as_secs_f64();
        let slot = LATENCY_BUCKET_BOUNDS
            .iter()
            .position(|&bound| seconds <= bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for reporting: cumulative bucket
    /// counts (monotone by construction), total count, and the sum of
    /// observed seconds.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(LATENCY_BUCKET_BOUNDS.len());
        let mut running = 0u64;
        for (slot, &bound) in LATENCY_BUCKET_BOUNDS.iter().enumerate() {
            running += self.buckets[slot].load(Ordering::Relaxed);
            cumulative.push((bound, running));
        }
        running += self.buckets[BUCKETS - 1].load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: cumulative,
            count: running,
            sum_seconds: self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// A point-in-time reading of one [`Histogram`], in the shape the wire
/// Stats response and the scrape renderer both consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HistogramSnapshot {
    /// `(upper_bound_seconds, cumulative_count)` per finite bucket,
    /// ascending; the implicit `+Inf` bucket equals `count`.
    pub buckets: Vec<(f64, u64)>,
    /// Total observations (the `+Inf` cumulative bucket).
    pub count: u64,
    /// Total observed seconds across all observations.
    pub sum_seconds: f64,
}

/// The request kinds the session protocol serves, each with its own
/// latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// [`crate::Request::Submit`].
    Submit,
    /// [`crate::Request::Extend`].
    Extend,
    /// [`crate::Request::Query`].
    Query,
    /// [`crate::Request::Stats`].
    Stats,
}

impl RequestKind {
    /// Every kind, in reporting order.
    pub const ALL: [RequestKind; 4] = [
        RequestKind::Submit,
        RequestKind::Extend,
        RequestKind::Query,
        RequestKind::Stats,
    ];

    /// The `kind` label value on the wire and in the scrape.
    pub fn label(self) -> &'static str {
        match self {
            RequestKind::Submit => "submit",
            RequestKind::Extend => "extend",
            RequestKind::Query => "query",
            RequestKind::Stats => "stats",
        }
    }

    fn index(self) -> usize {
        match self {
            RequestKind::Submit => 0,
            RequestKind::Extend => 1,
            RequestKind::Query => 2,
            RequestKind::Stats => 3,
        }
    }
}

/// The shared metrics hub: histograms fed by the serving loop and the
/// worker pool, plus the last published [`ServiceStats`] snapshot for
/// the gauge families. One registry is owned (via `Arc`) by the
/// `SessionStore`, its `WorkerPool` backend, and the scrape listener
/// thread.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    requests: [Histogram; 4],
    /// One histogram per worker-pool slot, installed by the pool when
    /// the registry is attached (`Mutex` for the one-time install and
    /// the scrape walk; each `Histogram` inside is still atomic, so
    /// shard recording locks only long enough to find its slot).
    shards: Mutex<Vec<Arc<Histogram>>>,
    /// Transport description per pool slot, aligned with `shards`.
    slot_labels: Mutex<Vec<String>>,
    /// The service-level snapshot published after every handled
    /// request — sessions, spill accounting, slot health, footprints.
    published: Mutex<Option<ServiceStats>>,
    /// Chunks currently waiting in the worker pool's chunk queue
    /// (updated live by the slot drivers as they pull work).
    pool_queue_depth: AtomicU64,
    /// Lifetime count of chunks a slot stole from another slot's
    /// queue.
    pool_steals: AtomicU64,
    /// Orders in flight per pool slot, aligned with `slot_labels`
    /// (pipelined slots keep a window > 1 in flight).
    slot_inflight: Mutex<Vec<u64>>,
}

impl MetricsRegistry {
    /// A fresh registry with empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request latency.
    pub fn observe_request(&self, kind: RequestKind, elapsed: Duration) {
        self.requests[kind.index()].observe(elapsed);
    }

    /// Snapshot of one request-kind histogram.
    pub fn request_snapshot(&self, kind: RequestKind) -> HistogramSnapshot {
        self.requests[kind.index()].snapshot()
    }

    /// Installs (or re-installs) the worker-pool slot histograms:
    /// one per slot, labeled by the slot's transport description.
    /// Existing observations are kept when the slot layout is
    /// unchanged (a pool re-attaching the same registry).
    pub fn install_slots(&self, labels: Vec<String>) {
        let mut slots = self.shards.lock().expect("metrics poisoned");
        let mut current = self.slot_labels.lock().expect("metrics poisoned");
        let mut inflight = self.slot_inflight.lock().expect("metrics poisoned");
        if *current != labels {
            *slots = (0..labels.len()).map(|_| Arc::default()).collect();
            *inflight = vec![0; labels.len()];
            *current = labels;
        }
    }

    /// Sets the chunk-queue depth gauge (chunks not yet pulled by any
    /// slot driver).
    pub fn set_pool_queue_depth(&self, depth: u64) {
        self.pool_queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Counts one stolen chunk.
    pub fn inc_pool_steals(&self) {
        self.pool_steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime stolen-chunk count.
    pub fn pool_steals(&self) -> u64 {
        self.pool_steals.load(Ordering::Relaxed)
    }

    /// Sets the in-flight-orders gauge for pool slot `slot` (ignored
    /// for slots outside the installed layout).
    pub fn set_slot_inflight(&self, slot: usize, orders: u64) {
        let mut inflight = self.slot_inflight.lock().expect("metrics poisoned");
        if let Some(gauge) = inflight.get_mut(slot) {
            *gauge = orders;
        }
    }

    /// The histogram of shard latencies on pool slot `slot`, if the
    /// pool installed one.
    pub fn shard_histogram(&self, slot: usize) -> Option<Arc<Histogram>> {
        self.shards
            .lock()
            .expect("metrics poisoned")
            .get(slot)
            .cloned()
    }

    /// Records one shard execution latency against pool slot `slot`.
    pub fn observe_shard(&self, slot: usize, elapsed: Duration) {
        if let Some(histogram) = self.shard_histogram(slot) {
            histogram.observe(elapsed);
        }
    }

    /// Per-slot shard-latency snapshots, with their transport labels.
    pub fn shard_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let slots = self.shards.lock().expect("metrics poisoned");
        let labels = self.slot_labels.lock().expect("metrics poisoned");
        labels
            .iter()
            .zip(slots.iter())
            .map(|(label, histogram)| (label.clone(), histogram.snapshot()))
            .collect()
    }

    /// Publishes the service-level gauge snapshot the next scrape
    /// renders (called by the store after every handled request).
    pub fn publish(&self, stats: ServiceStats) {
        *self.published.lock().expect("metrics poisoned") = Some(stats);
    }

    /// The last published service snapshot, if any.
    pub fn published(&self) -> Option<ServiceStats> {
        self.published.lock().expect("metrics poisoned").clone()
    }

    /// Renders the whole registry in Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers, histogram
    /// `_bucket`/`_sum`/`_count` series, and the service gauges from
    /// the last published snapshot.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str("# HELP glc_request_seconds Session-protocol request latency.\n");
        out.push_str("# TYPE glc_request_seconds histogram\n");
        for kind in RequestKind::ALL {
            let snapshot = self.request_snapshot(kind);
            render_histogram(
                &mut out,
                "glc_request_seconds",
                &format!("kind=\"{}\"", kind.label()),
                &snapshot,
            );
        }

        let shards = self.shard_snapshots();
        if !shards.is_empty() {
            out.push_str("# HELP glc_shard_seconds Worker-pool shard execution latency.\n");
            out.push_str("# TYPE glc_shard_seconds histogram\n");
            for (slot, (label, snapshot)) in shards.iter().enumerate() {
                render_histogram(
                    &mut out,
                    "glc_shard_seconds",
                    &format!("slot=\"{slot}\",transport=\"{}\"", escape_label(label)),
                    snapshot,
                );
            }
        }

        {
            use std::fmt::Write as _;
            out.push_str(
                "# HELP glc_pool_queue_depth Chunks waiting in the worker-pool chunk queue.\n",
            );
            out.push_str("# TYPE glc_pool_queue_depth gauge\n");
            let _ = writeln!(
                out,
                "glc_pool_queue_depth {}",
                self.pool_queue_depth.load(Ordering::Relaxed)
            );
            out.push_str(
                "# HELP glc_pool_steals_total Chunks a pool slot stole from another slot's queue.\n",
            );
            out.push_str("# TYPE glc_pool_steals_total counter\n");
            let _ = writeln!(out, "glc_pool_steals_total {}", self.pool_steals());
            let labels = self.slot_labels.lock().expect("metrics poisoned").clone();
            let inflight = self.slot_inflight.lock().expect("metrics poisoned").clone();
            if !labels.is_empty() {
                out.push_str("# HELP glc_slot_inflight Orders in flight per pool slot.\n");
                out.push_str("# TYPE glc_slot_inflight gauge\n");
                for (slot, label) in labels.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "glc_slot_inflight{{slot=\"{slot}\",transport=\"{}\"}} {}",
                        escape_label(label),
                        inflight.get(slot).copied().unwrap_or(0)
                    );
                }
            }
        }

        {
            use std::fmt::Write as _;
            out.push_str("# HELP glc_frame_bytes_total Frame payload bytes moved, by direction.\n");
            out.push_str("# TYPE glc_frame_bytes_total counter\n");
            for (dir, bytes) in frame_bytes_snapshot() {
                let _ = writeln!(
                    out,
                    "glc_frame_bytes_total{{dir=\"{dir}\",codec=\"glcb\"}} {bytes}"
                );
            }
        }

        if let Some(stats) = self.published() {
            render_service_gauges(&mut out, &stats);
        }
        out
    }
}

/// Renders one histogram family member: cumulative `_bucket` series
/// (ending in the `+Inf` bucket), `_sum`, `_count`.
fn render_histogram(out: &mut String, family: &str, labels: &str, snapshot: &HistogramSnapshot) {
    use std::fmt::Write as _;
    for &(bound, cumulative) in &snapshot.buckets {
        let _ = writeln!(
            out,
            "{family}_bucket{{{labels},le=\"{bound}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{family}_bucket{{{labels},le=\"+Inf\"}} {}",
        snapshot.count
    );
    let _ = writeln!(out, "{family}_sum{{{labels}}} {}", snapshot.sum_seconds);
    let _ = writeln!(out, "{family}_count{{{labels}}} {}", snapshot.count);
}

/// Renders the service-level counter and gauge families off a
/// published [`ServiceStats`] snapshot.
fn render_service_gauges(out: &mut String, stats: &ServiceStats) {
    use std::fmt::Write as _;
    let counters: [(&str, &str, u64); 10] = [
        (
            "glc_sessions_resident",
            "Sessions currently resident in the store.",
            stats.sessions,
        ),
        (
            "glc_sessions_evicted_total",
            "Sessions evicted by the LRU bound since startup.",
            stats.evictions,
        ),
        (
            "glc_replicates_simulated_total",
            "Replicates simulated since startup.",
            stats.simulated,
        ),
        (
            "glc_sessions_spilled_total",
            "Evicted sessions serialized to the spill directory.",
            stats.spilled,
        ),
        (
            "glc_sessions_reloaded_total",
            "Sessions transparently reloaded from the spill directory.",
            stats.reloads,
        ),
        (
            "glc_session_snapshots_total",
            "Write-through session snapshots taken on Extend.",
            stats.snapshots,
        ),
        (
            "glc_model_cache_hits_total",
            "Model compiles served from the compiled-model cache.",
            stats.model_cache_hits,
        ),
        (
            "glc_model_cache_misses_total",
            "Model compiles that actually ran.",
            stats.model_cache_misses,
        ),
        (
            "glc_spill_bytes",
            "Bytes currently held by session snapshots in the spill directory.",
            stats.spill_bytes,
        ),
        (
            "glc_spill_gc_evicted_total",
            "Session snapshots deleted by the spill garbage collector.",
            stats.spill_gc_evictions,
        ),
    ];
    for (family, help, value) in counters {
        let kind = if family.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        let _ = writeln!(out, "# HELP {family} {help}");
        let _ = writeln!(out, "# TYPE {family} {kind}");
        let _ = writeln!(out, "{family} {value}");
    }

    let _ = writeln!(
        out,
        "# HELP glc_pool_retried_shards_total Shards that failed and succeeded on a retry, \
         over the pool's lifetime."
    );
    let _ = writeln!(out, "# TYPE glc_pool_retried_shards_total counter");
    let _ = writeln!(out, "glc_pool_retried_shards_total {}", stats.pool_retries);

    if !stats.slots.is_empty() {
        out.push_str("# HELP glc_slot_health Worker-pool slot health accounting.\n");
        out.push_str("# TYPE glc_slot_health gauge\n");
        for (slot, health) in stats.slots.iter().enumerate() {
            let fields: [(&str, f64); 7] = [
                ("successes", health.successes as f64),
                ("failures", health.failures as f64),
                ("consecutive_failures", health.consecutive_failures as f64),
                ("retries", health.retries as f64),
                ("replicates", health.replicates as f64),
                ("quarantined", u64::from(health.quarantined) as f64),
                ("throughput", health.observed_throughput().unwrap_or(0.0)),
            ];
            for (field, value) in fields {
                let _ = writeln!(
                    out,
                    "glc_slot_health{{slot=\"{slot}\",field=\"{field}\"}} {value}"
                );
            }
        }
    }

    if !stats.footprints.is_empty() {
        out.push_str("# HELP glc_session_footprint Resident-session partial footprint.\n");
        out.push_str("# TYPE glc_session_footprint gauge\n");
        for footprint in &stats.footprints {
            let session = escape_label(&footprint.session);
            let _ = writeln!(
                out,
                "glc_session_footprint{{session=\"{session}\",unit=\"replicates\"}} {}",
                footprint.replicates
            );
            let _ = writeln!(
                out,
                "glc_session_footprint{{session=\"{session}\",unit=\"cells\"}} {}",
                footprint.cells
            );
            let _ = writeln!(
                out,
                "glc_session_footprint{{session=\"{session}\",unit=\"bytes\"}} {}",
                footprint.bytes
            );
        }
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Binds `addr` and serves the registry as `GET /metrics` forever on a
/// background thread — a deliberately minimal HTTP/1.1 responder over
/// `std::net` (one short-lived connection per scrape, `Connection:
/// close`), per the vendored-crate policy. Returns the bound address
/// (so `--metrics-addr 127.0.0.1:0` callers learn the real port).
///
/// # Errors
///
/// `std::io::Error` when the listener cannot bind.
pub fn serve_scrape(
    addr: &str,
    registry: Arc<MetricsRegistry>,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // One request per connection: read the head (we never need
            // a body), answer, close. Errors drop the connection; the
            // listener keeps serving.
            let mut head = Vec::with_capacity(512);
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") && head.len() < 8192 {
                match stream.read(&mut byte) {
                    Ok(1) => head.push(byte[0]),
                    _ => break,
                }
            }
            let request_line = String::from_utf8_lossy(&head);
            let path = request_line
                .split_whitespace()
                .nth(1)
                .unwrap_or("/")
                .to_string();
            let (status, body) = if path == "/metrics" || path == "/" {
                ("200 OK", registry.render_prometheus())
            } else {
                ("404 Not Found", String::from("not found\n"))
            };
            let response = format!(
                "HTTP/1.1 {status}\r\n\
                 Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                 Content-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
            let _ = stream.flush();
        }
    });
    Ok((bound, handle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_log_spaced_buckets() {
        let histogram = Histogram::default();
        histogram.observe(Duration::from_nanos(500)); // <= 1 µs
        histogram.observe(Duration::from_micros(100)); // <= 256 µs
        histogram.observe(Duration::from_secs(500)); // overflow
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 3);
        assert_eq!(snapshot.buckets[0], (1.0e-6, 1));
        let at_256us = snapshot
            .buckets
            .iter()
            .find(|(bound, _)| *bound == 2.56e-4)
            .expect("bucket");
        assert_eq!(at_256us.1, 2, "cumulative through 256 µs");
        assert_eq!(
            snapshot.buckets.last().expect("buckets").1,
            2,
            "the 500 s observation only reaches +Inf"
        );
        assert!((snapshot.sum_seconds - 500.0001005).abs() < 1e-6);
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let histogram = Histogram::default();
        for micros in [1u64, 3, 9, 27, 81, 243, 729, 100_000, 10_000_000] {
            histogram.observe(Duration::from_micros(micros));
        }
        let snapshot = histogram.snapshot();
        let mut previous = 0u64;
        for &(_, cumulative) in &snapshot.buckets {
            assert!(cumulative >= previous, "{snapshot:?}");
            previous = cumulative;
        }
        assert!(snapshot.count >= previous);
    }

    #[test]
    fn render_includes_every_request_kind_and_parses_line_by_line() {
        let registry = MetricsRegistry::new();
        registry.observe_request(RequestKind::Submit, Duration::from_micros(30));
        registry.observe_request(RequestKind::Query, Duration::from_millis(2));
        let text = registry.render_prometheus();
        for kind in RequestKind::ALL {
            assert!(
                text.contains(&format!(
                    "glc_request_seconds_bucket{{kind=\"{}\"",
                    kind.label()
                )),
                "{text}"
            );
        }
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line.split_once(' ').is_some_and(
                        |(series, value)| !series.is_empty() && value.parse::<f64>().is_ok()
                    ),
                "unparseable exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn frame_byte_counters_land_under_their_direction_and_codec() {
        let before = frame_bytes_snapshot();
        count_frame_tx(10);
        count_frame_rx(30);
        let after = frame_bytes_snapshot();
        // Other tests share the process-wide counters, so assert only
        // that at least our contribution landed in each cell.
        assert!(after[0].1 - before[0].1 >= 10 && after[1].1 - before[1].1 >= 30);
        let text = MetricsRegistry::new().render_prometheus();
        for dir in ["tx", "rx"] {
            assert!(
                text.contains(&format!(
                    "glc_frame_bytes_total{{dir=\"{dir}\",codec=\"glcb\"}}"
                )),
                "{text}"
            );
        }
    }

    #[test]
    fn shard_histograms_follow_the_installed_slot_layout() {
        let registry = MetricsRegistry::new();
        assert!(registry.shard_snapshots().is_empty());
        registry.install_slots(vec!["in-process".into(), "tcp-relay h:1".into()]);
        registry.observe_shard(1, Duration::from_millis(5));
        registry.observe_shard(7, Duration::from_millis(5)); // out of range: dropped
        let snapshots = registry.shard_snapshots();
        assert_eq!(snapshots.len(), 2);
        assert_eq!(snapshots[0].1.count, 0);
        assert_eq!(snapshots[1].1.count, 1);
        assert_eq!(snapshots[1].0, "tcp-relay h:1");
        // Re-installing the same layout keeps the observations…
        registry.install_slots(vec!["in-process".into(), "tcp-relay h:1".into()]);
        assert_eq!(registry.shard_snapshots()[1].1.count, 1);
        // …a different layout resets them.
        registry.install_slots(vec!["in-process".into()]);
        assert_eq!(registry.shard_snapshots()[0].1.count, 0);
    }

    #[test]
    fn scrape_server_answers_get_metrics() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.observe_request(RequestKind::Stats, Duration::from_micros(10));
        let (addr, _handle) = serve_scrape("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("glc_request_seconds_count{kind=\"stats\"} 1"));
        // Unknown paths 404 without killing the listener.
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /nope HTTP/1.1\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET / HTTP/1.1\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    }
}
