//! Durable-session tests: the `--spill-dir` backing store, in-process
//! and over a real killed-and-restarted `glc-serve` child.
//!
//! The acceptance gate of the durability refactor:
//!
//! * an LRU-evicted session spills to disk and transparently reloads
//!   on its next touch, then extends **bitwise-identically** to a
//!   session that never left memory;
//! * a `glc-serve` killed hard (SIGKILL) between requests resumes from
//!   its write-through snapshots: the restarted service extends from
//!   the resident replicate count and the final Query equals an
//!   uninterrupted run, bitwise;
//! * LRU eviction order is property-tested against a model, and
//!   submit-after-evict rebuilds a session that extends exactly like
//!   a never-evicted one (with and without the spill store);
//! * the spill garbage collector holds its bounds: size-capped
//!   directories evict **oldest-first** with `spill_bytes` matching a
//!   `du` over the session files, age-capped directories collect
//!   stale snapshots, and a just-written snapshot is never its own
//!   GC victim;
//! * a pool slot quarantined before a SIGKILL is still quarantined
//!   after the restart, read back from `pool_health.json`.
//!
//! CI runs this file on every push (`spill-resume` job).

use glc_service::{
    session, EngineSpec, ExtendBackend, ExtendRequest, ModelSource, QueryRequest, Request,
    Response, ServiceError, SessionSpec, SessionStore,
};
use glc_ssa::run_partial_from;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

fn serve_bin() -> &'static str {
    env!("CARGO_BIN_EXE_glc-serve")
}

/// A fresh, empty spill directory under the system temp dir.
fn spill_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "glc-spill-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn catalog_spec(circuit: &str, engine: EngineSpec, base_seed: u64) -> SessionSpec {
    let entry = glc_gates::catalog::by_id(circuit).expect("catalog circuit");
    let mut spec = SessionSpec::new(
        ModelSource::Catalog(circuit.into()),
        engine,
        base_seed,
        20.0,
        4.0,
    );
    for input in &entry.inputs {
        spec = spec.with_amount(input, 15.0);
    }
    spec
}

/// A small, fast spec for the property tests.
fn tiny_spec(base_seed: u64) -> SessionSpec {
    SessionSpec::new(
        ModelSource::Catalog("book_not".into()),
        EngineSpec::Direct,
        base_seed,
        5.0,
        1.0,
    )
    .with_amount("LacI", 15.0)
}

/// The fresh-run reference: `run_partial_from` over the whole range,
/// built from the same spec.
fn fresh_reference(spec: &SessionSpec, replicates: u64) -> glc_ssa::EnsemblePartial {
    let mut model = spec.model.load().expect("model loads");
    for (species, amount) in &spec.set_amounts {
        model.set_initial_amount(species, *amount);
    }
    let compiled = glc_ssa::CompiledModel::new(&model).expect("compiles");
    run_partial_from(
        &compiled,
        || spec.engine.build().expect("engine builds"),
        spec.base_seed,
        replicates,
        spec.t_end,
        spec.sample_dt,
    )
    .expect("reference run")
}

#[test]
fn evicted_sessions_spill_reload_and_extend_bitwise() {
    let dir = spill_dir("evict");
    let mut store = SessionStore::new(1, ExtendBackend::InProcess)
        .unwrap()
        .with_spill_dir(&dir);
    let a = catalog_spec("book_and", EngineSpec::Direct, 7);
    let b = catalog_spec("book_and", EngineSpec::Direct, 1000);

    let a_key = store.submit(&a).unwrap().session;
    store.extend(&a_key, 4).unwrap();
    assert!(
        session::spill_path(&dir, &a_key).exists(),
        "extend write-through-snapshots the session (GLCB layout)"
    );

    // Submitting B evicts A (capacity 1) — to disk, not to oblivion.
    let b_key = store.submit(&b).unwrap().session;
    store.extend(&b_key, 2).unwrap();
    assert!(store.partial(&a_key).is_none(), "A is no longer resident");

    // Touching A transparently reloads it with its 4 replicates and
    // keeps extending where it left off.
    store.extend(&a_key, 3).unwrap();
    assert_eq!(store.partial(&a_key).unwrap(), &fresh_reference(&a, 7));

    // Query also reloads (B was just evicted by A's reload).
    let queried = store.query(&b_key, &[]).unwrap();
    assert_eq!(queried.replicates, 2);
    assert_eq!(queried.simulated, 0);

    let stats = store.stats();
    assert!(stats.spilled >= 2, "{stats:?}");
    assert_eq!(stats.reloads, 2, "{stats:?}");
    assert!(stats.snapshots >= 3, "{stats:?}");
    assert_eq!(stats.sessions, 1);

    // A warm re-submit of the spilled-then-reloaded session reports
    // its real replicate count.
    let resubmitted = store.submit(&a).unwrap();
    assert!(resubmitted.warm);
    assert_eq!(resubmitted.replicates, 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_new_store_resumes_from_snapshots_bitwise() {
    // Store-level restart: drop the store (the "process"), build a new
    // one over the same spill dir, and the session resumes with its
    // replicates instead of recomputing from seed 0 — for Direct and
    // Langevin on both catalog circuits.
    for (circuit, engine) in [
        ("book_and", EngineSpec::Direct),
        ("book_and", EngineSpec::Langevin(0.01)),
        ("cello_0x1C", EngineSpec::Direct),
        ("cello_0x1C", EngineSpec::Langevin(0.1)),
    ] {
        let dir = spill_dir("restart");
        let spec = catalog_spec(circuit, engine, 13);
        let key = {
            let mut store = SessionStore::new(4, ExtendBackend::InProcess)
                .unwrap()
                .with_spill_dir(&dir);
            let key = store.submit(&spec).unwrap().session;
            store.extend(&key, 3).unwrap();
            key
        }; // Store dropped: only the snapshot survives.

        let mut reborn = SessionStore::new(4, ExtendBackend::InProcess)
            .unwrap()
            .with_spill_dir(&dir);
        let resumed = reborn.submit(&spec).unwrap();
        assert!(resumed.warm, "{circuit}: snapshot makes the submit warm");
        assert_eq!(resumed.replicates, 3, "{circuit}");
        assert_eq!(resumed.simulated, 0, "{circuit}: resume simulates nothing");
        let extended = reborn.extend(&key, 2).unwrap();
        assert_eq!(extended.replicates, 5, "{circuit}");
        assert_eq!(extended.simulated, 2, "{circuit}: only the new range runs");
        assert_eq!(
            reborn.partial(&key).unwrap(),
            &fresh_reference(&spec, 5),
            "{circuit}: resume-from-spill ≡ resident"
        );
        assert_eq!(reborn.stats().reloads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_snapshots_fail_closed() {
    let dir = spill_dir("corrupt");
    let spec = tiny_spec(3);
    let (key, partial) = {
        let mut store = SessionStore::new(2, ExtendBackend::InProcess)
            .unwrap()
            .with_spill_dir(&dir);
        let key = store.submit(&spec).unwrap().session;
        store.extend(&key, 2).unwrap();
        let partial = store.partial(&key).unwrap().clone();
        (key, partial)
    };
    let binary = session::spill_path(&dir, &key);
    let clean = std::fs::read(&binary).unwrap();

    // A truncated GLCB snapshot fails closed.
    std::fs::write(&binary, &clean[..clean.len() - 3]).unwrap();
    let mut store = SessionStore::new(2, ExtendBackend::InProcess)
        .unwrap()
        .with_spill_dir(&dir);
    // Extend/Query surface the corruption instead of serving garbage…
    assert!(matches!(store.extend(&key, 1), Err(ServiceError::Spill(_))));
    assert!(matches!(
        store.query(&key, &[]),
        Err(ServiceError::Spill(_))
    ));
    // …and Submit falls back to a cold rebuild that extends correctly
    // (the bad snapshot is superseded at the next write-through).
    let resubmitted = store.submit(&spec).unwrap();
    assert!(!resubmitted.warm, "corrupt snapshot must not resume");
    store.extend(&key, 2).unwrap();
    assert_eq!(store.partial(&key).unwrap(), &fresh_reference(&spec, 2));

    // A well-formed snapshot filed under the wrong key (its spec
    // fingerprints elsewhere) fails closed too.
    let other = tiny_spec(4);
    let written = session::write_spill(&dir, &other, &partial).unwrap();
    std::fs::rename(&written, &binary).unwrap();
    let mut store = SessionStore::new(2, ExtendBackend::InProcess)
        .unwrap()
        .with_spill_dir(&dir);
    assert!(matches!(store.extend(&key, 1), Err(ServiceError::Spill(_))));

    // Plain garbage is rejected the same way, and so is an older
    // build's JSON snapshot document.
    for junk in [
        "not a snapshot".to_string(),
        format!(
            "{{\"spec\":{},\"partial\":{{}}}}",
            serde_json::to_string(&spec).unwrap()
        ),
    ] {
        std::fs::write(&binary, junk).unwrap();
        let mut store = SessionStore::new(2, ExtendBackend::InProcess)
            .unwrap()
            .with_spill_dir(&dir);
        assert!(matches!(store.extend(&key, 1), Err(ServiceError::Spill(_))));
    }
    // Unknown keys are still unknown (missing file ≠ corrupt file).
    assert!(matches!(
        store.extend("sess-0000000000000000", 1),
        Err(ServiceError::Order(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the version byte of a fresh snapshot to `version` and
/// checks that reload rejects it: Extend and Query fail, and Submit
/// rebuilds cold instead of resuming.
fn assert_snapshot_version_fails_reload_closed(version: u8, dir_name: &str) {
    let dir = spill_dir(dir_name);
    let spec = tiny_spec(5);
    let key = {
        let mut store = SessionStore::new(2, ExtendBackend::InProcess)
            .unwrap()
            .with_spill_dir(&dir);
        let key = store.submit(&spec).unwrap().session;
        store.extend(&key, 2).unwrap();
        key
    };
    let binary = session::spill_path(&dir, &key);
    let mut snapshot = std::fs::read(&binary).unwrap();
    assert_eq!(&snapshot[..4], b"GLCB");
    assert_eq!(snapshot[4], glc_service::GLCB_VERSION);
    snapshot[4] = version;
    std::fs::write(&binary, &snapshot).unwrap();

    let mut store = SessionStore::new(2, ExtendBackend::InProcess)
        .unwrap()
        .with_spill_dir(&dir);
    assert!(matches!(store.extend(&key, 1), Err(ServiceError::Spill(_))));
    assert!(matches!(
        store.query(&key, &[]),
        Err(ServiceError::Spill(_))
    ));
    let resubmitted = store.submit(&spec).unwrap();
    assert!(
        !resubmitted.warm,
        "a version-{version} snapshot must not resume"
    );
    assert_eq!(resubmitted.replicates, 0);
    store.extend(&key, 2).unwrap();
    assert_eq!(store.partial(&key).unwrap(), &fresh_reference(&spec, 2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_2_snapshots_fail_reload_closed() {
    // A snapshot written by a version-2 build spelled its cells as
    // 8-byte digits. Reload must reject it on the version byte rather
    // than read its cells under this build's layout.
    assert_snapshot_version_fails_reload_closed(2, "version2");
}

#[test]
fn version_3_snapshots_fail_reload_closed() {
    // A version-3 build has this layout, but its exact engines drew
    // their waits through libm: extending its snapshot would mix two
    // streams in one session.
    assert_snapshot_version_fails_reload_closed(3, "version3");
}

proptest! {
    /// LRU eviction order matches a reference model: for any schedule
    /// of submits/touches over more specs than the store holds, the
    /// sessions resident at the end are exactly the `capacity` most
    /// recently touched distinct specs.
    #[test]
    fn lru_eviction_order_matches_the_model(
        capacity in 1usize..4,
        touches in proptest::collection::vec(0u64..5, 1..14),
    ) {
        let mut store = SessionStore::new(capacity, ExtendBackend::InProcess).unwrap();
        let mut recency: Vec<u64> = Vec::new(); // most recent last
        for &idx in &touches {
            store.submit(&tiny_spec(idx)).unwrap();
            recency.retain(|&i| i != idx);
            recency.push(idx);
        }
        let expected_resident: Vec<u64> =
            recency.iter().rev().take(capacity).copied().collect();
        for idx in 0u64..5 {
            let key = tiny_spec(idx).fingerprint();
            prop_assert_eq!(
                store.partial(&key).is_some(),
                expected_resident.contains(&idx),
                "spec {} residency diverged from the LRU model (schedule {:?})",
                idx,
                &touches
            );
        }
        prop_assert_eq!(store.stats().evictions, expected_evictions(&touches, capacity));
    }

    /// Submit-after-evict: a session evicted and re-submitted rebuilds
    /// and then extends bitwise-identically to one that was never
    /// evicted — cold (no spill: the rebuild re-simulates from seed 0)
    /// and warm (spill: the reload resumes mid-range).
    #[test]
    fn submit_after_evict_extends_bitwise(
        first in 1u64..4,
        growth in 1u64..4,
        seed in 0u64..1000,
    ) {
        let spec = tiny_spec(seed);
        let other = tiny_spec(seed.wrapping_add(7777));

        // Never-evicted reference store.
        let mut reference = SessionStore::new(2, ExtendBackend::InProcess).unwrap();
        let key = reference.submit(&spec).unwrap().session;
        reference.extend(&key, first).unwrap();
        reference.extend(&key, growth).unwrap();

        // Cold rebuild: evict, resubmit (starts at 0), re-extend the
        // whole schedule.
        let mut cold = SessionStore::new(1, ExtendBackend::InProcess).unwrap();
        cold.submit(&spec).unwrap();
        cold.extend(&key, first).unwrap();
        cold.submit(&other).unwrap(); // evicts `spec`
        let resubmitted = cold.submit(&spec).unwrap();
        prop_assert!(!resubmitted.warm);
        prop_assert_eq!(resubmitted.replicates, 0);
        cold.extend(&key, first).unwrap();
        cold.extend(&key, growth).unwrap();
        prop_assert_eq!(cold.partial(&key).unwrap(), reference.partial(&key).unwrap());

        // Warm resume: same eviction, but the spill store preserves the
        // first extend, so only `growth` re-runs.
        let dir = spill_dir("prop-resume");
        let mut warm = SessionStore::new(1, ExtendBackend::InProcess)
            .unwrap()
            .with_spill_dir(&dir);
        warm.submit(&spec).unwrap();
        warm.extend(&key, first).unwrap();
        warm.submit(&other).unwrap(); // spills `spec`
        let resumed = warm.submit(&spec).unwrap();
        prop_assert!(resumed.warm);
        prop_assert_eq!(resumed.replicates, first);
        warm.extend(&key, growth).unwrap();
        prop_assert_eq!(warm.partial(&key).unwrap(), reference.partial(&key).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Replays the LRU model to count evictions: every submit of a
/// non-resident spec while the store is full evicts exactly one
/// session.
fn expected_evictions(touches: &[u64], capacity: usize) -> u64 {
    let mut resident: Vec<u64> = Vec::new(); // most recent last
    let mut evictions = 0u64;
    for &idx in touches {
        if let Some(at) = resident.iter().position(|&i| i == idx) {
            resident.remove(at);
        } else if resident.len() >= capacity {
            resident.remove(0);
            evictions += 1;
        }
        resident.push(idx);
    }
    evictions
}

/// A line-oriented client over a spawned `glc-serve` child.
struct ServeClient {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    stderr: BufReader<ChildStderr>,
}

impl ServeClient {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(serve_bin())
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn glc-serve");
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        ServeClient {
            child,
            stdin,
            stdout,
            stderr,
        }
    }

    /// Reads the `--metrics-addr` banner off stderr and returns the
    /// value of the scrape's unlabeled sample `family`.
    fn scrape_value(&mut self, family: &str) -> f64 {
        let mut banner = String::new();
        while !banner.contains("metrics listening on") {
            banner.clear();
            let read = self.stderr.read_line(&mut banner).expect("read stderr");
            assert!(read > 0, "glc-serve printed no metrics banner");
        }
        let addr = banner.trim().rsplit(' ').next().expect("address token");
        let mut stream = std::net::TcpStream::connect(addr).expect("connect to scrape");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: glc\r\nConnection: close\r\n\r\n")
            .expect("send scrape request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read scrape");
        response
            .lines()
            .find_map(|line| line.strip_prefix(family)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {family} sample in:\n{response}"))
            .parse()
            .expect("numeric sample")
    }

    fn request(&mut self, request: &Request) -> Response {
        let line = serde_json::to_string(request).expect("encode request");
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut reply = String::new();
        self.stdout.read_line(&mut reply).expect("read response");
        serde_json::from_str(reply.trim()).expect("decode response")
    }

    /// Hard-kills the service (SIGKILL: no cleanup code runs), as a
    /// crash or OOM kill would.
    fn kill(mut self) {
        self.child.kill().expect("kill glc-serve");
        let _ = self.child.wait();
    }
}

#[test]
fn killed_and_restarted_glc_serve_resumes_extends_bitwise() {
    // The end-to-end durability scenario CI drives: submit + extend
    // against a --spill-dir service, SIGKILL it, restart it on the
    // same directory, extend again — the final Query must be bitwise
    // identical to an uninterrupted run.
    let dir = spill_dir("serve-kill");
    let spec = catalog_spec("book_and", EngineSpec::Direct, 11);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");

    let mut client = ServeClient::spawn(&["--capacity", "4", "--spill-dir", dir_arg]);
    let Response::Submitted(submitted) = client.request(&Request::Submit(spec.clone())) else {
        panic!("expected Submitted");
    };
    assert!(!submitted.warm);
    let session = submitted.session.clone();
    let Response::Extended(extended) = client.request(&Request::Extend(ExtendRequest {
        session: session.clone(),
        replicates: 6,
    })) else {
        panic!("expected Extended");
    };
    assert_eq!(extended.replicates, 6);
    client.kill(); // No shutdown handshake: the snapshot must carry it.

    let mut reborn = ServeClient::spawn(&["--capacity", "4", "--spill-dir", dir_arg]);
    let Response::Submitted(resumed) = reborn.request(&Request::Submit(spec.clone())) else {
        panic!("expected Submitted");
    };
    assert!(resumed.warm, "restart must resume from the snapshot");
    assert_eq!(resumed.replicates, 6);
    assert_eq!(resumed.session, session);
    let Response::Extended(extended) = reborn.request(&Request::Extend(ExtendRequest {
        session: session.clone(),
        replicates: 4,
    })) else {
        panic!("expected Extended");
    };
    assert_eq!(extended.replicates, 10);
    assert_eq!(extended.simulated, 4, "resume extends, not recomputes");

    let Response::Queried(queried) = reborn.request(&Request::Query(QueryRequest {
        session: session.clone(),
        species: vec![],
    })) else {
        panic!("expected Queried");
    };
    assert_eq!(queried.simulated, 0);
    assert_eq!(queried.replicates, 10);
    let reference = fresh_reference(&spec, 10).finalize().expect("finalize");
    for (s, species) in queried.mean.species().iter().enumerate() {
        let refs = reference.mean.series(species).expect("species");
        for (k, (a, b)) in queried.mean.series_at(s).iter().zip(refs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "mean of {species} at {k}");
        }
        let refs = reference.std_dev.series(species).expect("species");
        for (k, (a, b)) in queried.std_dev.series_at(s).iter().zip(refs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "σ of {species} at {k}");
        }
    }

    // The wire-level Stats now carry the durability counters.
    let Response::Stats(stats) = reborn.request(&Request::Stats) else {
        panic!("expected Stats");
    };
    assert_eq!(stats.reloads, 1, "{stats:?}");
    assert!(stats.snapshots >= 1, "{stats:?}");
    assert_eq!(stats.simulated, 4, "only the post-restart extend ran");
    reborn.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sum of the on-disk session-snapshot sizes — the `du` the stats
/// counter must agree with.
fn du_session_files(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|entry| {
            entry
                .file_name()
                .to_str()
                .is_some_and(|name| name.ends_with(".session.glcb"))
        })
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum()
}

/// Spill-snapshot mtimes have jiffy granularity; space writes out so
/// "oldest" is well-defined.
fn settle_mtime() {
    std::thread::sleep(std::time::Duration::from_millis(25));
}

#[test]
fn spill_gc_size_bound_evicts_oldest_first_and_tracks_bytes() {
    let dir = spill_dir("gc-size");
    let mut store = SessionStore::new(4, ExtendBackend::InProcess)
        .unwrap()
        .with_spill_dir(&dir);

    // Three snapshots, written oldest → newest.
    let mut keys = Vec::new();
    for seed in 0..3u64 {
        let key = store.submit(&tiny_spec(seed * 100)).unwrap().session;
        store.extend(&key, 2).unwrap();
        keys.push(key);
        settle_mtime();
    }
    for key in &keys {
        assert!(session::spill_path(&dir, key).exists());
    }
    assert_eq!(
        store.stats().spill_bytes,
        du_session_files(&dir),
        "spill_bytes must match a du over the session files"
    );

    // Bound the directory to one snapshot: the two oldest go, the
    // newest survives, and the accounting follows.
    let keep = std::fs::metadata(session::spill_path(&dir, &keys[2]))
        .unwrap()
        .len();
    let mut store = store.with_spill_max_bytes(keep);
    assert!(
        !session::spill_path(&dir, &keys[0]).exists(),
        "oldest first"
    );
    assert!(!session::spill_path(&dir, &keys[1]).exists(), "then next");
    assert!(session::spill_path(&dir, &keys[2]).exists(), "newest kept");
    let stats = store.stats();
    assert_eq!(stats.spill_gc_evictions, 2, "{stats:?}");
    assert_eq!(stats.spill_bytes, keep, "{stats:?}");
    assert_eq!(stats.spill_bytes, du_session_files(&dir));

    // A fresh write-through is never its own GC victim: re-extending
    // the first session rewrites its snapshot (now the newest), and
    // the previous survivor is the one collected.
    settle_mtime();
    store.extend(&keys[0], 1).unwrap();
    assert!(session::spill_path(&dir, &keys[0]).exists());
    assert!(!session::spill_path(&dir, &keys[2]).exists());
    let stats = store.stats();
    assert_eq!(stats.spill_gc_evictions, 3, "{stats:?}");
    assert_eq!(stats.spill_bytes, du_session_files(&dir));

    // GC deletes snapshots, not sessions: the resident partial still
    // extends bitwise.
    store.extend(&keys[1], 2).unwrap();
    assert_eq!(
        store.partial(&keys[1]).unwrap(),
        &fresh_reference(&tiny_spec(100), 4)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_gc_age_bound_collects_stale_snapshots() {
    let dir = spill_dir("gc-age");
    let mut store = SessionStore::new(4, ExtendBackend::InProcess)
        .unwrap()
        .with_spill_dir(&dir);
    let a = store.submit(&tiny_spec(1)).unwrap().session;
    store.extend(&a, 2).unwrap();
    let b = store.submit(&tiny_spec(2)).unwrap().session;
    store.extend(&b, 2).unwrap();
    settle_mtime();

    // A (near-)zero age bound expires everything already on disk.
    let mut store = store.with_spill_max_age(std::time::Duration::from_nanos(1));
    assert!(!session::spill_path(&dir, &a).exists());
    assert!(!session::spill_path(&dir, &b).exists());
    let stats = store.stats();
    assert_eq!(stats.spill_gc_evictions, 2, "{stats:?}");
    assert_eq!(stats.spill_bytes, 0, "{stats:?}");

    // …but the snapshot an extend just wrote is protected, even under
    // an age bound it can't possibly satisfy.
    store.extend(&a, 1).unwrap();
    assert!(
        session::spill_path(&dir, &a).exists(),
        "write-through snapshot must survive the GC pass that follows it"
    );
    assert_eq!(store.stats().spill_bytes, du_session_files(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fake worker that exits before its hello — a permanently broken
/// pool slot for the quarantine drill.
#[cfg(unix)]
fn dead_worker_script(label: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("glc-dead-slot-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("script dir");
    let path = dir.join("dead-worker.sh");
    std::fs::write(&path, "#!/bin/sh\necho 'slot is dead' >&2\nexit 1\n").expect("write script");
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    path
}

#[cfg(unix)]
#[test]
fn killed_glc_serve_restarts_with_quarantine_intact() {
    // The durability drill's second half: a pool slot quarantined in
    // one service life must stay quarantined in the next. The pool
    // mixes one real worker with a marker script that always dies;
    // `--quarantine-after 1` benches the script on its first failure,
    // the service is SIGKILLed, and the restart must read the benching
    // back out of pool_health.json instead of re-learning it.
    let dir = spill_dir("serve-quarantine");
    let dir_arg = dir.to_str().expect("utf-8 temp dir").to_string();
    let worker = env!("CARGO_BIN_EXE_glc-worker");
    let script = dead_worker_script("serve-drill");
    let script_arg = script.to_str().expect("utf-8 script path").to_string();
    let flags = [
        "--capacity",
        "4",
        "--spill-dir",
        dir_arg.as_str(),
        "--workers",
        "1",
        "--worker-bin",
        worker,
        "--worker-slot",
        script_arg.as_str(),
        "--quarantine-after",
        "1",
        "--metrics-addr",
        "127.0.0.1:0",
    ];
    let spec = catalog_spec("book_and", EngineSpec::Direct, 23);

    let mut client = ServeClient::spawn(&flags);
    let Response::Submitted(submitted) = client.request(&Request::Submit(spec.clone())) else {
        panic!("expected Submitted");
    };
    let session = submitted.session.clone();
    // Slot 1 (the script) exits before its hello, so its handshake
    // fails on EOF, its queued chunks are stolen by the healthy worker,
    // and the script is quarantined.
    let Response::Extended(extended) = client.request(&Request::Extend(ExtendRequest {
        session: session.clone(),
        replicates: 4,
    })) else {
        panic!("expected Extended");
    };
    assert_eq!(extended.replicates, 4);
    let Response::Stats(stats) = client.request(&Request::Stats) else {
        panic!("expected Stats");
    };
    assert_eq!(stats.slots.len(), 2);
    assert!(stats.slots[1].quarantined, "{stats:?}");
    assert_eq!(stats.slots[1].failures, 1, "{stats:?}");
    assert!(stats.pool_steals >= 1, "{stats:?}");
    // The scrape renders the same steal counter Stats publishes.
    assert_eq!(
        client.scrape_value("glc_pool_steals_total"),
        stats.pool_steals as f64
    );
    assert!(
        session::pool_health_path(&dir).exists(),
        "extend persists pool health beside the snapshots"
    );
    client.kill();

    // Restart on the same spill dir: the quarantine is already in
    // place before any request runs a shard.
    let mut reborn = ServeClient::spawn(&flags);
    let Response::Stats(stats) = reborn.request(&Request::Stats) else {
        panic!("expected Stats");
    };
    assert!(
        stats.slots[1].quarantined,
        "restart forgot the quarantine: {stats:?}"
    );
    assert_eq!(stats.slots[1].failures, 1, "{stats:?}");
    // Steals are a per-life throughput counter, not durable health:
    // the reborn pool starts from zero, and nothing needed a retry in
    // either life (the dead slot's chunks were stolen instead).
    assert_eq!(stats.pool_steals, 0, "{stats:?}");
    assert_eq!(stats.pool_retries, 0, "{stats:?}");

    // The reborn service keeps serving from the healthy slot, the dead
    // script never sees another shard, and the result is still exact.
    let Response::Extended(extended) = reborn.request(&Request::Extend(ExtendRequest {
        session: session.clone(),
        replicates: 3,
    })) else {
        panic!("expected Extended");
    };
    assert_eq!(extended.replicates, 7);
    let Response::Stats(stats) = reborn.request(&Request::Stats) else {
        panic!("expected Stats");
    };
    assert_eq!(
        stats.slots[1].failures, 1,
        "quarantined slot must not be retried: {stats:?}"
    );
    let Response::Queried(queried) = reborn.request(&Request::Query(QueryRequest {
        session: session.clone(),
        species: vec![],
    })) else {
        panic!("expected Queried");
    };
    assert_eq!(queried.replicates, 7);
    let reference = fresh_reference(&spec, 7);
    assert_eq!(
        serde_json::to_string(&queried.mean).unwrap(),
        serde_json::to_string(&reference.finalize().expect("finalize").mean).unwrap(),
        "pool failover + restart must not move a bit"
    );
    reborn.kill();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(script.parent().unwrap());
}
