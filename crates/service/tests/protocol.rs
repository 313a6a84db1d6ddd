//! End-to-end worker-protocol tests: real resident `glc-worker` child
//! processes, driven by a [`WorkerPool`] of [`PipelinedWorker`] slots
//! over the GLCB frame wire, checked **bitwise** against the in-process
//! `run_ensemble`.
//!
//! This is the acceptance gate of the sharding contract: the same base
//! seed must produce the same ensemble bits whether the replicates run
//! on one thread, many threads, or across process boundaries — and a
//! worker lost mid-run is retried without moving a bit. CI runs this on
//! every push (`worker-protocol` job).

use glc_service::{
    codec, frame, EngineSpec, ModelSource, PipelinedWorker, Transport, WorkOrder, WorkerPool,
};
use glc_ssa::{run_ensemble, Ensemble};
use std::path::{Path, PathBuf};

/// Path of the freshly built worker binary under test.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_glc-worker")
}

/// A `book_and` order with both inputs clamped high.
fn book_and_order(engine: EngineSpec, replicates: u64) -> WorkOrder {
    WorkOrder::new(
        ModelSource::Catalog("book_and".into()),
        engine,
        7,
        replicates,
        60.0,
        6.0,
    )
    .with_amount("LacI", 15.0)
    .with_amount("TetR", 15.0)
}

/// A pool of `slots` resident workers running `worker`.
fn worker_pool(worker: impl Into<PathBuf>, slots: usize) -> WorkerPool {
    let worker = worker.into();
    let transports: Vec<Box<dyn Transport>> = (0..slots)
        .map(|_| Box::new(PipelinedWorker::new(&worker)) as Box<dyn Transport>)
        .collect();
    WorkerPool::new(transports).expect("pool")
}

/// The in-process reference: `run_ensemble` over the order's range.
fn in_process(order: &WorkOrder) -> Ensemble {
    let model = order.compile_model().unwrap();
    let engine = order.engine.clone();
    run_ensemble(
        &model,
        || engine.build().expect("engine builds"),
        order.replicates as usize,
        order.t_end,
        order.sample_dt,
        order.base_seed,
        3,
    )
    .unwrap()
}

/// Trace-level bitwise equality (PartialEq on f64 can hide ±0 / NaN
/// differences; compare the actual bits).
fn assert_bitwise_equal(a: &Ensemble, b: &Ensemble) {
    assert_eq!(a.replicates, b.replicates);
    for (mine, theirs) in [(&a.mean, &b.mean), (&a.std_dev, &b.std_dev)] {
        assert_eq!(mine.species(), theirs.species());
        assert_eq!(mine.len(), theirs.len());
        for s in 0..mine.species().len() {
            for (k, (va, vb)) in mine
                .series_at(s)
                .iter()
                .zip(theirs.series_at(s))
                .enumerate()
            {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "species {s} sample {k}: {va} vs {vb}"
                );
            }
        }
    }
}

#[test]
fn coordinator_over_two_workers_matches_in_process_bitwise() {
    let order = book_and_order(EngineSpec::Direct, 12);
    let (partial, report) = worker_pool(worker_bin(), 2).run(&order).unwrap();
    assert_eq!(report.slot_replicates.iter().sum::<u64>(), 12);
    assert_bitwise_equal(&partial.finalize().unwrap(), &in_process(&order));
}

#[test]
fn worker_count_does_not_change_the_bits() {
    // Langevin traces are continuous-valued: without exact partial
    // accumulation, different chunkings would differ in the last bits.
    for engine in [EngineSpec::Direct, EngineSpec::Langevin(0.2)] {
        let order = book_and_order(engine, 9);
        let reference = in_process(&order);
        for slots in [1usize, 2, 3] {
            let (partial, _) = worker_pool(worker_bin(), slots).run(&order).unwrap();
            assert_bitwise_equal(&partial.finalize().unwrap(), &reference);
        }
    }
}

#[test]
fn sbml_work_orders_travel_whole_models() {
    // A fully self-contained order: the model rides inside the order
    // payload, so the worker needs no shared catalog.
    let entry = glc_gates::catalog::by_id("book_not").unwrap();
    let mut model = entry.model.clone();
    model.set_initial_amount("LacI", 15.0);
    let order = WorkOrder::new(
        ModelSource::Sbml(glc_model::sbml::write(&model)),
        EngineSpec::Direct,
        11,
        6,
        30.0,
        5.0,
    );
    let (partial, _) = worker_pool(worker_bin(), 3).run(&order).unwrap();
    assert_bitwise_equal(&partial.finalize().unwrap(), &in_process(&order));
}

#[test]
fn healthy_runs_report_zero_failures() {
    let order = book_and_order(EngineSpec::Direct, 6);
    let (_, report) = worker_pool(worker_bin(), 3).run(&order).unwrap();
    assert_eq!(report.total_failures(), 0);
    assert_eq!(report.retried_shards, 0);
    assert_eq!(report.worker_failures, vec![0, 0, 0]);
}

#[test]
fn worker_failures_surface_in_band() {
    let mut order = book_and_order(EngineSpec::Direct, 4);
    order.model = ModelSource::Catalog("no_such_circuit".into());
    let err = worker_pool(worker_bin(), 2).run(&order).unwrap_err();
    assert!(
        err.to_string().contains("no_such_circuit"),
        "error should carry the worker's message: {err}"
    );
}

#[test]
fn missing_worker_binary_is_a_clean_error() {
    let order = book_and_order(EngineSpec::Direct, 2);
    let err = worker_pool("/nonexistent/glc-worker", 2)
        .run(&order)
        .unwrap_err();
    assert!(err.to_string().contains("cannot spawn"), "{err}");
}

/// A fresh, empty temp directory for fake worker scripts.
#[cfg(unix)]
fn script_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glc-protocol-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create script dir");
    dir
}

/// Writes an executable shell script into `dir`.
#[cfg(unix)]
fn script(dir: &Path, body: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt as _;
    let path = dir.join("worker.sh");
    std::fs::write(&path, format!("#!/bin/sh\n{body}")).expect("write script");
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod script");
    path
}

/// Writes `payload` as one frame to a file in `dir`, returning its
/// path — how a fake worker script replays a hello.
#[cfg(unix)]
fn hello_file(dir: &Path, payload: &[u8]) -> PathBuf {
    let path = dir.join("hello.bin");
    std::fs::write(&path, frame::encode_frame(payload).unwrap()).expect("write frame file");
    path
}

#[cfg(unix)]
#[test]
fn failed_shard_is_retried_once_and_reproduces_the_bits() {
    // The first worker spawned completes its hello and then dies with
    // chunks in flight (a transiently lost worker); every later spawn
    // is the real worker. One slot, so the retry pass reopens the same
    // slot's channel — the same absolute seed range, so idempotent —
    // and the aggregate is still bitwise the in-process run, with the
    // loss charged once in the report.
    let dir = script_dir("retry");
    let hello = hello_file(&dir, &codec::encode_hello(false));
    let marker = dir.join("first-attempt-burned");
    let path = script(
        &dir,
        &format!(
            "if mkdir '{marker}' 2>/dev/null; then cat '{hello}'; exit 1; fi\nexec '{worker}'\n",
            marker = marker.display(),
            hello = hello.display(),
            worker = worker_bin(),
        ),
    );
    let order = book_and_order(EngineSpec::Direct, 12);
    let (partial, report) = worker_pool(&path, 1).run(&order).unwrap();
    assert_eq!(report.worker_failures, vec![1], "{report:?}");
    assert!(report.retried_shards >= 1, "{report:?}");
    assert_bitwise_equal(&partial.finalize().unwrap(), &in_process(&order));
}

#[cfg(unix)]
#[test]
fn permanently_failing_worker_exhausts_its_retry() {
    // A worker that always dies before its hello burns every attempt
    // and the handshake failure surfaces.
    let order = book_and_order(EngineSpec::Direct, 4);
    let err = worker_pool(
        script(&script_dir("dead"), "echo 'slot is dead' >&2\nexit 1\n"),
        2,
    )
    .run(&order)
    .unwrap_err()
    .to_string();
    assert!(
        err.contains("did not complete the frame handshake")
            && err.contains("exited before its hello"),
        "{err}"
    );
}
