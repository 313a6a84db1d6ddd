//! Resident query-service tests: the Submit / Extend / Query session
//! protocol, in-process and over a real `glc-serve` child.
//!
//! The acceptance gate of the resident refactor, property-tested and
//! exercised end to end:
//!
//! * extending a cached ensemble from `R` to `R + N` replicates
//!   produces a partial **bitwise-identical** to a fresh `0 .. R + N`
//!   run (Direct + Langevin, `book_and` + `cello_0x1C`);
//! * `Query` after `Extend` performs **zero simulation work** (every
//!   response reports the replicates it simulated);
//! * the pool-backed Extend reproduces the in-process bits over
//!   resident worker processes.
//!
//! CI runs this file on every push (`query-service` job).

use glc_service::{
    EngineSpec, ExtendBackend, ExtendRequest, ModelSource, PipelinedWorker, QueryRequest, Request,
    Response, SessionSpec, SessionStore, Transport, WorkerPool,
};
use glc_ssa::run_partial_from;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Paths of the freshly built binaries under test.
fn serve_bin() -> &'static str {
    env!("CARGO_BIN_EXE_glc-serve")
}

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_glc-worker")
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

proptest! {
    /// The acceptance property, in-process backend: any split of a
    /// replicate budget into an initial extend + a growth extend holds
    /// exactly the fresh-run partial — coverage accounting included.
    #[test]
    fn extend_matches_fresh_run_bitwise_direct(
        first in 1u64..4,
        growth in 1u64..4,
        seed in 0u64..1_000,
        cello in any::<bool>(),
    ) {
        let circuit = if cello { "cello_0x1C" } else { "book_and" };
        let spec = catalog_spec(circuit, EngineSpec::Direct, seed);
        let mut store = SessionStore::new(2, ExtendBackend::InProcess).unwrap();
        let session = store.submit(&spec).unwrap().session;
        store.extend(&session, first).unwrap();
        store.extend(&session, growth).unwrap();
        let reference = fresh_reference(&spec, first + growth);
        prop_assert_eq!(store.partial(&session).unwrap(), &reference);
    }

    /// Langevin: continuous-valued traces, the adversarial case for
    /// any non-exact accumulation (and for the sparse digit windows,
    /// which see far more occupied digits than integer counts).
    #[test]
    fn extend_matches_fresh_run_bitwise_langevin(
        first in 1u64..3,
        growth in 1u64..3,
        seed in 0u64..1_000,
        cello in any::<bool>(),
    ) {
        let circuit = if cello { "cello_0x1C" } else { "book_and" };
        let engine = EngineSpec::Langevin(if cello { 0.1 } else { 0.01 });
        let spec = catalog_spec(circuit, engine, seed);
        let mut store = SessionStore::new(2, ExtendBackend::InProcess).unwrap();
        let session = store.submit(&spec).unwrap().session;
        store.extend(&session, first).unwrap();
        store.extend(&session, growth).unwrap();
        let reference = fresh_reference(&spec, first + growth);
        prop_assert_eq!(store.partial(&session).unwrap(), &reference);
    }
}

#[test]
fn pool_backend_matches_in_process_extends_bitwise() {
    // Extends fanned out over real resident glc-worker processes merge
    // into the same resident bits as the single-threaded in-process
    // backend.
    let spec = catalog_spec("book_and", EngineSpec::Direct, 7);
    let pool = WorkerPool::new(vec![
        Box::new(PipelinedWorker::new(worker_bin())) as Box<dyn Transport>,
        Box::new(PipelinedWorker::new(worker_bin())),
    ])
    .unwrap();
    let mut sharded = SessionStore::new(2, ExtendBackend::Pool(pool)).unwrap();
    let mut local = SessionStore::new(2, ExtendBackend::InProcess).unwrap();
    let session = sharded.submit(&spec).unwrap().session;
    assert_eq!(local.submit(&spec).unwrap().session, session);
    for batch in [5u64, 3, 4] {
        sharded.extend(&session, batch).unwrap();
        local.extend(&session, batch).unwrap();
    }
    assert_eq!(
        sharded.partial(&session).unwrap(),
        local.partial(&session).unwrap()
    );
    assert_eq!(
        sharded.partial(&session).unwrap(),
        &fresh_reference(&spec, 12)
    );
}

/// A line-oriented client over a spawned `glc-serve` child.
struct ServeClient {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
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
        ServeClient {
            child,
            stdin,
            stdout,
        }
    }

    fn request(&mut self, request: &Request) -> Response {
        let line = serde_json::to_string(request).expect("encode request");
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut reply = String::new();
        self.stdout.read_line(&mut reply).expect("read response");
        serde_json::from_str(reply.trim()).expect("decode response")
    }

    fn shutdown(mut self) {
        drop(self.stdin); // EOF ends the serve loop.
        let status = self.child.wait().expect("glc-serve exits");
        assert!(status.success(), "glc-serve exited with {status}");
    }
}

#[test]
fn glc_serve_end_to_end_submit_extend_query() {
    let spec = catalog_spec("book_and", EngineSpec::Direct, 11);
    let mut client = ServeClient::spawn(&["--capacity", "4"]);

    let Response::Submitted(submitted) = client.request(&Request::Submit(spec.clone())) else {
        panic!("expected Submitted");
    };
    assert!(!submitted.warm);
    assert_eq!(submitted.simulated, 0);
    let session = submitted.session.clone();

    // Extend twice: 6 then 4 replicates.
    for (batch, expected_total) in [(6u64, 6u64), (4, 10)] {
        let Response::Extended(extended) = client.request(&Request::Extend(ExtendRequest {
            session: session.clone(),
            replicates: batch,
        })) else {
            panic!("expected Extended");
        };
        assert_eq!(extended.replicates, expected_total);
        assert_eq!(extended.simulated, batch);
    }

    // Query: zero simulation work, figures bitwise equal to a fresh
    // 0..10 in-process run finalized directly.
    let Response::Queried(queried) = client.request(&Request::Query(QueryRequest {
        session: session.clone(),
        species: vec!["GFP".into()],
    })) else {
        panic!("expected Queried");
    };
    assert_eq!(queried.simulated, 0, "queries must not simulate");
    assert_eq!(queried.replicates, 10);
    let reference = fresh_reference(&spec, 10).finalize().expect("finalize");
    assert_eq!(queried.mean.len(), reference.mean.len());
    for (s, species) in queried.mean.species().iter().enumerate() {
        let mine = queried.mean.series_at(s);
        let refs = reference.mean.series(species).expect("species");
        for (k, (a, b)) in mine.iter().zip(refs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "mean of {species} at {k}");
        }
        let mine = queried.std_dev.series_at(s);
        let refs = reference.std_dev.series(species).expect("species");
        for (k, (a, b)) in mine.iter().zip(refs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "σ of {species} at {k}");
        }
    }
    assert_eq!(queried.noise.len(), 1);
    assert_eq!(queried.noise[0].species, "GFP");
    assert_eq!(queried.noise[0].points.len(), queried.mean.len());

    // A second identical query does no work and returns the same line.
    let again = client.request(&Request::Query(QueryRequest {
        session: session.clone(),
        species: vec!["GFP".into()],
    }));
    assert_eq!(
        serde_json::to_string(&again).unwrap(),
        serde_json::to_string(&Response::Queried(queried)).unwrap()
    );

    // Malformed and unknown-session requests keep the service alive.
    let err = client.request(&Request::Extend(ExtendRequest {
        session: "sess-bogus".into(),
        replicates: 1,
    }));
    assert!(matches!(err, Response::Error(_)));
    let Response::Stats(stats) = client.request(&Request::Stats) else {
        panic!("expected Stats");
    };
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.simulated, 10);

    client.shutdown();
}

#[test]
fn glc_serve_worker_backend_matches_fresh_run() {
    // Submit → extend ×2 → query over a glc-serve that fans extends
    // out to resident glc-worker children: still bitwise the fresh run.
    let spec = catalog_spec("book_and", EngineSpec::Direct, 23);
    let mut client = ServeClient::spawn(&["--workers", "2", "--worker-bin", worker_bin()]);
    let Response::Submitted(submitted) = client.request(&Request::Submit(spec.clone())) else {
        panic!("expected Submitted");
    };
    for batch in [4u64, 3] {
        let reply = client.request(&Request::Extend(ExtendRequest {
            session: submitted.session.clone(),
            replicates: batch,
        }));
        assert!(matches!(reply, Response::Extended(_)), "{reply:?}");
    }
    let Response::Queried(queried) = client.request(&Request::Query(QueryRequest {
        session: submitted.session.clone(),
        species: vec![],
    })) else {
        panic!("expected Queried");
    };
    assert_eq!(queried.simulated, 0);
    let reference = fresh_reference(&spec, 7).finalize().expect("finalize");
    for (s, species) in queried.mean.species().iter().enumerate() {
        let refs = reference.mean.series(species).expect("species");
        for (k, (a, b)) in queried.mean.series_at(s).iter().zip(refs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "mean of {species} at {k}");
        }
    }
    client.shutdown();
}

#[test]
fn glc_serve_echoes_request_ids() {
    use glc_service::Envelope;
    use serde::Value;
    let spec = catalog_spec("book_not", EngineSpec::Direct, 5);
    let mut client = ServeClient::spawn(&[]);

    // An id-carrying Submit: the reply carries the same id.
    let line = serde_json::to_string(&Envelope::with_id(
        Value::Num(7.0),
        Request::Submit(spec.clone()),
    ))
    .unwrap();
    writeln!(client.stdin, "{line}").unwrap();
    client.stdin.flush().unwrap();
    let mut reply = String::new();
    client.stdout.read_line(&mut reply).unwrap();
    let decoded: Envelope<Response> = serde_json::from_str(reply.trim()).unwrap();
    assert_eq!(decoded.id, Some(Value::Num(7.0)));
    let Response::Submitted(submitted) = decoded.body else {
        panic!("expected Submitted, got {:?}", decoded.body);
    };

    // Pipelined requests with distinct ids come back correlated, in
    // order, each with its own id — including the unit-variant Stats
    // spelling `{"id":…,"Stats":null}`.
    let lines = [
        serde_json::to_string(&Envelope::with_id(
            Value::Str("x-1".into()),
            Request::Extend(ExtendRequest {
                session: submitted.session.clone(),
                replicates: 2,
            }),
        ))
        .unwrap(),
        "{\"id\":\"x-2\",\"Stats\":null}".to_string(),
        // No id: the reply must be the bare historical format.
        serde_json::to_string(&Request::Stats).unwrap(),
    ];
    for line in &lines {
        writeln!(client.stdin, "{line}").unwrap();
    }
    client.stdin.flush().unwrap();
    let mut replies = Vec::new();
    for _ in 0..lines.len() {
        let mut reply = String::new();
        client.stdout.read_line(&mut reply).unwrap();
        replies.push(reply.trim().to_string());
    }
    let first: Envelope<Response> = serde_json::from_str(&replies[0]).unwrap();
    assert_eq!(first.id, Some(Value::Str("x-1".into())));
    assert!(matches!(first.body, Response::Extended(_)));
    let second: Envelope<Response> = serde_json::from_str(&replies[1]).unwrap();
    assert_eq!(second.id, Some(Value::Str("x-2".into())));
    assert!(matches!(second.body, Response::Stats(_)));
    assert!(
        replies[2].starts_with("{\"Stats\":"),
        "id-less request must get the bare reply format: {}",
        replies[2]
    );
    client.shutdown();
}

#[test]
fn glc_serve_relay_backend_matches_fresh_run() {
    // One extend driven through a real glc-relay over localhost TCP
    // (the remote-transport deployment shape): submit → extend → query
    // against `glc-serve --relay` is still bitwise the fresh run.
    let mut relay = Command::new(env!("CARGO_BIN_EXE_glc-relay"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn glc-relay");
    let mut banner = String::new();
    BufReader::new(relay.stdout.take().expect("stdout piped"))
        .read_line(&mut banner)
        .expect("read bound address");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("address")
        .to_string();

    let spec = catalog_spec("book_and", EngineSpec::Direct, 31);
    let mut client = ServeClient::spawn(&["--relay", &addr, "--relay", &addr]);
    let Response::Submitted(submitted) = client.request(&Request::Submit(spec.clone())) else {
        panic!("expected Submitted");
    };
    for batch in [4u64, 3] {
        let reply = client.request(&Request::Extend(ExtendRequest {
            session: submitted.session.clone(),
            replicates: batch,
        }));
        assert!(matches!(reply, Response::Extended(_)), "{reply:?}");
    }
    let Response::Queried(queried) = client.request(&Request::Query(QueryRequest {
        session: submitted.session.clone(),
        species: vec![],
    })) else {
        panic!("expected Queried");
    };
    assert_eq!(queried.simulated, 0);
    let reference = fresh_reference(&spec, 7).finalize().expect("finalize");
    for (s, species) in queried.mean.species().iter().enumerate() {
        let refs = reference.mean.series(species).expect("species");
        for (k, (a, b)) in queried.mean.series_at(s).iter().zip(refs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "mean of {species} at {k}");
        }
    }
    client.shutdown();
    let _ = relay.kill();
    let _ = relay.wait();
}

#[test]
fn glc_serve_survives_garbage_lines() {
    let mut client = ServeClient::spawn(&[]);
    writeln!(client.stdin, "this is not json").unwrap();
    client.stdin.flush().unwrap();
    let mut reply = String::new();
    client.stdout.read_line(&mut reply).unwrap();
    let decoded: Response = serde_json::from_str(reply.trim()).unwrap();
    assert!(matches!(decoded, Response::Error(_)), "{decoded:?}");
    // Still serving after the error.
    let Response::Stats(stats) = client.request(&Request::Stats) else {
        panic!("expected Stats");
    };
    assert_eq!(stats.sessions, 0);
    client.shutdown();
}
