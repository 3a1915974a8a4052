//! The coordinator runs on the same front end as `dar serve`: a full
//! accept queue refuses with the structured `overloaded` line, and a
//! request line that is not UTF-8 gets `bad-json` without closing the
//! connection.

use dar_cluster::{ClusterConfig, Coordinator, CoordinatorHandle, CoordinatorServer};
use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// One shard and a coordinator front end with one worker and a queue of
/// one.
fn start() -> (ServerHandle, CoordinatorHandle) {
    let partitioning = Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean);
    let engine = DarEngine::new(partitioning, EngineConfig::default()).unwrap();
    let shard_config = ServeConfig {
        threads: 1,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ServeConfig::default()
    };
    let shard = Server::start(engine, "127.0.0.1:0", shard_config).unwrap();
    let config = ClusterConfig {
        shards: vec![shard.addr().to_string()],
        timeout: TIMEOUT,
        threads: 1,
        queue_depth: 1,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..ClusterConfig::default()
    };
    let front = CoordinatorServer::start(Coordinator::connect(config).unwrap(), "127.0.0.1:0");
    (shard, front.unwrap())
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(front: &CoordinatorHandle) -> Conn {
        let stream = TcpStream::connect(front.addr()).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn { stream, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line
    }
}

fn stop(shard: ServerHandle, front: CoordinatorHandle) {
    front.shutdown();
    front.join();
    shard.shutdown();
    shard.join().unwrap();
}

#[test]
fn a_full_coordinator_queue_refuses_with_overloaded() {
    let (shard, front) = start();
    // The single worker serves `held` (its answer proves the worker has
    // adopted it), `queued` takes the one queue slot, and the acceptor,
    // which takes connections in arrival order, must refuse the third.
    let mut held = Conn::open(&front);
    held.send(b"{\"verb\":\"metrics\"}\n");
    assert!(held.line().starts_with(r#"{"ok":true,"verb":"metrics""#));
    let mut queued = Conn::open(&front);
    queued.send(b"{\"verb\":\"metrics\"}\n");
    let mut refused = Conn::open(&front);
    let line = refused.line();
    assert!(line.starts_with(r#"{"ok":false,"error":"overloaded""#), "{line:?}");
    assert_eq!(refused.line(), "", "a refused connection is closed");

    // Once `held` hangs up, the worker serves the queued connection.
    drop(held);
    assert!(queued.line().starts_with(r#"{"ok":true,"verb":"metrics""#));
    drop(queued);
    stop(shard, front);
}

#[test]
fn a_line_that_is_not_utf8_gets_bad_json_from_the_coordinator() {
    let (shard, front) = start();
    let mut conn = Conn::open(&front);
    conn.send(b"\xff\n{\"verb\":\"stats\"}\n");
    let line = conn.line();
    assert!(line.starts_with(r#"{"ok":false,"error":"bad-json""#), "{line:?}");
    let line = conn.line();
    assert!(line.starts_with(r#"{"ok":true,"verb":"stats""#), "{line:?}");
    assert!(line.contains(r#""requests":2,"errors":1"#), "{line:?}");
    drop(conn);
    stop(shard, front);
}
