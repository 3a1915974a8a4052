//! Request framing over real TCP: a request line that is not UTF-8 gets a
//! structured `bad-json` error, counted like any other error, and the
//! connection keeps serving.

use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn a_line_that_is_not_utf8_gets_bad_json_and_the_connection_stays_open() {
    let partitioning = Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean);
    let engine = DarEngine::new(partitioning, EngineConfig::default()).unwrap();
    let timeout = Duration::from_secs(10);
    let config = ServeConfig {
        threads: 1,
        read_timeout: timeout,
        write_timeout: timeout,
        ..ServeConfig::default()
    };
    let handle = Server::start(engine, "127.0.0.1:0", config).unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(timeout)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"\xff\n{\"verb\":\"stats\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with(r#"{"ok":false,"error":"bad-json""#), "{line:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with(r#"{"ok":true,"verb":"stats""#), "{line:?}");
    drop((stream, reader));

    handle.shutdown();
    let stats = handle.join().unwrap().stats;
    assert_eq!((stats.error_responses, stats.stats_requests), (1, 1));
    assert_eq!(stats.bytes_read, 2 + 17, "each line counts its bytes plus the newline");
}
