//! The TCP front end shared by `dar serve` and the cluster coordinator:
//! everything about sockets and threads, nothing about what a request
//! means. Each server supplies a [`Handler`] that turns one request line
//! into a response.
//!
//! Concurrency model (`std::net` + `std::thread` only):
//!
//! * one **acceptor** thread pushes accepted sockets into a bounded
//!   `sync_channel`; when the queue is full the connection is *refused
//!   with a structured `overloaded` error* rather than queued unboundedly
//!   (backpressure, reported to [`Handler::refused`]);
//! * `threads` **workers** pop connections and serve newline-framed
//!   requests (LF or CRLF, blank lines skipped) under per-connection
//!   read/write timeouts; a line that is not UTF-8 still reaches the
//!   handler, which answers it with a structured error;
//! * **graceful shutdown** via a shutdown pipe (an atomic flag plus a
//!   self-connection to unblock `accept`): triggered by
//!   [`Frontend::shutdown`] or a handler's [`Next::Shutdown`], it stops
//!   accepting, lets the workers drain every queued connection, and
//!   [`Frontend::join`] waits for them;
//! * an optional Prometheus exposition listener over the global
//!   `dar-obs` registry.

use crate::json::Json;
use crate::protocol;
use crate::ServeConfig;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::str::Utf8Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a server speaks: one request line in, one response out, plus
/// hooks for per-instance accounting. Every hook has a no-op default.
pub trait Handler: Send + Sync + 'static {
    /// Answers one request line (without its newline framing), or the
    /// UTF-8 error when the line is not text.
    fn handle(&self, line: Result<&str, Utf8Error>) -> Reply;

    /// A connection was queued for the workers.
    fn accepted(&self) {}

    /// A connection was refused because the accept queue was full.
    fn refused(&self) {}

    /// A response was written and flushed. `elapsed` runs from the moment
    /// the request line was read; the byte counts include the newline on
    /// each side.
    fn served(&self, verb: &'static str, elapsed: Duration, bytes_read: u64, bytes_written: u64) {
        let _ = (verb, elapsed, bytes_read, bytes_written);
    }
}

/// A handler's answer to one request line.
pub struct Reply {
    /// The response line to write.
    pub response: Json,
    /// The verb label [`Handler::served`] receives (`"error"` for a line
    /// that never resolved to a verb).
    pub verb: &'static str,
    /// What the connection does once the response is written.
    pub next: Next,
}

/// What a connection does after a response.
pub enum Next {
    /// Read the next request line.
    Continue,
    /// Shut the whole front end down (the `shutdown` verb).
    Shutdown,
    /// Hand the socket's writer to the handler, which now owns the
    /// connection (a `subscribe` pusher), and free the worker.
    TakeOver(Box<dyn FnOnce(BufWriter<TcpStream>) -> io::Result<()>>),
}

/// The shutdown pipe: an atomic flag plus the listener's own address, so
/// `trigger` can unblock the acceptor's blocking `accept` with a
/// self-connection (the SIGINT-equivalent in a std-only server).
pub(crate) struct ShutdownSignal {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl ShutdownSignal {
    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    fn trigger(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Wake the acceptor out of accept(2).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// A running front end: its address and the shutdown/join lifecycle.
pub struct Frontend {
    addr: SocketAddr,
    shutdown: Arc<ShutdownSignal>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    exposer: Option<dar_obs::MetricsExposer>,
}

impl Frontend {
    /// Binds `addr` (port 0 for ephemeral) and starts the acceptor and the
    /// worker pool over `handler`, with `config`'s front-end fields:
    /// `threads`, `queue_depth`, the read and write timeouts and
    /// `metrics_addr`. Threads are named after `name`. Returns
    /// immediately; the front end runs on background threads until
    /// [`Frontend::shutdown`] or a handler's [`Next::Shutdown`].
    ///
    /// # Errors
    /// Bind failures (the protocol port or the metrics port) and thread
    /// spawn failures.
    pub fn start<H: Handler>(
        name: &str,
        addr: &str,
        handler: Arc<H>,
        config: &ServeConfig,
    ) -> io::Result<Frontend> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let exposer = match &config.metrics_addr {
            Some(metrics_addr) => Some(dar_obs::MetricsExposer::bind(metrics_addr.as_str())?),
            None => None,
        };
        let shutdown = Arc::new(ShutdownSignal { flag: AtomicBool::new(false), addr: local_addr });
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let timeouts = (config.read_timeout, config.write_timeout);

        let mut workers = Vec::with_capacity(config.threads.max(1));
        for worker_id in 0..config.threads.max(1) {
            let (rx, handler, shutdown) =
                (Arc::clone(&rx), Arc::clone(&handler), Arc::clone(&shutdown));
            workers.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{worker_id}"))
                    .spawn(move || worker_loop(&rx, &*handler, &shutdown, timeouts))?,
            );
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new().name(format!("{name}-acceptor")).spawn(move || {
                accept_loop(&listener, &tx, &*handler, &shutdown, timeouts.1);
                // Dropping `tx` here lets workers drain the queue and exit.
            })?
        };

        Ok(Frontend { addr: local_addr, shutdown, acceptor, workers, exposer })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Where the Prometheus exposition listener is bound, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exposer.as_ref().map(dar_obs::MetricsExposer::addr)
    }

    /// Triggers graceful shutdown (idempotent): stop accepting, drain the
    /// queue, let in-flight connections finish.
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// The shutdown flag, for a server's own background threads.
    pub(crate) fn signal(&self) -> Arc<ShutdownSignal> {
        Arc::clone(&self.shutdown)
    }

    /// Waits for the acceptor and every worker to exit, then stops the
    /// metrics listener. Blocks until a shutdown is triggered.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        if let Some(mut exposer) = self.exposer {
            exposer.shutdown();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    handler: &impl Handler,
    shutdown: &ShutdownSignal,
    write_timeout: Duration,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.is_set() {
                    break;
                }
                continue;
            }
        };
        if shutdown.is_set() {
            break; // the wake-up self-connection (or a late client)
        }
        match tx.try_send(stream) {
            Ok(()) => handler.accepted(),
            Err(TrySendError::Full(stream)) => {
                handler.refused();
                refuse(stream, write_timeout);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

/// Backpressure: tell the refused client why, then hang up.
fn refuse(stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let mut writer = BufWriter::new(stream);
    let line = protocol::error_response("overloaded", "accept queue is full, retry later").encode();
    let _ = writeln!(writer, "{line}");
    let _ = writer.flush();
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    handler: &impl Handler,
    shutdown: &ShutdownSignal,
    timeouts: (Duration, Duration),
) {
    loop {
        // Hold the lock only for the pop, never while serving.
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match stream {
            Ok(stream) => {
                let _ = serve_connection(stream, handler, shutdown, timeouts);
            }
            Err(_) => break, // acceptor gone and queue drained
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    handler: &impl Handler,
    shutdown: &ShutdownSignal,
    (read_timeout, write_timeout): (Duration, Duration),
) -> io::Result<()> {
    // Each response is one small write the client waits on; Nagle's
    // algorithm would hold it back for the peer's delayed ACK.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        // A fresh buffer per line: an idle connection holds no request's
        // worth of heap between requests.
        let mut buf = Vec::new();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break, // EOF, timeout, or reset
            Ok(_) => {}
        }
        let line = buf.strip_suffix(b"\n").map_or(&buf[..], |l| l.strip_suffix(b"\r").unwrap_or(l));
        let text = std::str::from_utf8(line);
        if text.is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        let started = Instant::now();
        let Reply { response, verb, next } = handler.handle(text);
        let encoded = response.encode();
        writeln!(writer, "{encoded}")?;
        writer.flush()?;
        // +1 on each side for the newline framing the codec strips/adds.
        handler.served(verb, started.elapsed(), line.len() as u64 + 1, encoded.len() as u64 + 1);
        match next {
            Next::Continue => {}
            Next::Shutdown => {
                shutdown.trigger();
                break;
            }
            Next::TakeOver(take_over) => return take_over(writer),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read};
    use std::net::Shutdown;
    use std::sync::atomic::AtomicU64;

    /// Echoes each line back as a JSON string; `bye` shuts the front end
    /// down, and a line that is not UTF-8 is echoed as `"not utf-8"`.
    #[derive(Default)]
    struct Echo {
        accepted: AtomicU64,
        refused: AtomicU64,
        served: AtomicU64,
    }

    impl Handler for Echo {
        fn handle(&self, line: Result<&str, Utf8Error>) -> Reply {
            let text = line.unwrap_or("not utf-8");
            let next = if text == "bye" { Next::Shutdown } else { Next::Continue };
            Reply { response: Json::Str(text.into()), verb: "echo", next }
        }

        fn accepted(&self) {
            self.accepted.fetch_add(1, Ordering::SeqCst);
        }

        fn refused(&self) {
            self.refused.fetch_add(1, Ordering::SeqCst);
        }

        fn served(&self, _: &'static str, _: Duration, _: u64, _: u64) {
            self.served.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn start(threads: usize, queue_depth: usize, read_timeout: Duration) -> (Frontend, Arc<Echo>) {
        let echo = Arc::new(Echo::default());
        let config = ServeConfig {
            threads,
            queue_depth,
            read_timeout,
            write_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        (Frontend::start("echo", "127.0.0.1:0", Arc::clone(&echo), &config).unwrap(), echo)
    }

    fn connect(frontend: &Frontend) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(frontend.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    /// Waits until the acceptor has queued `n` connections in all.
    fn await_accepted(echo: &Echo, n: u64) {
        let started = Instant::now();
        while echo.accepted.load(Ordering::SeqCst) < n {
            assert!(started.elapsed() < Duration::from_secs(10), "connection {n} never queued");
            std::thread::yield_now();
        }
    }

    #[test]
    fn framing_accepts_lf_crlf_blank_lines_bad_utf8_and_a_last_unterminated_line() {
        let (frontend, echo) = start(1, 4, Duration::from_secs(10));
        let (mut stream, mut reader) = connect(&frontend);
        stream.write_all(b"a\n\r\n  \nb\r\n\xff\nc").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut out = String::new();
        reader.read_to_string(&mut out).unwrap();
        assert_eq!(out, "\"a\"\n\"b\"\n\"not utf-8\"\n\"c\"\n");
        assert_eq!(echo.served.load(Ordering::SeqCst), 4, "blank lines are skipped");
        frontend.shutdown();
        frontend.join();
    }

    #[test]
    fn an_idle_connection_is_closed_after_the_read_timeout() {
        let read_timeout = Duration::from_millis(100);
        let (frontend, _) = start(1, 4, read_timeout);
        let (mut stream, mut reader) = connect(&frontend);
        // The server's idle wait starts after it answers `hi`, so this
        // clock, started before the request, bounds it from above.
        let started = Instant::now();
        stream.write_all(b"hi\n").unwrap();
        assert_eq!(read_line(&mut reader), "\"hi\"\n");
        assert_eq!(read_line(&mut reader), "", "the server hangs up on an idle client");
        assert!(started.elapsed() >= read_timeout);
        frontend.shutdown();
        frontend.join();
    }

    #[test]
    fn connections_queued_at_shutdown_are_served_before_join_returns() {
        let (frontend, echo) = start(1, 4, Duration::from_secs(10));
        // The single worker serves `held`; two more connections queue
        // behind it, each with its request already written.
        let (mut held, mut held_reader) = connect(&frontend);
        held.write_all(b"held\n").unwrap();
        assert_eq!(read_line(&mut held_reader), "\"held\"\n");
        let queued: Vec<_> = (0..2)
            .map(|i| {
                let (mut stream, reader) = connect(&frontend);
                stream.write_all(format!("queued {i}\n").as_bytes()).unwrap();
                stream.shutdown(Shutdown::Write).unwrap();
                reader
            })
            .collect();
        await_accepted(&echo, 3);

        frontend.shutdown();
        drop((held, held_reader));
        frontend.join();
        assert_eq!(echo.served.load(Ordering::SeqCst), 3);
        for (i, mut reader) in queued.into_iter().enumerate() {
            let mut out = String::new();
            reader.read_to_string(&mut out).unwrap();
            assert_eq!(out, format!("\"queued {i}\"\n"));
        }
    }

    #[test]
    fn served_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let server_end = accepted.try_clone().unwrap();
        assert!(!server_end.nodelay().unwrap(), "accepted sockets start with Nagle on");
        let shutdown = ShutdownSignal { flag: AtomicBool::new(false), addr };
        let timeouts = (Duration::from_secs(10), Duration::from_secs(10));
        std::thread::scope(|s| {
            let worker =
                s.spawn(|| serve_connection(accepted, &Echo::default(), &shutdown, timeouts));
            client.write_all(b"hi\n").unwrap();
            let mut reader = BufReader::new(client.try_clone().unwrap());
            assert_eq!(read_line(&mut reader), "\"hi\"\n");
            assert!(server_end.nodelay().unwrap());
            client.shutdown(Shutdown::Write).unwrap();
            worker.join().unwrap().unwrap();
        });
    }

    #[test]
    fn a_full_queue_refuses_with_a_structured_overloaded_line() {
        let (frontend, echo) = start(1, 1, Duration::from_secs(10));
        let (mut held, mut held_reader) = connect(&frontend);
        held.write_all(b"held\n").unwrap();
        assert_eq!(read_line(&mut held_reader), "\"held\"\n");
        let queued = connect(&frontend);
        await_accepted(&echo, 2);

        let (_, mut refused) = connect(&frontend);
        let line = read_line(&mut refused);
        assert!(line.contains("\"error\":\"overloaded\""), "{line}");
        assert_eq!(read_line(&mut refused), "", "a refused connection is closed");
        assert_eq!(echo.refused.load(Ordering::SeqCst), 1);

        // `bye` on the held connection shuts the front end down.
        held.write_all(b"bye\n").unwrap();
        assert_eq!(read_line(&mut held_reader), "\"bye\"\n");
        drop(queued);
        frontend.join();
    }
}
