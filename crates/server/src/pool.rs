//! The server proper: a fixed worker pool behind a bounded accept
//! queue.
//!
//! Architecture (one accept thread, `workers` handler threads):
//!
//! ```text
//! accept loop ── full? ──▶ 503 + Retry-After: 1, half-close (shed, O(1))
//!      │                        │
//!      │                        ▼ hand off (bounded channel; full ⇒ close)
//!      │                    drainer ──▶ read the request, ≤ 100 ms, close
//!      ▼ push (bounded queue, Mutex<VecDeque> + Condvar)
//!   workers ──▶ read request head (read timeout) ──▶ handler ──▶ write
//! ```
//!
//! Backpressure policy: the queue depth is the **only** buffering in
//! the server. When it is full the accept loop answers `503` with
//! `Retry-After: 1` and closes — the server's latency stays bounded by
//! `queue_depth / throughput` instead of growing without limit, and a
//! closed-loop client backs off instead of timing out. The accept loop
//! never reads from a shed peer: one drainer thread does, so a silent
//! peer cannot delay the next connection's answer.
//!
//! The whole request head must arrive within the read timeout: each
//! read after the first may wait only for what is left of it, so a peer
//! that trickles its head byte by byte holds a worker for at most the
//! read timeout before it is answered `408`.
//!
//! Shutdown drains: the accept loop stops, connections already queued
//! are still handled, then the workers exit and [`Server::join`]
//! returns. The blocking `accept` is woken by a loopback self-connect.

use crate::chaos::{self, ChaosState, ConnFaults};
use crate::http::{read_request, Response};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The application callback: one request in, one response out. Runs on
/// a worker thread; must be shareable across all of them.
pub type Handler = Arc<dyn Fn(&crate::http::Request) -> Response + Send + Sync>;

/// The `Retry-After` hint (seconds) on shed responses.
const SHED_RETRY_AFTER_SECS: u32 = 1;

/// How long after its 503 a shed connection's request bytes are drained
/// before it is closed: a well-behaved client's GET has long arrived,
/// and a silent peer holds the drainer no longer than this.
const SHED_DRAIN: Duration = Duration::from_millis(100);

/// Shed connections waiting for the drainer; beyond this many, a shed
/// connection is closed as soon as its 503 is written.
const SHED_DRAIN_BACKLOG: usize = 64;

/// Operational knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Handler thread count (clamped to at least 1).
    pub workers: usize,
    /// Accept-queue capacity; connections beyond it are shed with 503.
    pub queue_depth: usize,
    /// Time the whole request head may take to arrive.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout (response bytes).
    pub write_timeout: Duration,
    /// Transport fault injection (`None` = the shim is never touched).
    /// The shed path is exempt by design: its half-close + drain
    /// guarantee is what resilient clients rely on under overload.
    pub chaos: Option<Arc<ChaosState>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            chaos: None,
        }
    }
}

/// Live operational counters, shared between the server and the
/// application layer (which exports them on `/metrics`).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later shed or failed).
    pub accepted: AtomicU64,
    /// Connections answered `503` because the accept queue was full.
    pub shed: AtomicU64,
    /// Requests that reached the handler.
    pub handled: AtomicU64,
    /// Connections dropped before a valid request arrived (parse
    /// errors, read timeouts, early closes).
    pub read_errors: AtomicU64,
    /// Current accept-queue length.
    pub queue_depth: AtomicI64,
    /// High-water mark of the accept-queue length.
    pub queue_peak: AtomicU64,
}

struct Shared {
    queue: Mutex<VecDeque<(TcpStream, ConnFaults)>>,
    available: Condvar,
    shutdown: AtomicBool,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    handler: Handler,
    wake_addr: SocketAddr,
}

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    // A handler panic is caught per-connection; queue state is a plain
    // VecDeque of sockets and stays valid.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A running server: accept thread + worker pool. Dropping without
/// [`Server::join`] detaches the threads; prefer an explicit shutdown.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    drainer: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and worker pool immediately.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        stats: Arc<ServerStats>,
        handler: Handler,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // The shutdown wake-up self-connect must reach the listener even
        // when it is bound to the unspecified address.
        let wake_ip = if local_addr.ip().is_unspecified() {
            IpAddr::V4(Ipv4Addr::LOCALHOST)
        } else {
            local_addr.ip()
        };
        let wake_addr = SocketAddr::new(wake_ip, local_addr.port());
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats,
            config,
            handler,
            wake_addr,
        });
        // The accept loop owns the only sender, so the drainer exits
        // once the accept loop has.
        let (shed_tx, shed_rx) = mpsc::sync_channel(SHED_DRAIN_BACKLOG);
        let drainer = std::thread::Builder::new()
            .name("dcnr-shed-drain".into())
            .spawn(move || drain_loop(&shed_rx))?;
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("dcnr-accept".into())
                .spawn(move || accept_loop(listener, &shared, &shed_tx))?
        };
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("dcnr-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Server {
            shared,
            accept: Some(accept),
            drainer: Some(drainer),
            workers,
            local_addr,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The transport-chaos state, when fault injection is configured.
    pub fn chaos(&self) -> Option<&Arc<ChaosState>> {
        self.shared.config.chaos.as_ref()
    }

    /// A handle that can trigger shutdown from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: self.shared.clone(),
        }
    }

    /// Requests shutdown and blocks until the queue has drained and
    /// every thread has exited.
    pub fn shutdown_and_join(mut self) {
        self.shutdown_handle().request();
        self.join_threads();
    }

    /// Blocks until the server shuts down (via a [`ShutdownHandle`]).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        if let Some(d) = self.drainer.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Triggers a graceful drain: stop accepting, serve what is queued,
/// exit the workers.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Initiates shutdown (idempotent). Returns immediately; use
    /// [`Server::join`] to wait for the drain.
    pub fn request(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a loopback connection; the
        // accept loop re-checks the flag before queueing anything.
        let _ = TcpStream::connect_timeout(&self.shared.wake_addr, Duration::from_secs(1));
        self.shared.available.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared, shed_tx: &SyncSender<(TcpStream, Instant)>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection (or any racer) is dropped
        }
        let Ok(mut stream) = stream else { continue };
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        // Each accepted connection draws its deterministic fault
        // assignment up front; the injected accept latency applies
        // here, before the shed decision (a slow accept path delays
        // overload answers too, just like a congested real network).
        let faults = match &shared.config.chaos {
            Some(state) => {
                let f = state.next_connection();
                if f.accept_delay_ms > 0 {
                    state.stats.accept_delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(f.accept_delay_ms));
                }
                f
            }
            None => ConnFaults::NONE,
        };
        let mut queue = unpoison(shared.queue.lock());
        if queue.len() >= shared.config.queue_depth {
            drop(queue);
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            shed(&mut stream, shared);
            // A full drain backlog hands the stream back, and dropping
            // it closes the connection at once.
            let _ = shed_tx.try_send((stream, Instant::now()));
            continue;
        }
        queue.push_back((stream, faults));
        let depth = queue.len() as u64;
        shared
            .stats
            .queue_depth
            .store(depth as i64, Ordering::Relaxed);
        shared.stats.queue_peak.fetch_max(depth, Ordering::Relaxed);
        drop(queue);
        shared.available.notify_one();
    }
    // Let the workers drain the remaining queue and exit.
    shared.available.notify_all();
}

/// Answers `503 Retry-After` on an over-capacity connection and
/// half-closes it; [`drain_loop`] reads what the client sent before the
/// socket is dropped.
fn shed(stream: &mut TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = Response::unavailable(SHED_RETRY_AFTER_SECS).write_to(stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Drains each shed connection until its peer closes or [`SHED_DRAIN`]
/// has passed since its 503, then drops it: closing with unread data in
/// the receive buffer makes Linux send RST, which can destroy the
/// in-flight 503 on the client side. Returns once the accept loop has
/// exited and every handed-off connection is closed.
fn drain_loop(shed: &Receiver<(TcpStream, Instant)>) {
    let mut sink = [0u8; 1024];
    for (mut stream, shed_at) in shed {
        let deadline = shed_at + SHED_DRAIN;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                break;
            }
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
}

/// A connection's request-head reads under one shared deadline. The
/// first read waits the socket's read timeout, set before it; each
/// later read waits only for what is left of that timeout, and none is
/// issued once it has run out (the caller answers `408`).
struct HeadReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    first: bool,
}

impl Read for HeadReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !std::mem::take(&mut self.first) {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        let mut stream = self.stream;
        stream.read(buf)
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let next = {
            let mut queue = unpoison(shared.queue.lock());
            loop {
                if let Some(c) = queue.pop_front() {
                    shared
                        .stats
                        .queue_depth
                        .store(queue.len() as i64, Ordering::Relaxed);
                    break Some(c);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = unpoison(shared.available.wait(queue));
            }
        };
        let Some((mut conn, faults)) = next else {
            return;
        };
        let _ = conn.set_read_timeout(Some(shared.config.read_timeout));
        let _ = conn.set_write_timeout(Some(shared.config.write_timeout));
        if faults.read_delay_ms > 0 {
            if let Some(state) = &shared.config.chaos {
                state.stats.read_delays.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(faults.read_delay_ms));
        }
        let mut head = HeadReader {
            stream: &conn,
            deadline: Instant::now() + shared.config.read_timeout,
            first: true,
        };
        let response = match read_request(&mut head) {
            Ok(req) => {
                shared.stats.handled.fetch_add(1, Ordering::Relaxed);
                if req.method == "GET" {
                    // A handler panic answers 500 and closes this one
                    // connection; the worker and the server survive.
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        (shared.handler)(&req)
                    })) {
                        Ok(r) => r,
                        Err(_) => Response::internal_error("handler panicked"),
                    }
                } else {
                    Response::text(405, "only GET is supported\n")
                }
            }
            Err(e) => {
                shared.stats.read_errors.fetch_add(1, Ordering::Relaxed);
                e.response()
            }
        };
        match &shared.config.chaos {
            // With ConnFaults::NONE the shim path degenerates to the
            // same single write_all as the fault-free arm.
            Some(state) => {
                let _ = chaos::write_response(&mut conn, response.render(), &faults, &state.stats);
            }
            None => {
                let _ = response.write_to(&mut conn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::time::Instant;

    fn start(config: ServerConfig, handler: Handler) -> (Server, SocketAddr, Arc<ServerStats>) {
        let stats = Arc::new(ServerStats::default());
        let server = Server::bind("127.0.0.1:0", config, stats.clone(), handler).unwrap();
        let addr = server.local_addr();
        (server, addr, stats)
    }

    fn echo_handler() -> Handler {
        Arc::new(|req| Response::ok(format!("path={} query={}\n", req.path, req.query)))
    }

    #[test]
    fn serves_requests_and_drains_on_shutdown() {
        let (server, addr, stats) = start(ServerConfig::default(), echo_handler());
        for i in 0..8 {
            let r = client::get(&addr.to_string(), &format!("/x?i={i}"), None).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(
                String::from_utf8(r.body).unwrap(),
                format!("path=/x query=i={i}\n")
            );
        }
        server.shutdown_and_join();
        assert_eq!(stats.handled.load(Ordering::Relaxed), 8);
        assert_eq!(stats.shed.load(Ordering::Relaxed), 0);
        // After the drain, new connections are refused (or reset).
        assert!(client::get(&addr.to_string(), "/x", Some(Duration::from_millis(500))).is_err());
    }

    #[test]
    fn sheds_with_503_when_the_queue_is_full_and_never_hangs() {
        // One worker stuck in a slow handler + queue depth 1: with many
        // concurrent clients most connections must shed immediately.
        let slow: Handler = Arc::new(|_req| {
            std::thread::sleep(Duration::from_millis(150));
            Response::ok("slow\n")
        });
        let config = ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        };
        let (server, addr, stats) = start(config, slow);
        let started = Instant::now();
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    client::get(&addr, "/slow", Some(Duration::from_secs(10))).unwrap()
                })
            })
            .collect();
        let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let sheds = responses.iter().filter(|r| r.status == 503).count();
        let oks = responses.iter().filter(|r| r.status == 200).count();
        assert_eq!(sheds + oks, 8, "every client gets a definitive answer");
        assert!(sheds >= 4, "expected most of 8 clients shed, got {sheds}");
        let shed_response = responses.iter().find(|r| r.status == 503).unwrap();
        assert!(
            shed_response.header("retry-after").is_some(),
            "shed responses carry Retry-After"
        );
        // Sheds are immediate: total wall clock is bounded by the few
        // slow requests actually admitted, not by 8 * 150ms.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(stats.shed.load(Ordering::Relaxed) as usize, sheds);
        server.shutdown_and_join();
    }

    #[test]
    fn silent_shed_peers_do_not_delay_the_next_503() {
        // One worker and a queue of one, both held by requests parked on
        // a gate, so every later connection is shed. Twenty peers then
        // connect and send nothing: the accept loop must answer the next
        // connection without waiting to drain any of them.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (entered_tx, entered_rx) = mpsc::channel();
        let held: Handler = {
            let gate = gate.clone();
            Arc::new(move |_req| {
                let _ = entered_tx.send(());
                let (open, opened) = &*gate;
                let mut open = unpoison(open.lock());
                while !*open {
                    open = unpoison(opened.wait(open));
                }
                Response::ok("held\n")
            })
        };
        let config = ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        };
        let (server, addr, stats) = start(config, held);
        let hold = || {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                client::get(&addr, "/hold", Some(Duration::from_secs(10))).unwrap()
            })
        };
        // The second request must arrive after the worker took the
        // first off the queue, or it would be shed.
        let mut holders = vec![hold()];
        entered_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        holders.push(hold());
        let queued_by = Instant::now() + Duration::from_secs(5);
        while stats.queue_depth.load(Ordering::Relaxed) != 1 {
            assert!(
                Instant::now() < queued_by,
                "the second request never queued"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let silent: Vec<TcpStream> = (0..20).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let started = Instant::now();
        let r = client::get(&addr.to_string(), "/healthz", Some(Duration::from_secs(10))).unwrap();
        let waited = started.elapsed();
        assert_eq!(r.status, 503);
        assert!(waited < Duration::from_millis(200), "503 took {waited:?}");
        assert_eq!(stats.shed.load(Ordering::Relaxed), 21);

        *unpoison(gate.0.lock()) = true;
        gate.1.notify_all();
        for h in holders {
            assert_eq!(h.join().unwrap().status, 200);
        }
        drop(silent);
        server.shutdown_and_join();
    }

    #[test]
    fn handler_panic_answers_500_and_server_survives() {
        let flaky: Handler = Arc::new(|req| {
            if req.path == "/boom" {
                panic!("handler bug");
            }
            Response::ok("fine\n")
        });
        let (server, addr, _stats) = start(ServerConfig::default(), flaky);
        let r = client::get(&addr.to_string(), "/boom", None).unwrap();
        assert_eq!(r.status, 500);
        let r = client::get(&addr.to_string(), "/ok", None).unwrap();
        assert_eq!(r.status, 200);
        server.shutdown_and_join();
    }

    #[test]
    fn slow_request_heads_time_out_with_408() {
        use std::io::{Read as _, Write as _};
        let config = ServerConfig {
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let (server, addr, stats) = start(config, echo_handler());
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /partial").unwrap(); // never finishes the head
        let mut raw = Vec::new();
        let _ = s.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
        assert_eq!(stats.read_errors.load(Ordering::Relaxed), 1);
        server.shutdown_and_join();
    }

    #[test]
    fn a_trickled_head_times_out_with_408_after_the_whole_read_timeout() {
        // Each byte lands well inside the 100 ms read timeout, so only a
        // deadline over the whole head stops this peer from holding the
        // one worker for as long as it keeps trickling.
        use std::io::{Read as _, Write as _};
        let config = ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let (server, addr, stats) = start(config, echo_handler());
        let mut s = TcpStream::connect(addr).unwrap();
        let mut writer = s.try_clone().unwrap();
        let trickle = std::thread::spawn(move || {
            for &b in b"GET /never-finished-head HTTP/1.1\r\n" {
                if writer.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(60));
            }
        });
        let started = Instant::now();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut raw = Vec::new();
        let _ = s.read_to_end(&mut raw);
        let waited = started.elapsed();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
        assert!(waited < Duration::from_secs(1), "408 took {waited:?}");
        assert_eq!(stats.read_errors.load(Ordering::Relaxed), 1);
        drop(s);
        trickle.join().unwrap();
        server.shutdown_and_join();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let (server, addr, _stats) = start(ServerConfig::default(), echo_handler());
        let r = client::request(&addr.to_string(), "DELETE", "/x", None).unwrap();
        assert_eq!(r.status, 405);
        server.shutdown_and_join();
    }

    /// Raw response bytes for one GET — stronger than the parsed
    /// client view when proving byte identity.
    fn raw_get(addr: &SocketAddr, target: &str) -> Vec<u8> {
        use std::io::{Read as _, Write as _};
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = Vec::new();
        let _ = s.read_to_end(&mut raw);
        raw
    }

    #[test]
    fn zero_rate_chaos_serves_byte_identical_responses() {
        let (plain, plain_addr, _) = start(ServerConfig::default(), echo_handler());
        let chaotic_config = ServerConfig {
            chaos: Some(Arc::new(ChaosState::new(crate::chaos::FaultPlan {
                seed: 99,
                ..crate::chaos::FaultPlan::default()
            }))),
            ..ServerConfig::default()
        };
        let (chaotic, chaos_addr, _) = start(chaotic_config, echo_handler());
        for target in ["/a?x=1", "/b", "/c?longer=query&more=stuff"] {
            assert_eq!(
                raw_get(&plain_addr, target),
                raw_get(&chaos_addr, target),
                "{target}: an all-zero FaultPlan must not change a single byte"
            );
        }
        let stats = chaotic.chaos().unwrap().stats.total();
        assert_eq!(stats, 0, "zero rates inject nothing");
        plain.shutdown_and_join();
        chaotic.shutdown_and_join();
    }

    #[test]
    fn reset_injection_breaks_clients_and_is_counted() {
        let config = ServerConfig {
            chaos: Some(Arc::new(ChaosState::new(crate::chaos::FaultPlan {
                seed: 7,
                reset_rate: 1.0,
                ..crate::chaos::FaultPlan::default()
            }))),
            ..ServerConfig::default()
        };
        let (server, addr, _) = start(config, echo_handler());
        let mut failures = 0;
        for _ in 0..8 {
            if client::get(&addr.to_string(), "/x", Some(Duration::from_secs(5))).is_err() {
                failures += 1;
            }
        }
        assert!(
            failures >= 6,
            "reset-rate 1.0 must break (nearly) every request, got {failures}/8"
        );
        let chaos = server.chaos().unwrap();
        assert!(chaos.stats.resets.load(Ordering::Relaxed) >= 8);
        server.shutdown_and_join();
    }

    #[test]
    fn queued_connections_are_served_before_the_drain_finishes() {
        let slow: Handler = Arc::new(|_req| {
            std::thread::sleep(Duration::from_millis(100));
            Response::ok("done\n")
        });
        let config = ServerConfig {
            workers: 1,
            queue_depth: 8,
            ..ServerConfig::default()
        };
        let (server, addr, stats) = start(config, slow);
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    client::get(&addr, "/q", Some(Duration::from_secs(10))).unwrap()
                })
            })
            .collect();
        // Give the clients time to be accepted/queued, then drain.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown_and_join();
        for c in clients {
            assert_eq!(c.join().unwrap().status, 200, "queued conns get served");
        }
        assert_eq!(stats.handled.load(Ordering::Relaxed), 3);
    }
}
