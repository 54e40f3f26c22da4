//! The network-facing serve edge: a std-only TCP front-end over
//! [`ExecService`].
//!
//! This is the ROADMAP's "heavy traffic" front door. An [`EdgeServer`]
//! binds a loopback TCP listener and speaks a small length-prefixed
//! binary protocol (`bridge-edge/1`, zero external crates): clients
//! submit serialized [`RunRequest`]s and scrape the `bridge-metrics`
//! Prometheus/JSON expositions and `bridge-health/1` snapshots from the
//! same socket.
//!
//! # Bounded, observable admission
//!
//! Overload never blocks the socket reader and never silently drops a
//! request. Admission is a pure non-blocking pipeline — decode, deadline
//! check, per-tenant quota ([`QuotaLedger`]), fair bounded queue
//! ([`FairQueue`]) — and every exit from it is a typed
//! [`EdgeStatus`] the client receives: queue full, over quota, deadline
//! expired, malformed, shutting down. Deadlines are enforced **twice**:
//! an expired request is refused at admission, and one that aged out
//! while queued is shed at dispatch — stale work is never executed.
//!
//! Every decision is instrumented three ways: `serve.edge.*` counters
//! and histograms in the service registry, [`TraceEvent::EdgeAdmit`] /
//! [`TraceEvent::EdgeShed`] / [`TraceEvent::EdgeDeadline`] records in
//! the edge tracer, and — with [`ServeConfig::spans`] on — the PR-8
//! request span tree (request → enqueue → queue-wait → dispatch with the
//! engine subtree grafted underneath).
//!
//! # Determinism
//!
//! The edge schedules; it never computes. An admitted request's response
//! (cycles, report text, observed-memory bytes) is byte-identical to
//! running the same [`RunRequest`] through an in-process service — the
//! `serve_load` bench asserts this over thousands of concurrent socket
//! requests.

use crate::deadline::Deadline;
use crate::tenant::{FairQueue, QuotaLedger, TryPushError};
use crate::{ExecService, GuestResult, Job, KernelSpec, RunRequest, ServeConfig};
use bridge_dbt::MdaStrategy;
use bridge_trace::{TraceEvent, Tracer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Protocol identifier (reported by [`EdgeServer::schema`]; bump on any
/// wire layout change).
pub const EDGE_SCHEMA: &str = "bridge-edge/1";

/// Upper bound on a single frame's payload — far above any legitimate
/// request and small enough that a garbage length prefix cannot balloon
/// allocation.
const MAX_FRAME: usize = 4 << 20;

/// Request opcodes (first payload byte).
const OP_RUN: u8 = 1;
const OP_METRICS_PROM: u8 = 2;
const OP_METRICS_JSON: u8 = 3;
const OP_HEALTH: u8 = 4;
const OP_ALERTS: u8 = 5;
const OP_DASHBOARD: u8 = 6;

/// Response body kinds (byte after the status).
const BODY_EMPTY: u8 = 0;
const BODY_RUN: u8 = 1;
const BODY_TEXT: u8 = 2;

/// The typed outcome of one edge request — every submission gets exactly
/// one of these back; nothing is silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeStatus {
    /// Executed; the response carries the run outcome.
    Ok,
    /// Shed at admission: the bounded queue was full.
    ShedQueueFull,
    /// Shed at admission: the tenant was over its in-flight quota.
    ShedQuota,
    /// Shed at admission: the deadline had already expired.
    ShedDeadline,
    /// Shed at dispatch: the deadline expired while the request sat in
    /// the queue. The request was **never executed**.
    ShedDeadlineQueued,
    /// The frame did not parse as a `bridge-edge/1` request.
    BadRequest,
    /// The listener is shutting down.
    ShuttingDown,
}

impl EdgeStatus {
    /// Stable wire/trace code.
    pub fn code(self) -> u32 {
        match self {
            EdgeStatus::Ok => 0,
            EdgeStatus::ShedQueueFull => 1,
            EdgeStatus::ShedQuota => 2,
            EdgeStatus::ShedDeadline => 3,
            EdgeStatus::ShedDeadlineQueued => 4,
            EdgeStatus::BadRequest => 5,
            EdgeStatus::ShuttingDown => 6,
        }
    }

    /// Decodes [`EdgeStatus::code`].
    pub fn from_code(code: u32) -> Option<EdgeStatus> {
        Some(match code {
            0 => EdgeStatus::Ok,
            1 => EdgeStatus::ShedQueueFull,
            2 => EdgeStatus::ShedQuota,
            3 => EdgeStatus::ShedDeadline,
            4 => EdgeStatus::ShedDeadlineQueued,
            5 => EdgeStatus::BadRequest,
            6 => EdgeStatus::ShuttingDown,
            _ => return None,
        })
    }

    /// Short machine-readable tag (metrics suffixes, logs).
    pub fn tag(self) -> &'static str {
        match self {
            EdgeStatus::Ok => "ok",
            EdgeStatus::ShedQueueFull => "shed_queue_full",
            EdgeStatus::ShedQuota => "shed_quota",
            EdgeStatus::ShedDeadline => "shed_deadline",
            EdgeStatus::ShedDeadlineQueued => "shed_deadline_queued",
            EdgeStatus::BadRequest => "bad_request",
            EdgeStatus::ShuttingDown => "shutting_down",
        }
    }

    /// Whether this is a shed (admitted work never ran / never queued).
    pub fn is_shed(self) -> bool {
        !matches!(self, EdgeStatus::Ok)
    }
}

/// Edge tuning on top of the inner service's [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Tuning for the wrapped [`ExecService`].
    pub serve: ServeConfig,
    /// Capacity of the fair admission queue (overload sheds beyond it).
    pub queue_depth: usize,
    /// Dispatch workers draining the queue (vCPU threads calling the
    /// service). Zero is valid for tests: everything queues, nothing
    /// dispatches until shutdown sheds the remainder.
    pub workers: usize,
    /// Per-tenant in-flight cap (admitted but unanswered requests).
    pub per_tenant_inflight: usize,
}

impl Default for EdgeConfig {
    fn default() -> EdgeConfig {
        EdgeConfig {
            serve: ServeConfig::default(),
            queue_depth: 64,
            workers: 4,
            per_tenant_inflight: 32,
        }
    }
}

impl EdgeConfig {
    /// Builder-style: set the inner service tuning.
    pub fn with_serve(mut self, serve: ServeConfig) -> EdgeConfig {
        self.serve = serve;
        self
    }

    /// Builder-style: set the admission queue capacity (at least 1).
    pub fn with_queue_depth(mut self, depth: usize) -> EdgeConfig {
        self.queue_depth = depth.max(1);
        self
    }

    /// Builder-style: set the dispatch worker count (0 allowed).
    pub fn with_workers(mut self, workers: usize) -> EdgeConfig {
        self.workers = workers;
        self
    }

    /// Builder-style: set the per-tenant in-flight cap (at least 1).
    pub fn with_per_tenant_inflight(mut self, cap: usize) -> EdgeConfig {
        self.per_tenant_inflight = cap.max(1);
        self
    }
}

/// A connection's write half, shared by its reader and the dispatch workers.
type Conn = Arc<Mutex<dyn Write + Send>>;

/// Where an admitted run's answer goes: the client's request id and its
/// connection's write half.
struct Reply {
    id: u64,
    conn: Conn,
}

/// State shared by the acceptor, per-connection readers and dispatch
/// workers.
struct EdgeShared {
    svc: ExecService,
    queue: FairQueue<Job<Reply>>,
    ledger: QuotaLedger,
    shutdown: AtomicBool,
    tracer: Mutex<Tracer>,
}

impl EdgeShared {
    fn record(&self, event: TraceEvent) {
        self.tracer
            .lock()
            .expect("edge tracer lock never poisoned")
            .record(0, event);
    }

    /// Counts `status` in `serve.edge.*` and answers `id` with it and an
    /// empty body.
    fn refuse(&self, conn: &Conn, id: u64, status: EdgeStatus) {
        let name = format!("serve.edge.{}", status.tag());
        self.svc.metrics.counter(&name).inc();
        answer(conn, Frame::response(id, status, BODY_EMPTY, 0));
    }

    /// Admission for one decoded run request: deadline, quota, fair
    /// queue — in that order, never blocking. Returns the typed verdict
    /// (the caller has already counted `serve.edge.requests`).
    fn admit(
        &self,
        conn: &Conn,
        id: u64,
        tenant: u32,
        deadline: Deadline,
        req: RunRequest,
    ) -> EdgeStatus {
        if self.shutdown.load(Ordering::SeqCst) {
            return EdgeStatus::ShuttingDown;
        }
        if deadline.expired() {
            self.record(TraceEvent::EdgeDeadline {
                tenant,
                id,
                waited_us: 0,
            });
            return EdgeStatus::ShedDeadline;
        }
        if !self.ledger.admit(tenant) {
            self.record(TraceEvent::EdgeShed {
                tenant,
                id,
                code: EdgeStatus::ShedQuota.code(),
            });
            return EdgeStatus::ShedQuota;
        }
        // `submit` roots the request span here — the listener is where
        // the request's service lifetime begins.
        let reply = Reply {
            id,
            conn: Arc::clone(conn),
        };
        match self.svc.submit(&self.queue, tenant, req, deadline, reply) {
            Ok(()) => {
                self.svc.metrics.counter("serve.edge.admitted").inc();
                self.record(TraceEvent::EdgeAdmit { tenant, id });
                EdgeStatus::Ok
            }
            Err(TryPushError::Full(_)) => {
                self.ledger.release(tenant);
                self.record(TraceEvent::EdgeShed {
                    tenant,
                    id,
                    code: EdgeStatus::ShedQueueFull.code(),
                });
                EdgeStatus::ShedQueueFull
            }
            Err(TryPushError::Closed(_)) => {
                self.ledger.release(tenant);
                EdgeStatus::ShuttingDown
            }
        }
    }

    /// The dispatch loop's delivery for the edge: writes the run body, or
    /// the typed shed for a deadline that expired in the queue, to the
    /// client's connection and returns the tenant's quota slot.
    fn deliver(&self, tenant: u32, reply: Reply, result: Result<GuestResult, u64>) {
        match result {
            Err(waited_us) => {
                self.record(TraceEvent::EdgeDeadline {
                    tenant,
                    id: reply.id,
                    waited_us,
                });
                self.refuse(&reply.conn, reply.id, EdgeStatus::ShedDeadlineQueued);
            }
            Ok(result) => {
                self.svc.metrics.counter("serve.edge.ok").inc();
                let text = result.report.to_string();
                let memory: usize = result.memory.iter().map(|(_, b)| 8 + b.len()).sum();
                let mut f =
                    Frame::response(reply.id, EdgeStatus::Ok, BODY_RUN, 16 + text.len() + memory)
                        .put(result.report.stats.cycles.to_le_bytes())
                        .blob(text.as_bytes())
                        .put((result.memory.len() as u32).to_le_bytes());
                for (addr, bytes) in &result.memory {
                    f = f.put(addr.to_le_bytes()).blob(bytes);
                }
                answer(&reply.conn, f);
            }
        }
        self.ledger.release(tenant);
    }

    /// One dispatch worker: the service's dispatch loop over the
    /// admission queue, answering on each job's connection.
    fn work(&self) {
        self.svc
            .dispatch_loop(&self.queue, |tenant, reply, result| {
                self.deliver(tenant, reply, result)
            });
    }

    /// Serves one connection's read half until EOF or shutdown.
    fn serve_conn(&self, stream: TcpStream) {
        self.svc.metrics.counter("serve.edge.connections").inc();
        // Frames leave whole (see `Frame`); Nagle would only delay them.
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let conn: Conn = Arc::new(Mutex::new(write_half));
        let mut reader = stream;
        loop {
            match read_frame(&mut reader) {
                Ok(Some(frame)) => self.handle_frame(&conn, &frame),
                // An oversize length prefix: the stream cannot be
                // resynchronised, so refuse it and close. Runs already
                // admitted keep the write half until they are answered.
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    self.svc.metrics.counter("serve.edge.requests").inc();
                    self.refuse(&conn, 0, EdgeStatus::BadRequest);
                    break;
                }
                _ => break,
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
    }

    fn handle_frame(&self, conn: &Conn, frame: &[u8]) {
        self.svc.metrics.counter("serve.edge.requests").inc();
        let mut rd = Rd { b: frame, pos: 0 };
        let Some(op) = rd.u8() else {
            self.refuse(conn, 0, EdgeStatus::BadRequest);
            return;
        };
        match op {
            OP_RUN => {
                let parsed = (|| {
                    let id = rd.u64()?;
                    let tenant = rd.u32()?;
                    let deadline_ms = rd.u32()?;
                    let tag = rd.u8()?;
                    let a = rd.u32()?;
                    let b = rd.u32()?;
                    let strategy = strategy_from_u8(rd.u8()?)?;
                    let threshold = rd.u64()?;
                    let trace = rd.u8()?;
                    if !rd.done() {
                        return None;
                    }
                    let spec = KernelSpec::from_wire(tag, a, b)?;
                    Some((
                        id,
                        tenant,
                        Deadline::from_wire_ms(u64::from(deadline_ms)),
                        RunRequest::new(spec, strategy)
                            .with_threshold(threshold)
                            .with_trace(trace != 0),
                    ))
                })();
                match parsed {
                    None => {
                        // Echo the id when the prefix parsed far enough.
                        let id = u64::from_le_bytes(
                            frame
                                .get(1..9)
                                .and_then(|s| s.try_into().ok())
                                .unwrap_or([0; 8]),
                        );
                        self.refuse(conn, id, EdgeStatus::BadRequest);
                    }
                    Some((id, tenant, deadline, req)) => {
                        let verdict = self.admit(conn, id, tenant, deadline, req);
                        if verdict != EdgeStatus::Ok {
                            self.refuse(conn, id, verdict);
                        }
                        // Admitted: the dispatch worker writes the
                        // response when the run completes (or sheds it
                        // if the deadline expires in the queue).
                    }
                }
            }
            OP_METRICS_PROM | OP_METRICS_JSON | OP_HEALTH | OP_ALERTS | OP_DASHBOARD => {
                let id = rd.u64().unwrap_or(0);
                let text = match op {
                    OP_METRICS_PROM => self.svc.metrics.to_prometheus(),
                    OP_METRICS_JSON => self.svc.metrics.to_json(),
                    OP_ALERTS => self.svc.alerts_json(),
                    OP_DASHBOARD => self.svc.dashboard(),
                    _ => {
                        let mut lines = self.svc.health_report().join("\n");
                        lines.push('\n');
                        lines
                    }
                };
                let f = Frame::response(id, EdgeStatus::Ok, BODY_TEXT, 4 + text.len());
                answer(conn, f.blob(text.as_bytes()));
            }
            _ => self.refuse(conn, 0, EdgeStatus::BadRequest),
        }
    }
}

/// The running edge: listener, per-connection readers and dispatch
/// workers over one [`ExecService`]. Dropping without
/// [`EdgeServer::shutdown`] leaks the threads; call it.
pub struct EdgeServer {
    shared: Arc<EdgeShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EdgeServer {
    /// Binds `127.0.0.1:0` (ephemeral port) and starts the accept loop
    /// and dispatch workers.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/listen.
    pub fn start(cfg: EdgeConfig) -> std::io::Result<EdgeServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let trace_cfg = cfg.serve.trace.clone();
        let shared = Arc::new(EdgeShared {
            svc: ExecService::new(cfg.serve),
            queue: FairQueue::new(cfg.queue_depth),
            ledger: QuotaLedger::new(cfg.per_tenant_inflight),
            shutdown: AtomicBool::new(false),
            tracer: Mutex::new(Tracer::new(&trace_cfg)),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    // Readers detach; they exit on client EOF or when
                    // shutdown lands after their next frame.
                    std::thread::spawn(move || shared.serve_conn(stream));
                }
            })
        };
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.work())
            })
            .collect();
        Ok(EdgeServer {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (ephemeral port on loopback).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wire protocol this server speaks.
    pub fn schema(&self) -> &'static str {
        EDGE_SCHEMA
    }

    /// The wrapped service (metrics registry, health reports, spans).
    pub fn service(&self) -> &ExecService {
        &self.shared.svc
    }

    /// Snapshot of the edge tracer: one `edge_admit` / `edge_shed` /
    /// `edge_deadline` record per admission decision, at cycle 0.
    pub fn edge_trace(&self) -> Tracer {
        self.shared
            .tracer
            .lock()
            .expect("edge tracer lock never poisoned")
            .clone()
    }

    /// Stops accepting, drains the queue, and joins every thread. Any
    /// job still queued when the workers exit (possible only with zero
    /// workers) is answered `ShuttingDown` — nothing is silently
    /// dropped.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Unblock the acceptor with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        while let Some((tenant, job)) = self.shared.queue.pop() {
            self.shared.svc.span_end(job.req_span, 0);
            let Reply { id, conn } = job.reply;
            self.shared.refuse(&conn, id, EdgeStatus::ShuttingDown);
            self.shared.ledger.release(tenant);
        }
    }
}

/// The decoded result of an executed run: the byte-identity witnesses
/// the in-process service produces for the same request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Simulated cycles the guest ran for.
    pub cycles: u64,
    /// The engine's `RunReport` rendered to text.
    pub report_text: String,
    /// Final guest memory over the spec's observed ranges.
    pub memory: Vec<(u32, Vec<u8>)>,
}

/// One response frame, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeResponse {
    /// Echo of the client-assigned request id.
    pub id: u64,
    /// The typed verdict.
    pub status: EdgeStatus,
    /// Run outcome (`Ok` responses to run requests).
    pub outcome: Option<RunOutcome>,
    /// Text body (metrics / health responses).
    pub text: Option<String>,
}

/// A pipelined `bridge-edge/1` client: write any number of requests,
/// then read their responses (out of order — match on
/// [`EdgeResponse::id`]).
pub struct EdgeClient {
    stream: TcpStream,
}

impl EdgeClient {
    /// Connects to an [`EdgeServer`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<EdgeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(EdgeClient { stream })
    }

    /// Writes one run request (does not wait for the response).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn submit_run(
        &mut self,
        id: u64,
        tenant: u32,
        deadline_ms: u32,
        req: RunRequest,
    ) -> std::io::Result<()> {
        run_request(id, tenant, deadline_ms, req).send(&mut self.stream)
    }

    /// Reads the next response frame.
    ///
    /// # Errors
    ///
    /// Socket errors, or `InvalidData` on a malformed frame.
    pub fn read_response(&mut self) -> std::io::Result<EdgeResponse> {
        let frame = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed")
        })?;
        decode_response(&frame)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad frame"))
    }

    /// Submits one run and waits for its response (no pipelining).
    ///
    /// # Errors
    ///
    /// As [`EdgeClient::submit_run`] / [`EdgeClient::read_response`].
    pub fn run(
        &mut self,
        id: u64,
        tenant: u32,
        deadline_ms: u32,
        req: RunRequest,
    ) -> std::io::Result<EdgeResponse> {
        self.submit_run(id, tenant, deadline_ms, req)?;
        self.read_response()
    }

    fn fetch_text(&mut self, op: u8) -> std::io::Result<String> {
        scrape_request(op).send(&mut self.stream)?;
        let resp = self.read_response()?;
        resp.text
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no text body"))
    }

    /// Scrapes the Prometheus exposition over the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket/decode errors.
    pub fn metrics_prometheus(&mut self) -> std::io::Result<String> {
        self.fetch_text(OP_METRICS_PROM)
    }

    /// Scrapes the `bridge-metrics/1` JSON document over the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket/decode errors.
    pub fn metrics_json(&mut self) -> std::io::Result<String> {
        self.fetch_text(OP_METRICS_JSON)
    }

    /// Fetches `bridge-health/1` snapshot lines over the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket/decode errors.
    pub fn health(&mut self) -> std::io::Result<String> {
        self.fetch_text(OP_HEALTH)
    }

    /// Ticks the serve-side telemetry window and fetches the
    /// `bridge-alerts/1` document over the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket/decode errors.
    pub fn alerts(&mut self) -> std::io::Result<String> {
        self.fetch_text(OP_ALERTS)
    }

    /// Ticks the serve-side telemetry window and fetches the plain-text
    /// fleet dashboard over the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket/decode errors.
    pub fn dashboard(&mut self) -> std::io::Result<String> {
        self.fetch_text(OP_DASHBOARD)
    }
}

fn decode_response(frame: &[u8]) -> Option<EdgeResponse> {
    let mut rd = Rd { b: frame, pos: 0 };
    let id = rd.u64()?;
    let status = EdgeStatus::from_code(u32::from(rd.u8()?))?;
    let kind = rd.u8()?;
    let mut resp = EdgeResponse {
        id,
        status,
        outcome: None,
        text: None,
    };
    match kind {
        BODY_EMPTY => {}
        BODY_RUN => {
            let cycles = rd.u64()?;
            let len = rd.u32()? as usize;
            let report_text = String::from_utf8(rd.bytes(len)?.to_vec()).ok()?;
            let ranges = rd.u32()? as usize;
            let mut memory = Vec::with_capacity(ranges.min(64));
            for _ in 0..ranges {
                let addr = rd.u32()?;
                let n = rd.u32()? as usize;
                memory.push((addr, rd.bytes(n)?.to_vec()));
            }
            resp.outcome = Some(RunOutcome {
                cycles,
                report_text,
                memory,
            });
        }
        BODY_TEXT => {
            let len = rd.u32()? as usize;
            resp.text = Some(String::from_utf8(rd.bytes(len)?.to_vec()).ok()?);
        }
        _ => return None,
    }
    if !rd.done() {
        return None;
    }
    Some(resp)
}

/// One outgoing frame, encoded in place: the u32 length is reserved up
/// front and patched by [`Frame::send`], so the frame is allocated once
/// and leaves in one write (a length prefix written on its own waits on
/// Nagle and the peer's delayed ACK, about 40 ms).
struct Frame(Vec<u8>);

impl Frame {
    /// An empty frame with room for a `payload`-byte payload.
    fn with_capacity(payload: usize) -> Frame {
        let mut buf = Vec::with_capacity(4 + payload);
        buf.extend_from_slice(&[0; 4]);
        Frame(buf)
    }

    /// A response head (id, status, body kind) with room for the body.
    fn response(id: u64, status: EdgeStatus, kind: u8, body: usize) -> Frame {
        let status = status.code() as u8;
        Frame::with_capacity(10 + body)
            .put(id.to_le_bytes())
            .put([status, kind])
    }

    /// Appends raw bytes; integers go in as `to_le_bytes()`.
    fn put(mut self, bytes: impl AsRef<[u8]>) -> Frame {
        self.0.extend_from_slice(bytes.as_ref());
        self
    }

    /// Appends a u32 length, then the bytes.
    fn blob(self, bytes: &[u8]) -> Frame {
        self.put((bytes.len() as u32).to_le_bytes()).put(bytes)
    }

    /// Patches the length prefix and writes the frame in one `write_all`.
    fn send<W: Write + ?Sized>(mut self, w: &mut W) -> std::io::Result<()> {
        let len = (self.0.len() - 4) as u32;
        self.0[..4].copy_from_slice(&len.to_le_bytes());
        w.write_all(&self.0)?;
        w.flush()
    }
}

/// Sends one response under the connection's write lock, so frames from
/// the reader (sheds, scrapes) and the workers (results) interleave
/// whole. Write errors are swallowed: a client that hung up forfeits its
/// responses, it does not take a worker down.
fn answer(conn: &Conn, frame: Frame) {
    let mut w = conn.lock().expect("conn write lock never poisoned");
    let _ = frame.send(&mut *w);
}

/// An `OP_RUN` request frame.
fn run_request(id: u64, tenant: u32, deadline_ms: u32, req: RunRequest) -> Frame {
    let (tag, a, b) = req.kernel.to_wire();
    Frame::with_capacity(36)
        .put([OP_RUN])
        .put(id.to_le_bytes())
        .put(tenant.to_le_bytes())
        .put(deadline_ms.to_le_bytes())
        .put([tag])
        .put(a.to_le_bytes())
        .put(b.to_le_bytes())
        .put([strategy_to_u8(req.strategy)])
        .put(req.hot_threshold.to_le_bytes())
        .put([u8::from(req.trace)])
}

/// A scrape request frame: the opcode and id 0.
fn scrape_request(op: u8) -> Frame {
    Frame::with_capacity(9).put([op]).put(0u64.to_le_bytes())
}

/// Reads one length-prefixed frame; `None` on clean EOF at a frame
/// boundary, `InvalidData` on a length over `MAX_FRAME`.
fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len) {
        return if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Ok(None)
        } else {
            Err(e)
        };
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

fn strategy_to_u8(s: MdaStrategy) -> u8 {
    MdaStrategy::ALL
        .iter()
        .position(|&x| x == s)
        .expect("strategy in ALL") as u8
}

fn strategy_from_u8(v: u8) -> Option<MdaStrategy> {
    MdaStrategy::ALL.get(usize::from(v)).copied()
}

/// Bounds-checked little-endian payload reader.
struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bridge_trace::SpanKind;

    fn requests() -> Vec<RunRequest> {
        let spec = KernelSpec::PhaseChangeSum {
            aligned: 60,
            misaligned: 60,
        };
        vec![
            RunRequest::new(spec, MdaStrategy::Dpeh).with_threshold(10),
            RunRequest::new(
                KernelSpec::MemcpyUnaligned { len: 64 },
                MdaStrategy::ExceptionHandling,
            )
            .with_threshold(10),
            RunRequest::new(spec, MdaStrategy::StaticProfiling).with_threshold(10),
        ]
    }

    /// Results over the socket are byte-identical to the in-process
    /// service: cycles, report text and observed memory all match.
    #[test]
    fn socket_results_match_in_process() {
        let edge = EdgeServer::start(EdgeConfig::default().with_workers(2)).unwrap();
        let reference = ExecService::new(ServeConfig::default());
        let mut client = EdgeClient::connect(edge.addr()).unwrap();
        for (i, req) in requests().into_iter().enumerate() {
            let resp = client.run(i as u64 + 1, 7, 0, req).unwrap();
            assert_eq!(resp.id, i as u64 + 1);
            assert_eq!(resp.status, EdgeStatus::Ok);
            let out = resp.outcome.expect("run body");
            let local = reference.run_one(req);
            assert_eq!(out.cycles, local.report.stats.cycles);
            assert_eq!(out.report_text, local.report.to_string());
            assert_eq!(out.memory, local.memory);
        }
        let m = edge.service().metrics();
        assert_eq!(m.counter("serve.edge.admitted").get(), 3);
        assert_eq!(m.counter("serve.edge.ok").get(), 3);
        assert_eq!(m.counter("serve.edge.requests").get(), 3);
        assert_eq!(m.histogram("serve.edge.queue_wait_us").count(), 3);
        assert_eq!(m.histogram("serve.edge.exec_us").count(), 3);
        // Admissions were traced.
        let admits = edge
            .edge_trace()
            .events()
            .filter(|r| matches!(r.event, TraceEvent::EdgeAdmit { .. }))
            .count();
        assert_eq!(admits, 3);
        edge.shutdown();
    }

    /// The same listener serves both metrics expositions and health
    /// snapshots.
    #[test]
    fn metrics_and_health_over_the_socket() {
        let edge = EdgeServer::start(EdgeConfig::default().with_workers(1)).unwrap();
        let mut client = EdgeClient::connect(edge.addr()).unwrap();
        client.run(1, 1, 0, requests()[1]).unwrap();
        let prom = client.metrics_prometheus().unwrap();
        assert!(prom.contains("# TYPE serve_edge_admitted counter"));
        assert!(prom.contains("serve_edge_ok 1"));
        assert!(prom.contains("# TYPE serve_edge_queue_wait_us histogram"));
        let json = client.metrics_json().unwrap();
        assert!(json.starts_with("{\"schema\":\"bridge-metrics/1\""));
        assert!(json.contains("\"serve.edge.admitted\""));
        let health = client.health().unwrap();
        let first = health.lines().next().unwrap();
        assert!(first.starts_with("{\"schema\":\"bridge-health/1\""));
        assert!(first.contains("\"context\":\"service\""));
        edge.shutdown();
    }

    /// Regression: the health headline reads the queue-wait histogram the
    /// dispatch loop records, so an edge-served fleet reports its real
    /// queue wait. Three runs pipelined onto one worker make the later
    /// two wait behind the first.
    #[test]
    fn health_headline_reports_edge_queue_wait() {
        let edge = EdgeServer::start(EdgeConfig::default().with_workers(1)).unwrap();
        let mut client = EdgeClient::connect(edge.addr()).unwrap();
        for (i, req) in requests().into_iter().enumerate() {
            client.submit_run(i as u64 + 1, 1, 0, req).unwrap();
        }
        for _ in 0..3 {
            assert_eq!(client.read_response().unwrap().status, EdgeStatus::Ok);
        }
        let svc = edge.service();
        svc.health_report();
        assert!(
            svc.metrics().gauge("serve.health.queue_wait_p99_us").get() > 0,
            "queue-wait headline reads the edge histogram"
        );
        edge.shutdown();
    }

    /// With zero workers nothing dispatches, so the bounded queue fills
    /// deterministically: the overflow requests get typed queue-full
    /// rejections immediately, and shutdown answers the queued ones —
    /// every submission is accounted for.
    #[test]
    fn queue_full_sheds_with_typed_rejection() {
        let edge = EdgeServer::start(
            EdgeConfig::default()
                .with_workers(0)
                .with_queue_depth(2)
                .with_per_tenant_inflight(32),
        )
        .unwrap();
        let mut client = EdgeClient::connect(edge.addr()).unwrap();
        let req = requests()[1];
        for id in 1..=4u64 {
            client.submit_run(id, 1, 0, req).unwrap();
        }
        // The two overflow rejections arrive first (ids 3 and 4).
        let r3 = client.read_response().unwrap();
        let r4 = client.read_response().unwrap();
        assert_eq!(
            (r3.id, r3.status),
            (3, EdgeStatus::ShedQueueFull),
            "typed rejection for the first overflow"
        );
        assert_eq!((r4.id, r4.status), (4, EdgeStatus::ShedQueueFull));
        let m = std::sync::Arc::clone(edge.service().metrics());
        assert_eq!(m.counter("serve.edge.admitted").get(), 2);
        assert_eq!(m.counter("serve.edge.shed_queue_full").get(), 2);
        let sheds = edge
            .edge_trace()
            .events()
            .filter(
                |r| matches!(r.event, TraceEvent::EdgeShed { code, .. } if code == EdgeStatus::ShedQueueFull.code()),
            )
            .count();
        assert_eq!(sheds, 2, "every shed was traced");
        edge.shutdown();
        // Nothing executed (no workers), and nothing vanished: the
        // queued jobs were answered at shutdown.
        assert_eq!(m.counter("serve.edge.ok").get(), 0);
        assert_eq!(m.counter("serve.requests").get(), 0);
        assert_eq!(m.counter("serve.edge.shutting_down").get(), 2);
    }

    /// Per-tenant quotas: a tenant over its in-flight cap is shed while
    /// other tenants keep being admitted.
    #[test]
    fn over_quota_tenant_sheds_others_admitted() {
        let edge = EdgeServer::start(
            EdgeConfig::default()
                .with_workers(0)
                .with_queue_depth(16)
                .with_per_tenant_inflight(1),
        )
        .unwrap();
        let mut client = EdgeClient::connect(edge.addr()).unwrap();
        let req = requests()[1];
        client.submit_run(1, 7, 0, req).unwrap(); // admitted
        client.submit_run(2, 7, 0, req).unwrap(); // over quota
        client.submit_run(3, 8, 0, req).unwrap(); // other tenant: admitted
        let resp = client.read_response().unwrap();
        assert_eq!((resp.id, resp.status), (2, EdgeStatus::ShedQuota));
        // Frames are handled in order per connection, so a scrape
        // returning means request 3's admission has been decided.
        client.metrics_prometheus().unwrap();
        let m = edge.service().metrics();
        assert_eq!(m.counter("serve.edge.admitted").get(), 2);
        assert_eq!(m.counter("serve.edge.shed_quota").get(), 1);
        edge.shutdown();
    }

    /// Deadline enforcement at admission: an already-expired deadline is
    /// refused before it touches the queue.
    #[test]
    fn expired_deadline_refused_at_admission() {
        let edge = EdgeServer::start(EdgeConfig::default().with_workers(0)).unwrap();
        // Drive the admission path directly with a deadline that is
        // already dead — the wire path cannot manufacture one
        // deterministically (budgets start at decode time).
        let conn: Conn = Arc::new(Mutex::new(std::io::sink()));
        let verdict = edge
            .shared
            .admit(&conn, 9, 3, Deadline::within_ms(0), requests()[1]);
        assert_eq!(verdict, EdgeStatus::ShedDeadline);
        assert!(edge.shared.queue.is_empty(), "never queued");
        let deadline_events = edge
            .edge_trace()
            .events()
            .filter(|r| matches!(r.event, TraceEvent::EdgeDeadline { waited_us: 0, .. }))
            .count();
        assert_eq!(deadline_events, 1);
        edge.shutdown();
    }

    /// Deadline enforcement at dispatch: a request that aged out in the
    /// queue is shed with a typed rejection and **never executed** — the
    /// service-level request counter does not move for it.
    #[test]
    fn deadline_expired_in_queue_is_never_executed() {
        let edge =
            EdgeServer::start(EdgeConfig::default().with_workers(0).with_queue_depth(4)).unwrap();
        let mut client = EdgeClient::connect(edge.addr()).unwrap();
        client.submit_run(5, 2, 1, requests()[1]).unwrap();
        // Let the 1ms budget die while the job sits in the queue (no
        // workers are draining it).
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Drain the queued job the way a worker would.
        edge.shared.queue.close();
        edge.shared.work();
        let resp = client.read_response().unwrap();
        assert_eq!((resp.id, resp.status), (5, EdgeStatus::ShedDeadlineQueued));
        let m = edge.service().metrics();
        assert_eq!(
            m.counter("serve.requests").get(),
            0,
            "expired request must never reach an engine"
        );
        assert_eq!(m.counter("serve.edge.shed_deadline_queued").get(), 1);
        let traced = edge.edge_trace().events().any(
            |r| matches!(r.event, TraceEvent::EdgeDeadline { waited_us, .. } if waited_us > 0),
        );
        assert!(traced, "queue-age deadline shed was traced with its wait");
        edge.shutdown();
    }

    /// With spans on, the edge grafts the full request lifecycle:
    /// request → enqueue → queue-wait → dispatch → engine subtree.
    #[test]
    fn edge_spans_graft_the_request_lifecycle() {
        let edge = EdgeServer::start(
            EdgeConfig::default()
                .with_workers(1)
                .with_serve(ServeConfig::default().with_spans(true)),
        )
        .unwrap();
        let mut client = EdgeClient::connect(edge.addr()).unwrap();
        client.run(1, 1, 0, requests()[0]).unwrap();
        let rec = edge.service().span_snapshot().expect("spans on");
        let by_kind = |k: SpanKind| rec.spans().filter(|r| r.kind == k).count();
        assert_eq!(by_kind(SpanKind::Request), 1);
        assert_eq!(by_kind(SpanKind::Enqueue), 1);
        assert_eq!(by_kind(SpanKind::QueueWait), 1);
        assert_eq!(by_kind(SpanKind::Dispatch), 1);
        assert_eq!(by_kind(SpanKind::Run), 1, "engine subtree adopted");
        let folded = rec.folded();
        assert!(
            folded.contains("serve;request;dispatch;run"),
            "engine run folds under the edge request path:\n{folded}"
        );
        edge.shutdown();
    }

    /// Malformed frames get a typed bad-request response; the connection
    /// survives for the next (valid) frame.
    #[test]
    fn malformed_frames_get_bad_request() {
        let edge = EdgeServer::start(EdgeConfig::default().with_workers(1)).unwrap();
        let mut client = EdgeClient::connect(edge.addr()).unwrap();
        // Unknown opcode.
        let bogus_op = Frame::with_capacity(1).put([0xEE]);
        bogus_op.send(&mut client.stream).unwrap();
        let resp = client.read_response().unwrap();
        assert_eq!(resp.status, EdgeStatus::BadRequest);
        // Truncated run payload: opcode + id only. The id still echoes.
        let truncated = Frame::with_capacity(9)
            .put([OP_RUN])
            .put(42u64.to_le_bytes());
        truncated.send(&mut client.stream).unwrap();
        let resp = client.read_response().unwrap();
        assert_eq!((resp.id, resp.status), (42, EdgeStatus::BadRequest));
        // Unknown kernel tag.
        let mut bogus_tag = run_request(43, 1, 0, requests()[1]);
        bogus_tag.0[4 + 17] = 99; // after length, opcode, id, tenant, deadline
        bogus_tag.send(&mut client.stream).unwrap();
        let resp = client.read_response().unwrap();
        assert_eq!((resp.id, resp.status), (43, EdgeStatus::BadRequest));
        // The connection still serves valid requests afterwards.
        let resp = client.run(44, 1, 0, requests()[1]).unwrap();
        assert_eq!((resp.id, resp.status), (44, EdgeStatus::Ok));
        assert_eq!(
            edge.service()
                .metrics()
                .counter("serve.edge.bad_request")
                .get(),
            3
        );
        edge.shutdown();
    }

    /// A length prefix over `MAX_FRAME` gets a typed refusal, then the
    /// connection closes (the stream cannot be resynchronised); a fresh
    /// connection is still served.
    #[test]
    fn oversize_frame_refused_then_closed() {
        let edge = EdgeServer::start(EdgeConfig::default().with_workers(1)).unwrap();
        let bad_requests = || {
            edge.service()
                .metrics()
                .counter("serve.edge.bad_request")
                .get()
        };
        let before = bad_requests();
        let mut client = EdgeClient::connect(edge.addr()).unwrap();
        let oversize = (MAX_FRAME as u32 + 1).to_le_bytes();
        client.stream.write_all(&oversize).unwrap();
        let resp = client.read_response().unwrap();
        assert_eq!((resp.id, resp.status), (0, EdgeStatus::BadRequest));
        assert_eq!(
            client.read_response().unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof,
            "the refused connection is closed"
        );
        assert_eq!(bad_requests(), before + 1);
        let mut fresh = EdgeClient::connect(edge.addr()).unwrap();
        let resp = fresh.run(1, 1, 0, requests()[1]).unwrap();
        assert_eq!((resp.id, resp.status), (1, EdgeStatus::Ok));
        edge.shutdown();
    }

    /// Records each `write` call whole.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Splits recorded writes into frame payloads, asserting that each
    /// write is exactly one frame with a correct length prefix.
    fn one_frame_per_write(w: &CountingWriter) -> Vec<Vec<u8>> {
        w.writes
            .iter()
            .map(|write| {
                let len = u32::from_le_bytes(write[..4].try_into().unwrap()) as usize;
                assert_eq!(len + 4, write.len(), "a write holds one whole frame");
                write[4..].to_vec()
            })
            .collect()
    }

    /// Every frame kind the edge or the client sends leaves in exactly
    /// one `write`: a length prefix sent on its own would wait on Nagle
    /// and the peer's delayed ACK.
    #[test]
    fn every_frame_leaves_in_one_write() {
        let edge = EdgeServer::start(
            EdgeConfig::default()
                .with_workers(0)
                .with_queue_depth(2)
                .with_per_tenant_inflight(1),
        )
        .unwrap();
        let sh = &edge.shared;
        let out = Arc::new(Mutex::new(CountingWriter::default()));
        let conn: Conn = out.clone();
        let req = requests()[1];
        let run =
            |id, tenant, deadline_ms| run_request(id, tenant, deadline_ms, req).0[4..].to_vec();
        sh.handle_frame(&conn, &run(1, 1, 0)); // admitted
        sh.handle_frame(&conn, &run(2, 1, 0)); // tenant 1 over quota
        sh.handle_frame(&conn, &run(3, 2, 1)); // admitted, 1 ms budget
        sh.handle_frame(&conn, &run(4, 3, 0)); // queue full
        sh.handle_frame(&conn, &[0xEE]); // unknown opcode
        sh.handle_frame(&conn, &scrape_request(OP_HEALTH).0[4..]);
        let verdict = sh.admit(&conn, 5, 4, Deadline::within_ms(0), req);
        sh.refuse(&conn, 5, verdict);
        // Let run 3's budget die in the queue, then drain it the way a
        // worker would: run 1 executes, run 3 is shed.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sh.queue.close();
        sh.work();
        sh.handle_frame(&conn, &run(6, 5, 0)); // queue closed
        let frames = one_frame_per_write(&out.lock().unwrap());
        let got: Vec<_> = frames
            .iter()
            .map(|f| {
                let r = decode_response(f).expect("well-formed response");
                (r.id, r.status, r.outcome.is_some(), r.text.is_some())
            })
            .collect();
        assert_eq!(
            got,
            [
                (2, EdgeStatus::ShedQuota, false, false),
                (4, EdgeStatus::ShedQueueFull, false, false),
                (0, EdgeStatus::BadRequest, false, false),
                (0, EdgeStatus::Ok, false, true),
                (5, EdgeStatus::ShedDeadline, false, false),
                (1, EdgeStatus::Ok, true, false),
                (3, EdgeStatus::ShedDeadlineQueued, false, false),
                (6, EdgeStatus::ShuttingDown, false, false),
            ]
        );
        // Both client request kinds.
        let mut client = CountingWriter::default();
        run_request(7, 1, 0, req).send(&mut client).unwrap();
        scrape_request(OP_METRICS_PROM).send(&mut client).unwrap();
        let frames = one_frame_per_write(&client);
        assert_eq!(frames.len(), 2);
        assert_eq!((frames[0][0], frames[0].len()), (OP_RUN, 36));
        assert_eq!((frames[1][0], frames[1].len()), (OP_METRICS_PROM, 9));
        edge.shutdown();
    }

    #[test]
    fn status_codes_round_trip() {
        for status in [
            EdgeStatus::Ok,
            EdgeStatus::ShedQueueFull,
            EdgeStatus::ShedQuota,
            EdgeStatus::ShedDeadline,
            EdgeStatus::ShedDeadlineQueued,
            EdgeStatus::BadRequest,
            EdgeStatus::ShuttingDown,
        ] {
            assert_eq!(EdgeStatus::from_code(status.code()), Some(status));
            assert_eq!(status.is_shed(), status != EdgeStatus::Ok);
        }
        assert_eq!(EdgeStatus::from_code(99), None);
    }
}
