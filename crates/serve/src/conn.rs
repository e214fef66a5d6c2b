//! Per-connection state machines for the nonblocking multiplexer.
//!
//! A `Connection` owns one nonblocking socket and everything needed to
//! resume it from any interruption: the incremental
//! [`RequestParser`] (request framing picks up
//! wherever the last read fragment stopped), an output buffer with
//! partial-write resumption (a response interrupted by a full socket buffer
//! continues from the exact byte on the next writable event), keep-alive
//! accounting (request cap, reuse metrics), and the pipelining ledger.
//!
//! ## Pipelining
//!
//! Requests are assigned monotonically increasing sequence numbers as they
//! parse; up to `MAX_PIPELINED` may be in flight at once, so request `N+1`
//! parses (and is routed) while `N`'s batch is still being scored. Responses
//! complete in *any* order — each whenever its batch queue (or the admin
//! thread) finishes it — but serialize strictly in sequence order through the
//! `pending` reorder map, so the client always sees answers in
//! the order it asked. At the cap the connection simply stops reading
//! (POLLIN interest is withdrawn), pushing backpressure into the kernel's
//! receive buffer instead of server memory.
//!
//! ## Idle timeout
//!
//! Each connection stamps `last_activity` whenever a byte moves, and
//! `Connection::idle_deadline` turns that stamp into the moment the
//! connection may be evicted. Every poller round already walks every
//! connection to rebuild its poll set, so the poller checks the deadlines on
//! that walk and sleeps no longer than the earliest one. Activity costs only
//! the timestamp, and no timer state can go stale.
//!
//! lint: no_panic — connection state machines run on poller threads: a panic
//! here kills the thread and orphans its whole connection set, so panicking
//! constructs are forbidden (enforced by holistix-lint).

use crate::admission::{Admission, TokenBucket};
use crate::http::{write_response, Request, RequestParser, Response};
use crate::metrics::{Endpoint, ServeMetrics, ShedReason};
use crate::obs::{RequestTrace, TraceStamp};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Most requests one connection may have in flight (parsed and dispatched,
/// response not yet serialized). Bounds per-connection server memory under a
/// client that streams requests faster than batches score.
pub(crate) const MAX_PIPELINED: usize = 32;

/// Read chunk size per `read` call on a readable socket.
const READ_CHUNK: usize = 16 << 10;

/// One keep-alive connection owned by a poller thread. See the module docs.
pub(crate) struct Connection {
    stream: TcpStream,
    /// Reused slots get a fresh generation, so completions addressed to a
    /// dead connection are recognisably stale.
    pub(crate) generation: u64,
    parser: RequestParser,
    /// Serialized-but-unsent response bytes; `out_pos` is the partial-write
    /// resume point.
    out: Vec<u8>,
    out_pos: usize,
    /// Completed responses (with their traces) waiting for their turn in
    /// sequence order.
    pending: BTreeMap<u64, (Response, RequestTrace)>,
    /// Cumulative bytes this connection has written to the socket.
    written_total: u64,
    /// Serialized responses not yet fully on the wire: `(due, trace)` where
    /// `due` is the cumulative write offset of the response's last byte. When
    /// `written_total` reaches `due`, the response's final byte has hit the
    /// socket and its trace finalizes (the `write` stage ends there, so a
    /// slow-draining client shows up in the tail). Front-to-back in sequence
    /// order because serialization is.
    inflight_writes: VecDeque<(u64, RequestTrace)>,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number to serialize (all below it are on the wire or in
    /// `out`).
    next_write_seq: u64,
    /// The final sequence: its response announces `Connection: close` and the
    /// connection closes once it is flushed. Set by `Connection: close`, the
    /// request cap, or a parse error.
    last_seq: Option<u64>,
    /// Peer sent EOF: no more requests will arrive.
    read_closed: bool,
    /// A close-announcing response has been serialized: flush `out`, then
    /// close. No further parsing or dispatch.
    closing: bool,
    /// This client's token bucket — admission keyed on connection identity:
    /// minted at accept, dies with the connection. `None` when per-client
    /// rate limiting is off.
    bucket: Option<TokenBucket>,
    /// Last moment bytes moved on this socket in either direction.
    last_activity: Instant,
}

impl Connection {
    /// Adopt an accepted stream: switch it nonblocking, turn Nagle's
    /// algorithm off, and start the session.
    pub(crate) fn new(
        stream: TcpStream,
        generation: u64,
        now: Instant,
        bucket: Option<TokenBucket>,
    ) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        // A response is written as soon as it is ready. With Nagle on, one
        // written while the previous is still unacknowledged waits for the
        // client's delayed ACK, tens of milliseconds.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            generation,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: BTreeMap::new(),
            written_total: 0,
            inflight_writes: VecDeque::new(),
            next_seq: 0,
            next_write_seq: 0,
            last_seq: None,
            read_closed: false,
            closing: false,
            bucket,
            last_activity: now,
        })
    }

    /// The raw fd for the poll set.
    pub(crate) fn fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// Requests dispatched whose responses have not yet been serialized.
    fn outstanding(&self) -> usize {
        (self.next_seq - self.next_write_seq) as usize
    }

    /// Whether the poll set should watch this socket for readability.
    pub(crate) fn wants_read(&self) -> bool {
        !self.read_closed
            && !self.closing
            && self.last_seq.is_none()
            && self.outstanding() < MAX_PIPELINED
    }

    /// Whether unsent response bytes are waiting on socket writability.
    pub(crate) fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// When the idle timeout may evict this connection: `idle_timeout` after
    /// the last byte moved. Whatever the parser holds, a client that sends
    /// part of a request and goes silent holds its slot like an idle one, and
    /// `wants_write` past the deadline means the client stopped draining its
    /// responses. `None` for a connection merely waiting on a model batch (a
    /// request in flight, no output stuck), and for a deadline past what
    /// `Instant` can hold: such a timeout never evicts.
    pub(crate) fn idle_deadline(&self, idle_timeout: Duration) -> Option<Instant> {
        if self.outstanding() > 0 && !self.wants_write() {
            return None;
        }
        self.last_activity.checked_add(idle_timeout)
    }

    /// The session is over and fully flushed: the poller should drop the
    /// connection.
    pub(crate) fn should_close(&self) -> bool {
        if self.wants_write() {
            return false;
        }
        self.closing || (self.read_closed && self.outstanding() == 0)
    }

    /// Drain the readable socket into the parser. Returns `Err` only on a
    /// broken socket (the poller drops the connection); EOF is recorded, not
    /// an error.
    pub(crate) fn on_readable(&mut self, now: Instant) -> io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.last_activity = now;
                    self.parser.feed(&chunk[..n]);
                    // Don't read unboundedly from one firehose connection;
                    // fairness over the poller's other connections matters
                    // more than squeezing this socket dry. A short read means
                    // the buffer is drained anyway.
                    if n < READ_CHUNK {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Assign the next sequence number, recording keep-alive reuse for every
    /// request after a connection's first.
    fn assign_seq(&mut self, metrics: &ServeMetrics) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if seq > 0 {
            metrics.record_keepalive_reuse();
        }
        seq
    }

    /// Pull every parseable request out of the buffer, up to the pipelining
    /// cap, assigning sequence numbers and applying keep-alive policy. Each
    /// parsed request is born with a [`RequestTrace`] — the trace id is
    /// minted here, at parse completion, and every later stage stamps the
    /// same record. Returns the requests for the poller to route; a
    /// malformed request is answered locally (400, close) and ends parsing —
    /// framing is lost.
    ///
    /// A request that finds this client's token bucket empty is also answered
    /// locally — `429` + `Retry-After` before routing — but the
    /// connection stays open: framing is intact, and the whole point of
    /// `Retry-After` is that the same client retries on the same connection
    /// once its bucket refills.
    pub(crate) fn take_requests(
        &mut self,
        now: Instant,
        max_requests: usize,
        metrics: &ServeMetrics,
        admission: &Admission,
    ) -> Vec<(u64, Request, RequestTrace)> {
        let mut dispatches = Vec::new();
        while !self.closing && self.last_seq.is_none() && self.outstanding() < MAX_PIPELINED {
            match self.parser.poll_request() {
                Ok(Some(request)) => {
                    let seq = self.assign_seq(metrics);
                    if request.close || seq + 1 >= max_requests.max(1) as u64 {
                        self.last_seq = Some(seq);
                    }
                    if let Some(bucket) = self.bucket.as_mut() {
                        if !bucket.try_take(now) {
                            let endpoint = Endpoint::resolve(&request.method, &request.path);
                            metrics.record_request(endpoint);
                            metrics.record_error();
                            metrics.record_shed(endpoint, ShedReason::RateLimited);
                            let mut trace = metrics.obs().begin_trace(now);
                            trace.endpoint = endpoint.name();
                            trace.stamp_at(TraceStamp::ResponseQueued, Instant::now());
                            self.complete(
                                seq,
                                Response::too_many(
                                    "client rate limit exceeded",
                                    admission.retry_after_secs(),
                                ),
                                trace,
                            );
                            continue;
                        }
                    }
                    let trace = metrics.obs().begin_trace(now);
                    if seq != self.next_write_seq {
                        // An earlier request is still in flight: this one is
                        // being parsed ahead of its turn.
                        metrics.connections().record_pipelined();
                    }
                    dispatches.push((seq, request, trace));
                }
                Ok(None) => break,
                Err(e) => {
                    // A malformed request desynchronises the framing; answer
                    // 400 and close rather than guess where the next request
                    // starts. Nothing to route — the connection owns this.
                    let seq = self.assign_seq(metrics);
                    self.last_seq = Some(seq);
                    metrics.record_request(Endpoint::Other);
                    metrics.record_error();
                    let mut trace = metrics.obs().begin_trace(now);
                    trace.stamp_at(TraceStamp::ResponseQueued, Instant::now());
                    self.complete(
                        seq,
                        Response::error(400, &format!("malformed request: {e}")),
                        trace,
                    );
                    break;
                }
            }
        }
        dispatches
    }

    /// Accept a completed response for `seq`, with the trace that followed
    /// the request through the stack. Responses arrive in any order;
    /// serialization happens in sequence order via
    /// [`serialize_ready`](Self::serialize_ready).
    pub(crate) fn complete(&mut self, seq: u64, response: Response, trace: RequestTrace) {
        if self.closing || seq < self.next_write_seq {
            return; // response for a sequence this connection already gave up on
        }
        self.pending.insert(seq, (response, trace));
    }

    /// Move every response whose turn has come from the reorder map into the
    /// output buffer, in sequence order, stamping the response's trace id
    /// into an `X-Trace-Id` header. When the final (close-announcing)
    /// response serializes, the connection stops accepting further work.
    pub(crate) fn serialize_ready(&mut self, running: bool) {
        while let Some((response, trace)) = self.pending.remove(&self.next_write_seq) {
            let seq = self.next_write_seq;
            let keep = running && self.last_seq != Some(seq);
            // Writing into the Vec cannot fail.
            let _ = write_response(&mut self.out, &response, keep, Some(&trace.id_hex()));
            // The response's last byte will be the connection's
            // `due`-th cumulative byte; its trace finalizes when
            // `written_total` gets there.
            let due = self.written_total + (self.out.len() - self.out_pos) as u64;
            self.inflight_writes.push_back((due, trace));
            self.next_write_seq = seq + 1;
            if !keep {
                self.closing = true;
                // Abandoned pipelined responses never reach the wire; their
                // traces drop unfinalized.
                self.pending.clear();
                break;
            }
        }
    }

    /// Finalize every trace whose response is now fully on the wire: stamp
    /// the last-byte-written boundary and fold the trace into the latency
    /// and stage histograms.
    fn finalize_written(&mut self, now: Instant, metrics: &ServeMetrics) {
        while self
            .inflight_writes
            .front()
            .is_some_and(|(due, _)| *due <= self.written_total)
        {
            let Some((_, mut trace)) = self.inflight_writes.pop_front() else {
                break;
            };
            trace.stamp_at(TraceStamp::WriteDone, now);
            metrics.finalize_trace(&trace);
        }
    }

    /// Write buffered response bytes until the socket would block or the
    /// buffer drains, resuming mid-response across calls, finalizing the
    /// trace of every response whose last byte reaches the socket. Returns
    /// `Err` on a broken socket.
    pub(crate) fn on_writable(&mut self, now: Instant, metrics: &ServeMetrics) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.written_total += n as u64;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.finalize_written(now, metrics);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        self.finalize_written(now, metrics);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_connections_turn_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conn = Connection::new(stream, 0, Instant::now(), None).unwrap();
        assert!(conn.stream.nodelay().unwrap());
    }
}
