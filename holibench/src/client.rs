//! Open-loop HTTP load, timed from the client.
//!
//! A phase is a list of requests, each bound to one of a fixed set of
//! keep-alive connections ("lanes") and due at a fixed offset from the
//! phase's start, whatever the server does. Two client threads share the
//! work:
//!
//! * the **sender** sleeps until each request is due, pushes the due instant
//!   onto its lane's FIFO, and hands the whole request to the socket in one
//!   `write` (`TCP_NODELAY` is set, so no request waits on Nagle's algorithm
//!   for an ACK);
//! * the **receiver** blocks on socket readiness (the serve crate's
//!   [`PollSet`]) and frames responses as bytes arrive. Responses on one
//!   HTTP/1.1 connection come back in request order, so each complete
//!   response pops its lane's FIFO: its latency runs from the scheduled
//!   instant to the read that delivered its last byte.
//!
//! Timing from the scheduled instant, not from the actual send, is what keeps
//! the numbers free of coordinated omission: a server stall delays every
//! request due during it, and each of those delays is counted.

use crate::usage::thread_cpu;
use holistix_serve::poller::{Interest, PollSet};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One complete HTTP response: status and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Incremental HTTP/1.1 response framer: status line plus `Content-Length`,
/// resumable at any byte boundary.
#[derive(Debug, Default)]
pub struct ResponseFramer {
    buffer: Vec<u8>,
    /// `(status, body length)` of a response whose head is parsed but whose
    /// body is still arriving.
    head: Option<(u16, usize)>,
}

impl ResponseFramer {
    /// Feed the next fragment; append every response it completes to `out`.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<Response>) {
        self.buffer.extend_from_slice(bytes);
        let mut start = 0;
        loop {
            if self.head.is_none() {
                let Some(end) = find_head_end(&self.buffer[start..]) else {
                    break;
                };
                let head = String::from_utf8_lossy(&self.buffer[start..start + end]);
                self.head = Some(parse_head(&head));
                start += end + 4;
            }
            let Some((status, length)) = self.head else {
                break;
            };
            if self.buffer.len() - start < length {
                break;
            }
            out.push(Response {
                status,
                body: self.buffer[start..start + length].to_vec(),
            });
            start += length;
            self.head = None;
        }
        self.buffer.drain(..start);
    }
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &str) -> (u16, usize) {
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let length = head
        .lines()
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .unwrap_or(0);
    (status, length)
}

/// A request on the wire, waiting for its response.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    index: usize,
    due: Instant,
}

/// What the client saw for one answered request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Position in the phase's request list.
    pub index: usize,
    /// Scheduled send instant.
    pub due: Instant,
    /// When the read that completed the response returned.
    pub done: Instant,
    pub status: u16,
    /// The body, when the phase keeps bodies (the correctness gate).
    pub body: Option<Vec<u8>>,
}

impl Outcome {
    /// Client-side latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Receive side of one lane: the response framer plus the FIFO of scheduled
/// instants that responses are matched against.
#[derive(Debug, Default)]
pub struct LaneTimer {
    framer: ResponseFramer,
    fifo: VecDeque<InFlight>,
}

impl LaneTimer {
    /// Record a request as sent (before its bytes reach the socket, so its
    /// response can never arrive first).
    fn push(&mut self, index: usize, due: Instant) {
        self.fifo.push_back(InFlight { index, due });
    }

    /// Frame `bytes` that arrived at `now`; each completed response takes
    /// the oldest outstanding request.
    pub fn on_bytes(
        &mut self,
        bytes: &[u8],
        now: Instant,
        keep_bodies: bool,
        out: &mut Vec<Outcome>,
    ) {
        let mut responses = Vec::new();
        self.framer.feed(bytes, &mut responses);
        for response in responses {
            // A response with no request outstanding is a protocol error on
            // the server's side; it is dropped, and the request it should
            // have answered shows up as unanswered.
            let Some(sent) = self.fifo.pop_front() else {
                continue;
            };
            out.push(Outcome {
                index: sent.index,
                due: sent.due,
                done: now,
                status: response.status,
                body: keep_bodies.then_some(response.body),
            });
        }
    }

    fn outstanding(&self) -> usize {
        self.fifo.len()
    }
}

/// Open a lane: a keep-alive connection with `TCP_NODELAY` set, nonblocking
/// once connected.
pub fn connect_lane(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Hand one request to the socket. With nothing queued, the request goes out
/// in exactly one `write`; whatever the socket does not take (a full send
/// buffer) waits in `pending` and is flushed ahead of the next request.
/// Returns `Err` when the connection is unusable.
pub fn send_request<W: Write>(
    writer: &mut W,
    pending: &mut Vec<u8>,
    request: &[u8],
) -> io::Result<()> {
    if pending.is_empty() {
        match writer.write(request) {
            Ok(n) if n == request.len() => return Ok(()),
            Ok(n) => pending.extend_from_slice(&request[n..]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => pending.extend_from_slice(request),
            Err(e) => return Err(e),
        }
        Ok(())
    } else {
        pending.extend_from_slice(request);
        flush_pending(writer, pending)
    }
}

/// Write as much of `pending` as the socket takes right now.
pub fn flush_pending<W: Write>(writer: &mut W, pending: &mut Vec<u8>) -> io::Result<()> {
    while !pending.is_empty() {
        match writer.write(pending) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                pending.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One request of a phase: the lane it travels on, when it is due (offset
/// from the phase's start) and its bytes.
pub struct Planned<'a> {
    pub lane: usize,
    pub due: Duration,
    pub bytes: &'a [u8],
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Requests the schedule called for.
    pub attempted: usize,
    /// Answered requests, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Requests with no answer by the drain deadline (or on a broken lane).
    pub unanswered: usize,
    /// How late the sender placed each request, in milliseconds, in
    /// schedule order.
    pub send_lag_ms: Vec<f64>,
    /// CPU time of the two client threads.
    pub client_cpu: Duration,
}

impl PhaseResult {
    /// Requests that failed: unanswered or answered with a non-2xx status.
    pub fn failed(&self) -> usize {
        self.unanswered
            + self
                .outcomes
                .iter()
                .filter(|o| !(200..300).contains(&o.status))
                .count()
    }

    /// Latencies (ms) of the successful requests, in schedule order.
    pub fn ok_latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| (200..300).contains(&o.status))
            .map(Outcome::latency_ms)
            .collect()
    }

    /// Latency per scheduled request, in schedule order, with every failed
    /// request counted as infinitely late.
    pub fn latencies_with_failures_ms(&self) -> Vec<f64> {
        let mut latencies = vec![f64::INFINITY; self.attempted];
        for outcome in &self.outcomes {
            if (200..300).contains(&outcome.status) {
                latencies[outcome.index] = outcome.latency_ms();
            }
        }
        latencies
    }

    pub fn max_send_lag_ms(&self) -> f64 {
        self.send_lag_ms.iter().copied().fold(0.0, f64::max)
    }
}

/// Run one open-loop phase: `n_lanes` fresh connections, `plan` sent on its
/// schedule, responses awaited until `drain` after the last scheduled send.
/// Connections close when the phase ends, so nothing a phase leaves
/// unanswered can be mistaken for an answer in the next one.
pub fn run_phase(
    addr: SocketAddr,
    n_lanes: usize,
    plan: &[Planned<'_>],
    drain: Duration,
    keep_bodies: bool,
) -> io::Result<PhaseResult> {
    let streams: Vec<TcpStream> = (0..n_lanes)
        .map(|_| connect_lane(addr))
        .collect::<io::Result<_>>()?;
    let timers: Vec<Mutex<LaneTimer>> = (0..n_lanes)
        .map(|_| Mutex::new(LaneTimer::default()))
        .collect();
    let sent = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let last_due = start + plan.last().map_or(Duration::ZERO, |p| p.due);
    let deadline = last_due + drain;

    let (send_lag_ms, sender_cpu, (outcomes, receiver_cpu)) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let cpu = thread_cpu();
            let lags = send_loop(&streams, &timers, plan, start, deadline, &sent);
            sender_done.store(true, Ordering::SeqCst);
            (lags, thread_cpu().saturating_sub(cpu))
        });
        let receiver = scope.spawn(|| {
            let cpu = thread_cpu();
            let outcomes = receive_loop(
                &streams,
                &timers,
                deadline,
                keep_bodies,
                &sent,
                &sender_done,
            );
            (outcomes, thread_cpu().saturating_sub(cpu))
        });
        let (lags, sender_cpu) = sender.join().expect("sender thread panicked");
        let received = receiver.join().expect("receiver thread panicked");
        (lags, sender_cpu, received)
    });
    let mut outcomes = outcomes;
    outcomes.sort_by_key(|o| o.index);
    let unanswered: usize = timers
        .iter()
        .map(|t| t.lock().expect("lane timer poisoned").outstanding())
        .sum::<usize>()
        + (plan.len() - sent.load(Ordering::SeqCst));
    Ok(PhaseResult {
        attempted: plan.len(),
        outcomes,
        unanswered,
        send_lag_ms,
        client_cpu: sender_cpu + receiver_cpu,
    })
}

/// The sender: sleep until each request is due, then send it. Returns each
/// request's lateness in milliseconds.
fn send_loop(
    streams: &[TcpStream],
    timers: &[Mutex<LaneTimer>],
    plan: &[Planned<'_>],
    start: Instant,
    deadline: Instant,
    sent: &AtomicUsize,
) -> Vec<f64> {
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut broken = vec![false; streams.len()];
    let mut lags = Vec::with_capacity(plan.len());
    for (index, request) in plan.iter().enumerate() {
        let due = start + request.due;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let lane = request.lane;
        if broken[lane] {
            continue;
        }
        timers[lane]
            .lock()
            .expect("lane timer poisoned")
            .push(index, due);
        sent.fetch_add(1, Ordering::SeqCst);
        let mut stream = &streams[lane];
        if send_request(&mut stream, &mut pending[lane], request.bytes).is_err() {
            broken[lane] = true;
        }
    }
    // Whatever a full socket buffer held back goes out before the deadline.
    while pending.iter().any(|p| !p.is_empty()) && Instant::now() < deadline {
        for (lane, bytes) in pending.iter_mut().enumerate() {
            let mut stream = &streams[lane];
            if broken[lane] || flush_pending(&mut stream, bytes).is_err() {
                bytes.clear();
            }
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    lags
}

/// The receiver: wait on readiness, frame responses, match them to their
/// scheduled instants. Ends when every sent request is answered, or at the
/// deadline.
fn receive_loop(
    streams: &[TcpStream],
    timers: &[Mutex<LaneTimer>],
    deadline: Instant,
    keep_bodies: bool,
    sent: &AtomicUsize,
    sender_done: &AtomicBool,
) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    let mut set = PollSet::new();
    let mut open = vec![true; streams.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if sender_done.load(Ordering::SeqCst) && outcomes.len() >= sent.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        if now >= deadline || !open.iter().any(|&o| o) {
            break;
        }
        set.clear();
        for (lane, stream) in streams.iter().enumerate() {
            if open[lane] {
                set.push(stream.as_raw_fd(), Interest::READ, lane);
            }
        }
        // Bounded so the loop notices the sender finishing and the deadline.
        let timeout = (deadline - now).min(Duration::from_millis(5));
        if set.wait(timeout).is_err() {
            continue;
        }
        let ready: Vec<usize> = set.ready().map(|event| event.token).collect();
        for lane in ready {
            loop {
                match (&streams[lane]).read(&mut chunk) {
                    Ok(0) => {
                        open[lane] = false;
                        break;
                    }
                    Ok(n) => {
                        let now = Instant::now();
                        // Locked per read, so the sender never waits longer
                        // than one framing pass to record a send.
                        timers[lane].lock().expect("lane timer poisoned").on_bytes(
                            &chunk[..n],
                            now,
                            keep_bodies,
                            &mut outcomes,
                        );
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        open[lane] = false;
                        break;
                    }
                }
            }
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn response(status: u16, body: &str) -> String {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\nContent-Length: {}\r\nX-Trace-Id: 00ff\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn fragmented_pipelined_responses_map_to_their_instants() {
        let parts = [
            response(200, "{\"a\":1}"),
            response(429, "{}"),
            response(200, "{\"c\":333}"),
        ];
        let stream = parts.concat();
        let bytes = stream.as_bytes();
        let t0 = Instant::now();
        let due: Vec<Instant> = (0..3).map(|i| t0 + Duration::from_millis(i)).collect();
        for chunk_size in 1..=bytes.len() {
            let mut timer = LaneTimer::default();
            for (i, &d) in due.iter().enumerate() {
                timer.push(10 + i, d);
            }
            let mut outcomes = Vec::new();
            // Fragment k arrives k ms after t0.
            for (k, fragment) in bytes.chunks(chunk_size).enumerate() {
                let now = t0 + Duration::from_millis(k as u64);
                timer.on_bytes(fragment, now, true, &mut outcomes);
            }
            assert_eq!(outcomes.len(), 3, "chunk size {chunk_size}");
            let mut end = 0;
            for (i, outcome) in outcomes.iter().enumerate() {
                assert_eq!(outcome.index, 10 + i);
                assert_eq!(outcome.due, due[i]);
                // A response completes in the fragment holding its last byte.
                end += parts[i].len();
                let fragment = (end - 1) / chunk_size;
                assert_eq!(outcome.done, t0 + Duration::from_millis(fragment as u64));
            }
            assert_eq!(outcomes[1].status, 429);
            assert_eq!(outcomes[2].body.as_deref(), Some(&b"{\"c\":333}"[..]));
            assert_eq!(timer.outstanding(), 0);
        }
    }

    /// A server that answers each request on a connection, in order, after a
    /// fixed delay.
    fn fixed_delay_server(delay: Duration, connections: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().expect("accept");
                std::thread::spawn(move || {
                    let mut buffer = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        while let Some(end) = find_head_end(&buffer) {
                            let head = String::from_utf8_lossy(&buffer[..end]).into_owned();
                            let (_, length) = parse_head(&format!("X 0 X\r\n{}", head));
                            if buffer.len() < end + 4 + length {
                                break;
                            }
                            buffer.drain(..end + 4 + length);
                            std::thread::sleep(delay);
                            if stream.write_all(response(200, "{}").as_bytes()).is_err() {
                                return;
                            }
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn fixed_delay_server_yields_latencies_at_least_its_delay() {
        let delay = Duration::from_millis(4);
        let addr = fixed_delay_server(delay, 2);
        let request = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}".to_vec();
        let plan: Vec<Planned> = (0..40)
            .map(|i| Planned {
                lane: i % 2,
                due: Duration::from_millis(5 * i as u64),
                bytes: &request,
            })
            .collect();
        let result = run_phase(addr, 2, &plan, Duration::from_secs(5), false).expect("phase runs");
        assert_eq!(result.attempted, 40);
        assert_eq!(result.unanswered, 0);
        assert_eq!(result.failed(), 0);
        let latencies = result.ok_latencies_ms();
        assert_eq!(latencies.len(), 40);
        for latency in latencies {
            assert!(
                latency >= 4.0,
                "latency {latency} ms under the server's delay"
            );
        }
    }

    /// Records the length of every `write` call.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.writes.push(bytes.len());
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_request_leaves_in_one_write_with_nodelay() {
        let mut writer = CountingWriter::default();
        let mut pending = Vec::new();
        let requests = [
            &b"POST /a HTTP/1.1\r\n\r\n"[..],
            b"GET /b HTTP/1.1\r\nX: y\r\n\r\n",
        ];
        for request in requests {
            send_request(&mut writer, &mut pending, request).expect("write");
        }
        assert_eq!(writer.writes, vec![requests[0].len(), requests[1].len()]);
        assert!(pending.is_empty());

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = connect_lane(listener.local_addr().expect("addr")).expect("connect");
        assert!(stream.nodelay().expect("nodelay readable"));
    }
}
