//! Readiness polling over `std`-only primitives.
//!
//! The connection multiplexer needs one thing the standard library does not
//! wrap: "block until any of these sockets is readable or writable". The
//! build is offline (no mio/tokio), so this module hand-rolls it the same way
//! `http.rs` hand-rolls HTTP/1.1 — a thin safe wrapper over the `poll(2)`
//! symbol that `std` already links on every Unix target. No event-loop
//! framework, no epoll registration lifecycle: [`PollSet`] is rebuilt from
//! the live connection table before each wait, which keeps the unsafe surface
//! to a single FFI call and makes the poller trivially correct under
//! connection churn (a closed fd is simply never submitted again).
//!
//! [`Waker`] is the cross-thread wakeup: a nonblocking `UnixStream` pair
//! whose read end sits in the poll set. A batch queue or the admin thread
//! finishes a request, pushes the completion, and [`wake`](Waker::wake)s the
//! owning poller; writes to an already-signalled waker hit `WouldBlock` and
//! are dropped — the poller is waking anyway, which makes `wake` O(1),
//! lock-free and infallible.
//!
//! lint: no_panic — this file is event-loop core: a panic here kills a
//! poller thread and silently orphans every connection it owns, so panicking
//! constructs are forbidden (enforced by holistix-lint).

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// `struct pollfd` from `poll(2)`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    /// `poll(2)` — provided by libc, which `std` already links on Unix.
    /// `nfds_t` is `c_ulong` on Linux.
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// What a poll-set entry wants to be woken for.
///
/// Withdrawing `read` interest is the server's only backpressure primitive:
/// unread bytes stay in the kernel socket buffer and eventually stall the
/// peer's TCP send window. Per-connection pipelining caps use it, and the
/// global intake valve (`admission`) applies the same trick set-wide — when
/// the aggregate queue depth trips the limit, the poller rebuilds its set
/// with `read: false` everywhere (listener included) until the backlog
/// drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    fn events(self) -> i16 {
        let mut events = 0;
        if self.read {
            events |= POLLIN;
        }
        if self.write {
            events |= POLLOUT;
        }
        events
    }
}

/// One ready fd, by the caller's token.
#[derive(Debug, Clone, Copy)]
pub struct ReadyEvent {
    /// The token the fd was submitted with.
    pub token: usize,
    /// The fd has bytes to read (or a hangup/error to observe via `read`).
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
}

/// A rebuilt-per-wait set of fds to poll. `push` interests, `wait`, iterate
/// [`ready`](PollSet::ready), `clear`, repeat.
#[derive(Debug, Default)]
pub struct PollSet {
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all entries (keeps allocations for the next round).
    pub fn clear(&mut self) {
        self.fds.clear();
        self.tokens.clear();
    }

    /// Submit `fd` with the given interest, tagged with `token`.
    pub fn push(&mut self, fd: RawFd, interest: Interest, token: usize) {
        self.fds.push(PollFd {
            fd,
            events: interest.events(),
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Block until at least one fd is ready or `timeout` elapses. Returns the
    /// number of ready fds (0 on timeout). `EINTR` is treated as a timeout —
    /// the caller's loop re-polls.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<usize> {
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is a live, exclusively borrowed Vec of `#[repr(C)]`
        // structs matching `struct pollfd`, so the pointer is valid for
        // reads and writes of `len` entries for the whole call; `poll(2)`
        // only mutates the `revents` field of those entries and accesses no
        // memory beyond them.
        let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        Err(err)
    }

    /// The entries the last [`wait`](PollSet::wait) reported ready. Hangups
    /// and errors surface as `readable`, so the owner observes them through
    /// an ordinary `read` returning EOF or an error.
    pub fn ready(&self) -> impl Iterator<Item = ReadyEvent> + '_ {
        self.fds
            .iter()
            .zip(&self.tokens)
            .filter(|(fd, _)| fd.revents != 0)
            .map(|(fd, &token)| ReadyEvent {
                token,
                readable: fd.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0,
                writable: fd.revents & (POLLOUT | POLLERR | POLLHUP) != 0,
            })
    }
}

/// The write half of a poller's wakeup channel. Cloneable and cheap to wake;
/// see the module docs.
#[derive(Debug, Clone)]
pub struct Waker {
    writer: Arc<UnixStream>,
}

impl Waker {
    /// Wake the poller that holds the paired [`WakeReader`]. Never blocks:
    /// once the pipe is full the poller has an unconsumed wakeup pending, so
    /// dropping the write is correct.
    pub fn wake(&self) {
        let _ = (&*self.writer).write(&[1]);
    }
}

/// The read half of a poller's wakeup channel: lives in that poller's
/// [`PollSet`].
#[derive(Debug)]
pub struct WakeReader {
    reader: UnixStream,
}

impl WakeReader {
    /// The fd to submit to the poll set (with [`Interest::READ`]).
    pub fn fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// Consume all pending wakeups so the next `wait` blocks again.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.reader).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// A connected waker pair: the [`Waker`] goes to the threads that answer off
/// the poller (and the server handle, for shutdown), the [`WakeReader`] into
/// the poller's set.
pub fn waker_pair() -> io::Result<(Waker, WakeReader)> {
    let (writer, reader) = UnixStream::pair()?;
    writer.set_nonblocking(true)?;
    reader.set_nonblocking(true)?;
    Ok((
        Waker {
            writer: Arc::new(writer),
        },
        WakeReader { reader },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wait_times_out_when_nothing_is_ready() {
        let (_waker, reader) = waker_pair().unwrap();
        let mut set = PollSet::new();
        set.push(reader.fd(), Interest::READ, 7);
        let started = Instant::now();
        let n = set.wait(Duration::from_millis(30)).unwrap();
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_millis(25));
        assert_eq!(set.ready().count(), 0);
    }

    #[test]
    fn waker_makes_the_reader_ready() {
        let (waker, reader) = waker_pair().unwrap();
        let mut set = PollSet::new();
        set.push(reader.fd(), Interest::READ, 42);
        waker.wake();
        let n = set.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(n, 1);
        let event = set.ready().next().unwrap();
        assert_eq!(event.token, 42);
        assert!(event.readable);
        // Drained, the set blocks again.
        reader.drain();
        set.clear();
        set.push(reader.fd(), Interest::READ, 42);
        assert_eq!(set.wait(Duration::from_millis(10)).unwrap(), 0);
    }

    #[test]
    fn repeated_wakes_never_block_and_coalesce() {
        let (waker, reader) = waker_pair().unwrap();
        // Far more wakes than the pipe buffers: the extras must drop, not block.
        for _ in 0..100_000 {
            waker.wake();
        }
        let mut set = PollSet::new();
        set.push(reader.fd(), Interest::READ, 0);
        assert_eq!(set.wait(Duration::from_secs(1)).unwrap(), 1);
        reader.drain();
        set.clear();
        set.push(reader.fd(), Interest::READ, 0);
        assert_eq!(set.wait(Duration::from_millis(10)).unwrap(), 0);
    }

    #[test]
    fn write_interest_reports_writable_sockets() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut set = PollSet::new();
        set.push(
            a.as_raw_fd(),
            Interest {
                read: false,
                write: true,
            },
            1,
        );
        assert_eq!(set.wait(Duration::from_secs(1)).unwrap(), 1);
        assert!(set.ready().next().unwrap().writable);
    }
}
