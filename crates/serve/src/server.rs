//! Socket front end: line-delimited request/response over a unix-domain
//! socket or TCP.
//!
//! Each accepted connection gets its own thread reading lines and
//! passing them to [`Daemon::handle`]; heavy per-request work (package
//! decode + model extraction) therefore runs concurrently across
//! clients, while the churn itself funnels through the daemon's single
//! coalescing worker. The accept loop ends after a `shutdown` request
//! has been served and drains; in-flight connections finish their
//! current request. Threads of closed connections are reaped as new
//! connections arrive, so the server holds one thread per open
//! connection, not one per connection it ever accepted.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::daemon::{Daemon, ServeError};
use crate::protocol::Request;

/// The longest request line a connection may send, newline excluded:
/// 16 MiB. An `install` carries its package hex-encoded, two characters
/// per byte, and the largest package the corpus produces (tables I–II,
/// the case studies, and 4,000-app markets) encodes to about 80 KB, a
/// line of about 160 KB. A longer line is answered with an error and
/// its connection closed, so a client that never sends a newline cannot
/// grow the server's buffer without bound.
pub(crate) const MAX_LINE_BYTES: usize = 16 << 20;

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A unix-domain socket at the given path (removed on bind and on
    /// clean exit).
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7878`.
    Tcp(String),
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// Runs the accept loop until a client sends `shutdown`. Returns once
/// the daemon has drained and all state is durable.
///
/// # Errors
///
/// Fails if the endpoint cannot be bound.
pub fn serve(daemon: Daemon, endpoint: &Endpoint) -> Result<(), ServeError> {
    let listener = match endpoint {
        Endpoint::Unix(path) => {
            // A stale socket file from a previous run would make bind
            // fail; the store, not the socket, carries state.
            let _ = std::fs::remove_file(path);
            Listener::Unix(
                UnixListener::bind(path)
                    .map_err(|e| ServeError(format!("{}: {e}", path.display())))?,
            )
        }
        Endpoint::Tcp(addr) => {
            Listener::Tcp(TcpListener::bind(addr).map_err(|e| ServeError(format!("{addr}: {e}")))?)
        }
    };
    let daemon = Arc::new(daemon);
    let stopping = Arc::new(AtomicBool::new(false));
    let mut handlers = ConnectionThreads::default();
    loop {
        let stream: Box<dyn Connection> = match &listener {
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Box::new(s),
                Err(_) => break,
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Box::new(s),
                Err(_) => break,
            },
        };
        if stopping.load(Ordering::Acquire) {
            break;
        }
        let daemon = Arc::clone(&daemon);
        let stopping_for_conn = Arc::clone(&stopping);
        let endpoint_for_conn = endpoint.clone();
        handlers.spawn(move || {
            if connection_loop(stream, &daemon) {
                stopping_for_conn.store(true, Ordering::Release);
                // Unblock the accept loop with a throwaway connection.
                nudge(&endpoint_for_conn);
            }
        });
        if stopping.load(Ordering::Acquire) {
            break;
        }
    }
    handlers.join_all();
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    // `shutdown` already drained via handle(); this covers the
    // accept-error exit path.
    daemon.drain()
}

/// The handles of the connection threads that may still be running.
#[derive(Default)]
struct ConnectionThreads(Vec<JoinHandle<()>>);

impl ConnectionThreads {
    /// Starts a connection thread, first joining the threads that have
    /// finished: an unjoined thread keeps its stack until it is joined.
    fn spawn(&mut self, f: impl FnOnce() + Send + 'static) {
        for finished in self.0.extract_if(.., |h| h.is_finished()) {
            let _ = finished.join();
        }
        self.0.push(std::thread::spawn(f));
    }

    /// Waits for every remaining connection thread.
    fn join_all(self) {
        for h in self.0 {
            let _ = h.join();
        }
    }
}

/// One connection: read a line, answer a line. Returns `true` if this
/// connection served a `shutdown`.
///
/// A `subscribe` request upgrades the connection instead of answering
/// it: the loop stops reading and pushes policy-delta event lines until
/// the client hangs up or the daemon shuts down.
fn connection_loop(stream: Box<dyn Connection>, daemon: &Daemon) -> bool {
    let Ok(reader) = stream.try_clone_reader() else {
        return false;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(reader);
    loop {
        let line = match read_line(&mut reader, MAX_LINE_BYTES) {
            Ok(Line::Text(line)) => line,
            Ok(Line::TooLong) => {
                let reply = daemon.refuse(format!(
                    "request line longer than {MAX_LINE_BYTES} bytes; closing the connection"
                ));
                let _ = writer
                    .write_all(reply.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush());
                break;
            }
            Ok(Line::End) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        // The contains() pre-filter keeps the hot request path at one
        // parse (inside handle); only candidate lines parse here.
        if line.contains("subscribe")
            && matches!(Request::parse(line.trim()), Ok(Request::Subscribe))
        {
            subscription_loop(writer, daemon);
            return false;
        }
        let response = daemon.handle(&line);
        if writer.write_all(response.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
        {
            break;
        }
        if daemon.is_stopped() {
            return true;
        }
    }
    false
}

/// One read from a connection.
#[derive(Debug, PartialEq, Eq)]
enum Line {
    /// A line, with its newline if it had one.
    Text(String),
    /// More than the cap arrived without a newline.
    TooLong,
    /// The client closed the connection.
    End,
}

/// Reads one line of at most `cap` bytes (newline excluded), buffering
/// no more than `cap + 1` bytes whatever the client sends. A final line
/// without a newline still counts, as in [`BufRead::lines`].
///
/// # Errors
///
/// Fails on a read error or a line that is not UTF-8.
fn read_line(reader: &mut impl BufRead, cap: usize) -> std::io::Result<Line> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take(cap as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(Line::End);
    }
    if buf.len() > cap && buf.last() != Some(&b'\n') {
        return Ok(Line::TooLong);
    }
    String::from_utf8(buf)
        .map(Line::Text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Pushes the subscription acknowledgement and then one event line per
/// applied batch. Ends when the client's socket dies (the next write
/// fails) or the daemon disconnects the subscriber (shutdown, or the
/// client lagged past its buffer).
fn subscription_loop(mut writer: Box<dyn Connection>, daemon: &Daemon) {
    let sub = daemon.subscribe();
    let ack = daemon.subscribe_ack();
    if writer.write_all(ack.as_bytes()).is_err()
        || writer.write_all(b"\n").is_err()
        || writer.flush().is_err()
    {
        daemon.unsubscribe(sub.id);
        return;
    }
    while let Ok(event) = sub.recv() {
        if writer.write_all(event.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
        {
            break;
        }
    }
    daemon.unsubscribe(sub.id);
}

/// Connects and immediately drops, solely to wake a blocking `accept`.
fn nudge(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
        Endpoint::Tcp(addr) => {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// The small common surface of [`UnixStream`] and [`TcpStream`] the
/// connection loop needs.
trait Connection: Write + Send {
    /// An independent read handle on the same socket.
    fn try_clone_reader(&self) -> std::io::Result<Box<dyn std::io::Read + Send>>;
}

impl Connection for UnixStream {
    fn try_clone_reader(&self) -> std::io::Result<Box<dyn std::io::Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

impl Connection for TcpStream {
    fn try_clone_reader(&self) -> std::io::Result<Box<dyn std::io::Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(input: &[u8], cap: usize) -> Vec<Line> {
        let mut reader = BufReader::with_capacity(4, input);
        let mut out = Vec::new();
        loop {
            match read_line(&mut reader, cap).expect("in-memory read") {
                Line::End => return out,
                Line::TooLong => {
                    out.push(Line::TooLong);
                    return out;
                }
                line => out.push(line),
            }
        }
    }

    fn text(s: &str) -> Line {
        Line::Text(s.to_string())
    }

    #[test]
    fn lines_up_to_the_cap_are_read_and_longer_ones_refused() {
        assert_eq!(
            lines(b"abc\r\n12345678\n\nlast", 8),
            vec![
                text("abc\r\n"),
                text("12345678\n"),
                text("\n"),
                text("last")
            ]
        );
        assert_eq!(
            lines(b"ok\n123456789\nnever", 8),
            vec![text("ok\n"), Line::TooLong]
        );
        // No newline at all: refused after cap + 1 bytes, however much
        // more the client has sent.
        let endless = vec![b'a'; 1 << 16];
        assert_eq!(lines(&endless, 8), vec![Line::TooLong]);
        let mut reader = BufReader::new(&endless[..]);
        assert_eq!(read_line(&mut reader, 8).expect("read"), Line::TooLong);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("rest");
        assert_eq!(rest.len(), endless.len() - 9, "read stops at cap + 1");
    }

    #[test]
    fn finished_connection_threads_are_reaped_as_new_ones_start() {
        // Sequential connections: each thread finishes before the next
        // is accepted, so the next spawn reaps it.
        let mut threads = ConnectionThreads::default();
        let mut most = 0;
        for _ in 0..300 {
            threads.spawn(|| {});
            while !threads.0.last().expect("just spawned").is_finished() {
                std::thread::yield_now();
            }
            most = most.max(threads.0.len());
        }
        assert_eq!(
            most, 1,
            "300 sequential connections retained {most} handles"
        );
        threads.join_all();
    }

    #[test]
    fn a_line_that_is_not_utf8_is_an_error() {
        let mut reader = BufReader::new(&b"\xff\xfe\n"[..]);
        assert!(read_line(&mut reader, 8).is_err());
    }
}
