//! The closed-loop TCP client: one connection per request, as the servers
//! expect, timed from connect to the last response byte.

use std::borrow::Cow;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gen::{Lane, Op};

/// Read/write timeout on a client socket; a cold compile takes well under it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A parsed HTTP response.
#[derive(Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body text.
    pub body: String,
}

/// Sends one request on a fresh connection and reads the whole response
/// into `buf`, which a client reuses so that it allocates little while the
/// servers run. Returns the status and where the body starts in `buf`.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    buf: &mut Vec<u8>,
) -> std::io::Result<(u16, usize)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    buf.clear();
    write!(
        buf,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    buf.extend_from_slice(body.as_bytes());
    stream.write_all(buf)?;
    buf.clear();
    stream.read_to_end(buf)?;
    let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_owned());
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let status = std::str::from_utf8(&buf[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok((status, split + 4))
}

/// Sends one request on a fresh connection and reads the whole response.
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut buf = Vec::new();
    let (status, at) = exchange(addr, method, path, body, &mut buf)?;
    let body = String::from_utf8(buf.split_off(at))
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok(Reply { status, body })
}

/// `POST /compile` that must answer 200; returns the body.
pub fn compile(addr: SocketAddr, body: &str) -> Result<String, String> {
    let reply = call(addr, "POST", "/compile", body).map_err(|e| format!("POST /compile: {e}"))?;
    if reply.status == 200 {
        Ok(reply.body)
    } else {
        Err(format!(
            "POST /compile answered {}: {}",
            reply.status, reply.body
        ))
    }
}

/// The bytes each operation sends and the answers that prove it right.
#[derive(Debug, Default)]
pub struct Wire {
    /// JSON body of each working-set request.
    pub read_bodies: Vec<String>,
    /// The first answer to each working-set request (from setup): every
    /// later answer must equal it byte for byte.
    pub expected: Vec<String>,
    /// `/cache/<key>` path of each PUT-pool manifest.
    pub put_paths: Vec<String>,
    /// Each PUT-pool manifest.
    pub put_bodies: Vec<String>,
}

/// How one timed request ended.
#[derive(Debug)]
pub struct Record {
    /// Index of the client that sent it.
    pub lane: usize,
    /// What was sent.
    pub op: Op,
    /// When the connect started.
    pub start: Instant,
    /// When the last response byte arrived.
    pub end: Instant,
    /// `None` when the answer was right, else why not.
    pub error: Option<String>,
    /// The manifest a `Compile` answered, for checks after the window.
    pub body: Option<String>,
}

impl Record {
    /// Round trip in milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Runs `op` against `addr` and checks what can be checked in the loop.
fn send(addr: SocketAddr, wire: &Wire, lane: usize, op: Op, buf: &mut Vec<u8>) -> Record {
    let (method, path, body): (&str, &str, Cow<str>) = match &op {
        Op::Read(i) => ("POST", "/compile", Cow::Borrowed(&wire.read_bodies[*i])),
        Op::Compile(request) => ("POST", "/compile", Cow::Owned(request.to_json())),
        Op::Put(i) => (
            "PUT",
            &wire.put_paths[*i],
            Cow::Borrowed(&wire.put_bodies[*i]),
        ),
    };
    let start = Instant::now();
    let reply = exchange(addr, method, path, &body, buf);
    let end = Instant::now();
    let (error, body) = match reply {
        Err(e) => (Some(format!("transport: {e}")), None),
        Ok((status, at)) => {
            let got = &buf[at..];
            match &op {
                _ if status != 200 => (
                    Some(format!("status {status}: {}", String::from_utf8_lossy(got))),
                    None,
                ),
                Op::Read(i) if got != wire.expected[*i].as_bytes() => (
                    Some(format!("working-set entry {i} answered different bytes")),
                    None,
                ),
                Op::Put(_) if got != b"replicated\n" => (
                    Some(format!("PUT answered {:?}", String::from_utf8_lossy(got))),
                    None,
                ),
                Op::Compile(_) => match String::from_utf8(got.to_vec()) {
                    Ok(manifest) => (None, Some(manifest)),
                    Err(_) => (Some("answer is not UTF-8".to_owned()), None),
                },
                _ => (None, None),
            }
        }
    };
    Record {
        lane,
        op,
        start,
        end,
        error,
        body,
    }
}

/// Drives every lane closed-loop against `addr` until `window` has passed
/// since the call; a request started inside the window is waited for.
pub fn drive(addr: SocketAddr, wire: &Wire, lanes: &mut [Lane], window: Duration) -> Vec<Record> {
    let deadline = Instant::now() + window;
    std::thread::scope(|scope| {
        let workers: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(index, lane)| {
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut buf = Vec::new();
                    while Instant::now() < deadline {
                        let op = lane.next().expect("lanes are endless");
                        records.push(send(addr, wire, index, op, &mut buf));
                    }
                    records
                })
            })
            .collect();
        let mut all: Vec<Record> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        all.sort_by_key(|r| r.start);
        all
    })
}
