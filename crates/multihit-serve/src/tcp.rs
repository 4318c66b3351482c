//! TCP front end: a readiness-driven event loop serving both wire
//! protocols.
//!
//! The transport is a small epoll reactor instead of a
//! thread per connection: each reactor thread owns a level-triggered
//! poller, per-connection read/write buffers, and a thousand-plus
//! non-blocking sockets. Workers deliver responses by locking the
//! connection's write half, appending the encoded response, and flushing
//! opportunistically; a short write leaves the remainder buffered and
//! re-arms the connection for write-readiness, so a slow peer costs the
//! server one `EPOLLOUT` re-arm rather than a blocked thread.
//!
//! A connection's first byte negotiates the protocol: [`frame::MAGIC`]
//! selects binary frames (the server echoes the two-byte preamble), any
//! other byte selects JSON-lines. Binary requests are resolved against
//! the registry generation they were packed for ([`RegistryReader::
//! resolve_version`]) and their signatures move into the batch slot
//! verbatim; JSON requests pack through the panel's gene index. All
//! batching, caching, shedding, and hot-swap semantics live behind
//! [`Server`], shared with the in-process client.
//!
//! Responses on one connection may be delivered out of submission order
//! (shards drain independently); both protocols carry the request id, and
//! clients correlate by it.

use crate::frame::{self, FrameDecoder, Msg};
use crate::poll::{Interest, Poller, WAKE_TOKEN};
use crate::protocol::{Request, Response};
use crate::registry::RegistryReader;
use crate::server::{Reply, ResponseSink, Server};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Poller token of the accept listener (reactor 0 only).
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// One reactor's cross-thread surface: its poller (workers re-arm write
/// interest through it) and the queue of freshly accepted connections
/// waiting to be registered on this reactor's thread.
struct ReactorShared {
    poller: Poller,
    inject: Mutex<Vec<TcpStream>>,
}

/// Handle to a running TCP front end.
pub struct TcpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactors: Vec<Arc<ReactorShared>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl TcpHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the front end and drain every connection: wake the reactors,
    /// join them, and close all registered sockets on the way out. After
    /// `stop` returns no connection fd, buffer, or reactor thread remains
    /// (`conn_closed` catches up to `conn_accepted`).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        for r in &self.reactors {
            r.poller.waker().wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and serve [`Server`] over one reactor thread.
///
/// # Errors
/// Propagates the bind failure.
pub fn spawn(server: Arc<Server>, addr: &str) -> io::Result<TcpHandle> {
    spawn_with(server, addr, 1)
}

/// Bind `addr` and serve [`Server`] over `reactors` event-loop threads.
/// Reactor 0 owns the listener and hands accepted connections out
/// round-robin; each reactor multiplexes all of its connections on one
/// poller.
///
/// # Errors
/// Propagates bind and poller-creation failures.
pub fn spawn_with(server: Arc<Server>, addr: &str, reactors: usize) -> io::Result<TcpHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let n = reactors.max(1);
    let stop = Arc::new(AtomicBool::new(false));
    let shared: Vec<Arc<ReactorShared>> = (0..n)
        .map(|_| {
            Ok(Arc::new(ReactorShared {
                poller: Poller::new()?,
                inject: Mutex::new(Vec::new()),
            }))
        })
        .collect::<io::Result<_>>()?;
    let mut threads = Vec::with_capacity(n);
    for idx in 0..n {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let all: Vec<Arc<ReactorShared>> = shared.iter().map(Arc::clone).collect();
        let listener = if idx == 0 {
            Some(listener.try_clone()?)
        } else {
            None
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-reactor-{idx}"))
                .spawn(move || reactor_loop(idx, &server, &stop, &all, listener))
                .expect("spawn reactor thread"),
        );
    }
    Ok(TcpHandle {
        addr: local,
        stop,
        reactors: shared,
        threads,
    })
}

/// Outbound half of a connection, shared between its reactor and the
/// scoring workers that deliver responses to it.
struct ConnOut {
    /// Write half (`try_clone` of the registered socket); `None` once the
    /// connection is closed or the peer failed a write — late responses
    /// are then dropped instead of touching a dead (or reused) fd.
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    pos: usize,
    /// Whether the fd is currently armed for `EPOLLOUT`. Set by the
    /// sender that first hits a short write, cleared by the reactor once
    /// the buffer drains; guards against redundant `epoll_ctl` calls.
    want_write: bool,
    /// Encode responses as binary frames (set when the preamble
    /// negotiates binary, before any request is admitted).
    binary: bool,
}

struct ConnShared {
    fd: RawFd,
    token: u64,
    reactor: Arc<ReactorShared>,
    out: Mutex<ConnOut>,
}

impl ConnShared {
    /// Append pre-encoded bytes and flush opportunistically (used for the
    /// binary preamble echo).
    fn send_bytes(&self, bytes: &[u8]) {
        let mut out = self.out.lock().expect("conn poisoned");
        if out.stream.is_none() {
            return;
        }
        out.buf.extend_from_slice(bytes);
        self.flush_from_sender(&mut out);
    }

    fn flush_from_sender(&self, out: &mut ConnOut) {
        if out.want_write {
            // The reactor is already armed and will drain on EPOLLOUT;
            // keep appending without extra syscalls.
            return;
        }
        if !pump(out) && out.stream.is_some() {
            out.want_write = true;
            let _ = self
                .reactor
                .poller
                .modify(self.fd, self.token, Interest::READ_WRITE);
        }
    }
}

impl ResponseSink for ConnShared {
    fn send(&self, resp: Response) {
        let mut out = self.out.lock().expect("conn poisoned");
        if out.stream.is_none() {
            return;
        }
        if out.binary {
            frame::encode_response(&mut out.buf, &resp);
        } else {
            let line = resp.to_json();
            out.buf.reserve(line.len() + 1);
            out.buf.extend_from_slice(line.as_bytes());
            out.buf.push(b'\n');
        }
        self.flush_from_sender(&mut out);
    }
}

/// Write `out.buf[out.pos..]` until drained or `WouldBlock`. Returns
/// whether the buffer drained. A dead peer drops the write half (the
/// reactor tears the connection down on its next readiness event).
fn pump(out: &mut ConnOut) -> bool {
    loop {
        if out.stream.is_none() || out.pos >= out.buf.len() {
            out.buf.clear();
            out.pos = 0;
            return true;
        }
        let r = {
            let mut s = out.stream.as_ref().expect("checked above");
            s.write(&out.buf[out.pos..])
        };
        match r {
            Ok(0) => out.stream = None,
            Ok(n) => out.pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Keep the backlog bounded for long-lived slow peers.
                if out.pos >= 64 * 1024 {
                    out.buf.drain(..out.pos);
                    out.pos = 0;
                }
                return false;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => out.stream = None,
        }
    }
}

enum Mode {
    /// Waiting for the first bytes to pick a protocol.
    Detect,
    Json,
    Binary,
}

/// Reactor-private connection state (the read half and decoders live on
/// the reactor thread only; no lock needed to parse).
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    mode: Mode,
    /// Binary-frame reassembly buffer (Binary mode).
    decoder: FrameDecoder,
    /// Raw byte buffer: preamble bytes in Detect mode, partial lines in
    /// Json mode.
    line: Vec<u8>,
    /// Per-connection epoch-cached registry view: `load()` costs one
    /// atomic compare per read burst.
    reader: RegistryReader,
}

fn reactor_loop(
    idx: usize,
    server: &Arc<Server>,
    stop: &AtomicBool,
    all: &[Arc<ReactorShared>],
    listener: Option<TcpListener>,
) {
    let shared = &all[idx];
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let token_base = (idx as u64) << 48;
    let mut next_token: u64 = 1;
    let mut rr = 0usize;
    let mut events = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut loops = 0u64;
    let mut busy_ns = 0u64;
    if let Some(l) = &listener {
        let _ = shared
            .poller
            .register(l.as_raw_fd(), LISTEN_TOKEN, Interest::READ);
    }
    loop {
        if shared.poller.wait(&mut events, 200).is_err() {
            break;
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let t0 = Instant::now();
        loops += 1;
        // Register connections handed over by the accepting reactor.
        let injected: Vec<TcpStream> =
            std::mem::take(&mut *shared.inject.lock().expect("inject poisoned"));
        for stream in injected {
            register_conn(
                server,
                shared,
                &mut conns,
                token_base,
                &mut next_token,
                stream,
            );
        }
        for ev in &events {
            match ev.token {
                WAKE_TOKEN => {}
                LISTEN_TOKEN => {
                    if let Some(l) = &listener {
                        accept_burst(
                            server,
                            shared,
                            all,
                            &mut rr,
                            l,
                            &mut conns,
                            token_base,
                            &mut next_token,
                        );
                    }
                }
                token => {
                    let close = match conns.get_mut(&token) {
                        Some(conn) => {
                            if ev.writable {
                                reactor_flush(conn);
                            }
                            if ev.readable || ev.hangup {
                                handle_readable(server, conn, &mut scratch)
                            } else {
                                false
                            }
                        }
                        None => false,
                    };
                    if close {
                        if let Some(conn) = conns.remove(&token) {
                            close_conn(server, shared, &conn);
                        }
                    }
                }
            }
        }
        busy_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    // Drain on stop: every connection is torn down before the reactor
    // exits — no leaked fds, no orphan threads (there are none to leak).
    for (_, conn) in std::mem::take(&mut conns) {
        close_conn(server, shared, &conn);
    }
    if let Some(l) = &listener {
        let _ = shared.poller.deregister(l.as_raw_fd());
    }
    server.note_reactor(loops, busy_ns);
}

#[allow(clippy::too_many_arguments)]
fn accept_burst(
    server: &Arc<Server>,
    shared: &Arc<ReactorShared>,
    all: &[Arc<ReactorShared>],
    rr: &mut usize,
    listener: &TcpListener,
    conns: &mut BTreeMap<u64, Conn>,
    token_base: u64,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                server.note_conn_accepted();
                if stream.set_nonblocking(true).is_err() {
                    server.note_conn_closed();
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let target = &all[*rr % all.len()];
                *rr += 1;
                if Arc::ptr_eq(target, shared) {
                    register_conn(server, shared, conns, token_base, next_token, stream);
                } else {
                    target.inject.lock().expect("inject poisoned").push(stream);
                    target.poller.waker().wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn register_conn(
    server: &Arc<Server>,
    shared: &Arc<ReactorShared>,
    conns: &mut BTreeMap<u64, Conn>,
    token_base: u64,
    next_token: &mut u64,
    stream: TcpStream,
) {
    let fd = stream.as_raw_fd();
    let Ok(write_half) = stream.try_clone() else {
        server.note_conn_closed();
        return;
    };
    let token = token_base | *next_token;
    *next_token += 1;
    if shared.poller.register(fd, token, Interest::READ).is_err() {
        server.note_conn_closed();
        return;
    }
    let conn_shared = Arc::new(ConnShared {
        fd,
        token,
        reactor: Arc::clone(shared),
        out: Mutex::new(ConnOut {
            stream: Some(write_half),
            buf: Vec::new(),
            pos: 0,
            want_write: false,
            binary: false,
        }),
    });
    conns.insert(
        token,
        Conn {
            stream,
            shared: conn_shared,
            mode: Mode::Detect,
            decoder: FrameDecoder::new(),
            line: Vec::new(),
            reader: server.shared_registry().reader(),
        },
    );
}

fn reactor_flush(conn: &Conn) {
    let mut out = conn.shared.out.lock().expect("conn poisoned");
    if !out.want_write {
        return;
    }
    if pump(&mut out) {
        out.want_write = false;
        if out.stream.is_some() {
            let _ = conn.shared.reactor.poller.modify(
                conn.shared.fd,
                conn.shared.token,
                Interest::READ,
            );
        }
    }
}

/// Mark the connection dead under its lock (so a racing worker can never
/// touch a closed — and possibly reused — fd), deregister it, and count
/// the close. The read half drops with `conn` after this returns.
fn close_conn(server: &Arc<Server>, shared: &Arc<ReactorShared>, conn: &Conn) {
    {
        let mut out = conn.shared.out.lock().expect("conn poisoned");
        out.stream = None;
        out.buf.clear();
        out.pos = 0;
        let _ = shared.poller.deregister(conn.shared.fd);
    }
    server.note_conn_closed();
}

/// Drain readable bytes and admit the requests they complete. Returns
/// `true` when the connection should be torn down (EOF, I/O error, or a
/// poisoned stream).
fn handle_readable(server: &Arc<Server>, conn: &mut Conn, scratch: &mut [u8]) -> bool {
    // Bounded reads per event keep one flooding connection from
    // monopolizing the reactor; level-triggered polling re-reports
    // leftover bytes on the next loop.
    for _ in 0..4 {
        match conn.stream.read(scratch) {
            Ok(0) => return true,
            Ok(n) => {
                if process_bytes(server, conn, &scratch[..n]) {
                    return true;
                }
                if n < scratch.len() {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    false
}

/// Feed freshly read bytes through protocol detection and the active
/// decoder. Returns `true` to close the connection.
fn process_bytes(server: &Arc<Server>, conn: &mut Conn, mut bytes: &[u8]) -> bool {
    if matches!(conn.mode, Mode::Detect) {
        conn.line.extend_from_slice(bytes);
        if conn.line[0] == frame::MAGIC {
            if conn.line.len() < 2 {
                return false; // need the version byte
            }
            if conn.line[1] != frame::VERSION {
                // Unknown binary version: refuse by closing, per the
                // negotiation contract.
                return true;
            }
            {
                let mut out = conn.shared.out.lock().expect("conn poisoned");
                out.binary = true;
            }
            let mut preamble = Vec::with_capacity(2);
            frame::encode_preamble(&mut preamble);
            conn.shared.send_bytes(&preamble);
            conn.mode = Mode::Binary;
            let rest = conn.line.split_off(2);
            conn.line.clear();
            conn.decoder.push(&rest);
            return drain_binary(server, conn);
        }
        // Anything but the magic byte is JSON-lines; `line` already holds
        // the bytes, fall through to line scanning.
        conn.mode = Mode::Json;
        bytes = &[];
    }
    match conn.mode {
        Mode::Json => {
            conn.line.extend_from_slice(bytes);
            drain_json_lines(server, conn)
        }
        Mode::Binary => {
            conn.decoder.push(bytes);
            drain_binary(server, conn)
        }
        Mode::Detect => unreachable!("detection resolved above"),
    }
}

/// Admit every complete line. Returns `true` to close: an unterminated
/// tail longer than [`frame::MAX_FRAME`] is refused, as the binary decoder
/// refuses an oversized frame, so a peer cannot grow the buffer forever.
fn drain_json_lines(server: &Arc<Server>, conn: &mut Conn) -> bool {
    let mut start = 0usize;
    while let Some(nl) = conn.line[start..].iter().position(|&b| b == b'\n') {
        let end = start + nl;
        let line = &conn.line[start..end];
        start = end + 1;
        let text = String::from_utf8_lossy(line);
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        let reply = Reply::Sink(Arc::clone(&conn.shared) as Arc<dyn ResponseSink>);
        match Request::from_json(text) {
            Ok(req) => {
                let generation = Arc::clone(conn.reader.current());
                server.admit_named(&req, &generation, reply);
            }
            Err(e) => reply.send(Response::error(0, format!("bad request: {e}"))),
        }
    }
    if start > 0 {
        conn.line.drain(..start);
    }
    conn.line.len() > frame::MAX_FRAME
}

/// Decode and admit buffered binary frames. Returns `true` to close (a
/// corrupt frame poisons the stream).
fn drain_binary(server: &Arc<Server>, conn: &mut Conn) -> bool {
    let mut decoded = 0u64;
    let close = loop {
        match conn.decoder.next() {
            Ok(Some(Msg::Request {
                id,
                version,
                model_id,
                tenant,
                sig,
            })) => {
                decoded += 1;
                let reply = Reply::Sink(Arc::clone(&conn.shared) as Arc<dyn ResponseSink>);
                match conn.reader.resolve_version(version) {
                    Some(generation) => match generation.registry.get_by_id(model_id) {
                        Some(panel) => {
                            let panel = Arc::clone(panel);
                            server.submit_resolved(id, &panel, version, tenant, sig, reply);
                        }
                        None => server.submit_unresolvable(
                            id,
                            tenant,
                            format!("unknown model id {model_id}"),
                            &reply,
                        ),
                    },
                    None => server.submit_unresolvable(
                        id,
                        tenant,
                        format!("stale registry generation {version}"),
                        &reply,
                    ),
                }
            }
            Ok(Some(Msg::Publish { id, panels })) => {
                decoded += 1;
                // Compile-and-swap happens inline on the reactor thread:
                // publishes are rare control-plane events, and doing the
                // swap before decoding the next frame gives the publisher
                // a strict ack ordering (the ack's generation is live for
                // every frame admitted after it).
                let reply = Reply::Sink(Arc::clone(&conn.shared) as Arc<dyn ResponseSink>);
                match server.publish_results(&panels) {
                    Ok(generation) => reply.send(Response::ok(id, false, false, generation)),
                    Err(e) => reply.send(Response::error(id, format!("publish rejected: {e}"))),
                }
            }
            // Clients must not send response frames.
            Ok(Some(Msg::Response(_))) => break true,
            Ok(None) => break false,
            Err(_) => break true,
        }
    };
    server.note_frames_decoded(decoded);
    close
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::synth_results;
    use crate::protocol::Status;
    use crate::registry::ModelRegistry;
    use crate::server::ServeConfig;
    use multihit_core::obs::{Obs, RunReport};
    use std::io::{BufRead, BufReader};

    fn test_server() -> (Arc<Server>, Obs) {
        let obs = Obs::enabled();
        let mut reg = ModelRegistry::new();
        reg.insert_results(&synth_results("P", 16, 8, 3, 3))
            .unwrap();
        (Server::start(reg, ServeConfig::default(), &obs), obs)
    }

    #[test]
    fn tcp_json_round_trip_matches_scalar() {
        let (server, obs) = test_server();
        let panel = server.registry().registry.get("P").unwrap();
        let handle = spawn(Arc::clone(&server), "127.0.0.1:0").unwrap();

        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for id in 0..40u64 {
            let genes: Vec<String> = (0..16)
                .filter(|g| (id >> (g % 6)) & 1 == 1)
                .map(|g| format!("G{g}"))
                .collect();
            let req = Request {
                id,
                model: "P".to_string(),
                genes: genes.clone(),
                tenant: 0,
            };
            writer
                .write_all(format!("{}\n", req.to_json()).as_bytes())
                .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let resp = Response::from_json(&line).unwrap();
            assert_eq!(resp.id, id);
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.version, 1);
            let expected = panel.classify_signature(&panel.signature(&genes));
            assert_eq!(resp.tumor, expected, "request {id}");
        }

        // Malformed line gets an error response, connection stays usable.
        writer.write_all(b"{\"nonsense\":true}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let resp = Response::from_json(&line).unwrap();
        assert_eq!(resp.status, Status::Error);

        drop(writer);
        drop(reader);
        handle.stop();
        let report = server.shutdown();
        assert_eq!(report.ok, 40);
        assert_eq!(report.conn_accepted, 1);
        assert_eq!(report.conn_closed, 1);
        // One report, two routes: the stopped reactor's totals reached the
        // server's books, and the stream rebuilds the very same struct.
        assert!(report.reactor_loops > 0 && report.batches > 0);
        assert_eq!(RunReport::from_events(&obs.events()).serve, report);
    }

    #[test]
    fn tcp_binary_round_trip_matches_scalar() {
        let (server, _obs) = test_server();
        let panel = server.registry().registry.get("P").unwrap();
        let handle = spawn(Arc::clone(&server), "127.0.0.1:0").unwrap();

        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut wire = Vec::new();
        frame::encode_preamble(&mut wire);
        let mut sigs = Vec::new();
        for id in 0..64u64 {
            let genes: Vec<String> = (0..16)
                .filter(|g| (id >> (g % 7)) & 1 == 1)
                .map(|g| format!("G{g}"))
                .collect();
            let sig = panel.signature(&genes);
            frame::encode_request(&mut wire, id, 1, panel.id, 0, &sig);
            sigs.push(sig);
        }
        // Pipelined: everything in one write, then collect.
        stream.write_all(&wire).unwrap();

        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        let mut preamble_seen = 0usize;
        let mut got: Vec<Option<Response>> = vec![None; sigs.len()];
        let mut remaining = sigs.len();
        while remaining > 0 {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed early");
            let mut bytes = &buf[..n];
            while preamble_seen < 2 && !bytes.is_empty() {
                let expect = if preamble_seen == 0 {
                    frame::MAGIC
                } else {
                    frame::VERSION
                };
                assert_eq!(bytes[0], expect, "preamble byte {preamble_seen}");
                preamble_seen += 1;
                bytes = &bytes[1..];
            }
            dec.push(bytes);
            while let Some(msg) = dec.next().unwrap() {
                match msg {
                    Msg::Response(resp) => {
                        let idx = resp.id as usize;
                        assert!(got[idx].is_none(), "duplicate response {idx}");
                        got[idx] = Some(resp);
                        remaining -= 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        for (i, resp) in got.iter().enumerate() {
            let resp = resp.as_ref().unwrap();
            assert_eq!(resp.status, Status::Ok, "response {i}");
            assert_eq!(resp.version, 1);
            assert_eq!(
                resp.tumor,
                panel.classify_signature(&sigs[i]),
                "response {i}"
            );
        }

        drop(stream);
        handle.stop();
        let report = server.shutdown();
        assert_eq!(report.ok, 64);
        assert_eq!(report.frames_decoded, 64);
    }

    #[test]
    fn unknown_binary_version_closes_connection() {
        let (server, _obs) = test_server();
        let handle = spawn(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(&[frame::MAGIC, 0x7f]).unwrap();
        let mut buf = [0u8; 16];
        // The server must close without echoing a preamble.
        let n = stream.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "expected EOF, got {:?}", &buf[..n]);
        handle.stop();
        server.shutdown();
    }

    #[test]
    fn unterminated_json_line_over_max_frame_closes_connection() {
        let (server, _obs) = test_server();
        let handle = spawn(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut flood = TcpStream::connect(handle.addr()).unwrap();
        let timeout = Some(std::time::Duration::from_secs(10));
        flood.set_read_timeout(timeout).unwrap();
        flood.write_all(&vec![b'x'; frame::MAX_FRAME + 1]).unwrap();
        let r = flood.read(&mut [0u8; 16]);
        assert!(matches!(r, Ok(0)), "expected EOF, got {r:?}");
        // Other connections are unaffected.
        let mut ok = TcpStream::connect(handle.addr()).unwrap();
        ok.write_all(b"{\"id\":5,\"model\":\"P\",\"genes\":\"G1\"}\n")
            .unwrap();
        let mut line = String::new();
        BufReader::new(ok).read_line(&mut line).unwrap();
        let resp = Response::from_json(&line).unwrap();
        assert_eq!((resp.id, resp.status), (5, Status::Ok));
        drop(flood);
        handle.stop();
        server.shutdown();
    }

    #[test]
    fn stop_drains_open_connections() {
        let (server, _obs) = test_server();
        let handle = spawn(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut clients: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(handle.addr()).unwrap())
            .collect();
        // Exercise one of them so registration demonstrably happened.
        clients[0]
            .write_all(b"{\"id\":1,\"model\":\"P\",\"genes\":\"\"}\n")
            .unwrap();
        let mut line = String::new();
        BufReader::new(clients[0].try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("\"status\""));

        handle.stop();
        // Every client observes EOF: the reactor closed all sockets.
        for c in &mut clients {
            c.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            let mut buf = [0u8; 8];
            let n = c.read(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "expected EOF after stop");
        }
        let report = server.shutdown();
        assert_eq!(report.conn_accepted, 3);
        assert_eq!(
            report.conn_closed, 3,
            "stop must drain every connection it accepted"
        );
    }
}
