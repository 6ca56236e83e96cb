//! The socket front-end: TCP and unix-domain listeners speaking the
//! line-delimited protocol, one handler thread per connection.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serde::Value;

use crate::engine::Engine;
use crate::error::ServeError;
use crate::protocol::{
    error_response, ok_response, to_line, write_line, write_ok_response, MetricsFormat, Request,
};

/// A bound server address, normalized back to string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundAddr {
    /// `tcp:<ip>:<port>` (port resolved when binding port 0).
    Tcp(String),
    /// `unix:<path>`.
    Unix(PathBuf),
}

impl BoundAddr {
    /// The `unix:...`/`tcp:...` string clients connect with.
    pub fn to_connect_string(&self) -> String {
        match self {
            BoundAddr::Tcp(addr) => format!("tcp:{addr}"),
            BoundAddr::Unix(path) => format!("unix:{}", path.display()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// A bound evaluation server. [`run`](Server::run) accepts connections
/// until a client sends `shutdown`, then drains the engine and returns.
///
/// Addresses: `unix:<path>` binds a unix-domain socket; `tcp:<host>:<port>`
/// (or a bare `<host>:<port>`) binds TCP. Port 0 picks a free port —
/// read it back from [`addr`](Server::addr).
pub struct Server {
    listener: Listener,
    engine: Engine,
    addr: BoundAddr,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds a listener and attaches it to `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Addr`] for unparseable addresses and
    /// [`ServeError::Io`] for bind failures (port in use, stale socket
    /// path, ...).
    pub fn bind(addr: &str, engine: Engine) -> Result<Server, ServeError> {
        if let Some(path) = addr.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ServeError::Addr("empty unix socket path".into()));
            }
            let path = PathBuf::from(path);
            let listener = UnixListener::bind(&path)
                .map_err(|e| ServeError::Io(format!("bind {}: {e}", path.display())))?;
            return Ok(Server {
                listener: Listener::Unix(listener),
                engine,
                addr: BoundAddr::Unix(path),
                stop: Arc::new(AtomicBool::new(false)),
            });
        }
        let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
        if !hostport.contains(':') {
            return Err(ServeError::Addr(format!(
                "`{addr}` is neither unix:<path> nor <host>:<port>"
            )));
        }
        let listener = TcpListener::bind(hostport)
            .map_err(|e| ServeError::Io(format!("bind {hostport}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        Ok(Server {
            listener: Listener::Tcp(listener),
            engine,
            addr: BoundAddr::Tcp(local.to_string()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (with any ephemeral TCP port resolved).
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Accepts and serves connections until a `shutdown` request arrives,
    /// then joins the engine's workers (draining queued jobs) and cleans
    /// up the socket. Run this on a dedicated thread to serve in the
    /// background.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if accepting fails outright.
    pub fn run(self) -> Result<(), ServeError> {
        let Server {
            listener,
            engine,
            addr,
            stop,
        } = self;
        let mut handlers = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match &listener {
                Listener::Tcp(l) => {
                    let (stream, _) = l.accept().map_err(|e| ServeError::Io(e.to_string()))?;
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    stream.set_nodelay(true).ok(); // request/response lines, not bulk
                    let engine = engine.clone();
                    let stop = Arc::clone(&stop);
                    let addr = addr.clone();
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &engine, &stop, &addr);
                    }));
                }
                Listener::Unix(l) => {
                    let (stream, _) = l.accept().map_err(|e| ServeError::Io(e.to_string()))?;
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let engine = engine.clone();
                    let stop = Arc::clone(&stop);
                    let addr = addr.clone();
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &engine, &stop, &addr);
                    }));
                }
            }
        }
        for handler in handlers {
            handler.join().ok();
        }
        engine.shutdown();
        if let BoundAddr::Unix(path) = &addr {
            std::fs::remove_file(path).ok();
        }
        Ok(())
    }
}

/// Serves one connection: read a line, answer a line, until EOF (or a
/// shutdown request, which also stops the accept loop).
fn handle_connection<S>(stream: S, engine: &Engine, stop: &AtomicBool, addr: &BoundAddr)
where
    for<'a> &'a S: std::io::Read + Write,
{
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    let mut reply = Vec::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            // `watch` is the protocol's one multi-line response: stream
            // the delta lines here, then fall back to request/response
            // mode.
            Ok(Request::Watch { interval_ms, count }) => {
                if stream_watch(&stream, engine, interval_ms, count).is_err() {
                    return;
                }
                continue;
            }
            request => request,
        };
        reply.clear();
        let shutdown = match request.and_then(|request| respond(engine, request, &mut reply)) {
            Ok(shutdown) => shutdown,
            Err(message) => {
                write_line(&mut reply, &error_response(message));
                false
            }
        };
        reply.push(b'\n');
        let mut writer = &stream;
        if writer
            .write_all(&reply)
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            wake_acceptor(addr);
            return;
        }
    }
}

/// Writes the success line for one request to `out`, or returns the
/// message for its `{"ok":false,...}` line (leaving `out` untouched).
/// `Ok(true)` asks the caller to begin shutdown after sending the line.
fn respond(engine: &Engine, request: Request, out: &mut Vec<u8>) -> Result<bool, String> {
    let shutdown = matches!(request, Request::Shutdown);
    match request {
        Request::Submit(spec) => {
            let (id, deduped) = engine.submit(*spec)?;
            write_ok_response(
                out,
                &[("id", &Value::UInt(id)), ("deduped", &Value::Bool(deduped))],
            );
        }
        Request::Status(id) => {
            let status = engine
                .status(id)
                .ok_or_else(|| format!("unknown job id {id}"))?;
            write_ok_response(
                out,
                &[
                    ("id", &Value::UInt(id)),
                    ("state", &Value::Str(status.label().into())),
                ],
            );
        }
        Request::Result(id) => {
            let report = engine.wait_result(id)?;
            write_ok_response(out, &[("id", &Value::UInt(id)), ("result", &report)]);
        }
        Request::Stats => write_ok_response(out, &[("stats", &engine.stats())]),
        Request::Metrics(format) => {
            let snapshot = engine.metrics();
            match format {
                MetricsFormat::Json => write_ok_response(out, &[("metrics", &snapshot.to_value())]),
                MetricsFormat::Prometheus => write_ok_response(
                    out,
                    &[("metrics_text", &Value::Str(snapshot.to_prometheus()))],
                ),
            }
        }
        Request::Profile(id) => {
            let profile = engine.profile(id)?;
            write_ok_response(out, &[("id", &Value::UInt(id)), ("profile", &profile)]);
        }
        // Streamed by `handle_connection` before `respond` is reached;
        // kept total so a direct call still answers sensibly.
        Request::Watch { .. } => {
            return Err("watch is a streaming command; connect over a socket".into())
        }
        Request::Shutdown => write_ok_response(out, &[]),
    }
    Ok(shutdown)
}

/// Streams one `watch` reply: `count` lines of metrics deltas, each
/// covering one `interval_ms` tick ([`Snapshot::delta_since`] semantics —
/// counters and histograms as differences, gauges as current values).
/// Stops early, with an error line, if the server begins shutting down.
///
/// An `Err` return means the client went away: the caller drops the
/// connection.
fn stream_watch<S>(stream: &S, engine: &Engine, interval_ms: u64, count: u64) -> std::io::Result<()>
where
    for<'a> &'a S: std::io::Read + Write,
{
    let mut writer = stream;
    let mut write_line = move |value: &Value| {
        writer
            .write_all((to_line(value) + "\n").as_bytes())
            .and_then(|()| writer.flush())
    };
    let mut baseline = engine.metrics();
    for seq in 0..count.max(1) {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        if engine.stopping() {
            // Answer the remaining expectation with one terminal error
            // line so a blocked reader is released, then drop the
            // connection.
            write_line(&error_response("server is shutting down"))?;
            return Err(std::io::Error::other("watch interrupted by shutdown"));
        }
        let current = engine.metrics();
        let delta = current.delta_since(&baseline);
        baseline = current;
        write_line(&ok_response(vec![
            ("seq".into(), Value::UInt(seq)),
            ("metrics".into(), delta.to_value()),
        ]))?;
    }
    Ok(())
}

/// Unblocks the accept loop after `stop` is set by making one throwaway
/// connection to ourselves.
fn wake_acceptor(addr: &BoundAddr) {
    match addr {
        BoundAddr::Tcp(hostport) => {
            TcpStream::connect(hostport).ok();
        }
        BoundAddr::Unix(path) => {
            UnixStream::connect(path).ok();
        }
    }
}
