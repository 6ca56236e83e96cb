//! A small blocking client for the line-delimited protocol — what the
//! e2e tests, the throughput bench, and the `--smoke` self-test drive the
//! server with.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use mim_obs::Snapshot;
use serde::Value;

use crate::error::ServeError;
use crate::protocol::{to_line, MetricsFormat, Request};
use crate::spec::JobSpec;

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// The `(id, deduped)` outcome of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// Job id to poll/fetch with.
    pub id: u64,
    /// True when the server coalesced this submission onto an existing
    /// identical job.
    pub deduped: bool,
}

/// A blocking protocol client over one connection.
///
/// Addresses mirror [`Server::bind`](crate::Server::bind): `unix:<path>`,
/// `tcp:<host>:<port>`, or a bare `<host>:<port>`.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Addr`] for unparseable addresses and
    /// [`ServeError::Io`] for connection failures.
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        if let Some(path) = addr.strip_prefix("unix:") {
            let stream = UnixStream::connect(path)
                .map_err(|e| ServeError::Io(format!("connect {path}: {e}")))?;
            return Ok(Client {
                stream: Stream::Unix(stream),
            });
        }
        let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
        if !hostport.contains(':') {
            return Err(ServeError::Addr(format!(
                "`{addr}` is neither unix:<path> nor <host>:<port>"
            )));
        }
        let stream = TcpStream::connect(hostport)
            .map_err(|e| ServeError::Io(format!("connect {hostport}: {e}")))?;
        stream.set_nodelay(true).ok(); // request/response lines, not bulk
        Ok(Client {
            stream: Stream::Tcp(stream),
        })
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure, [`ServeError::Protocol`]
    /// on a non-JSON reply or closed connection, [`ServeError::Rejected`]
    /// when the server answers `{"ok":false,...}`.
    pub fn request(&mut self, request: &Request) -> Result<Value, ServeError> {
        let line = request.to_line() + "\n";
        let response = match &mut self.stream {
            Stream::Tcp(s) => exchange(s, &line)?,
            Stream::Unix(s) => exchange(s, &line)?,
        };
        let value: Value = serde_json::from_str(&response)
            .map_err(|e| ServeError::Protocol(format!("malformed response: {e}")))?;
        match value.get("ok") {
            Some(Value::Bool(true)) => Ok(value),
            Some(Value::Bool(false)) => {
                let message = match value.get("error") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => "unspecified error".to_string(),
                };
                Err(ServeError::Rejected(message))
            }
            _ => Err(ServeError::Protocol("response has no `ok` field".into())),
        }
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn submit(&mut self, job: &JobSpec) -> Result<Submitted, ServeError> {
        let response = self.request(&Request::Submit(Box::new(job.clone())))?;
        let id = response_u64(&response, "id")?;
        let deduped = matches!(response.get("deduped"), Some(Value::Bool(true)));
        Ok(Submitted { id, deduped })
    }

    /// Queries a job's state label (`queued`/`running`/`done`/`failed`).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn status(&mut self, id: u64) -> Result<String, ServeError> {
        let response = self.request(&Request::Status(id))?;
        match response.get("state") {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(ServeError::Protocol("status reply has no `state`".into())),
        }
    }

    /// Fetches a job's report, blocking until the job finishes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] carries the job's own error message when
    /// the job failed.
    pub fn result(&mut self, id: u64) -> Result<Value, ServeError> {
        let response = self.request(&Request::Result(id))?;
        take_field(response, "result")
            .ok_or_else(|| ServeError::Protocol("result reply has no `result`".into()))
    }

    /// Like [`result`](Client::result), but returns the report's compact
    /// JSON bytes — the deterministic representation response-identity
    /// tests compare.
    ///
    /// # Errors
    ///
    /// See [`result`](Client::result).
    pub fn result_text(&mut self, id: u64) -> Result<String, ServeError> {
        Ok(to_line(&self.result(id)?))
    }

    /// Fetches the server's stats object.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn stats(&mut self) -> Result<Value, ServeError> {
        let response = self.request(&Request::Stats)?;
        take_field(response, "stats")
            .ok_or_else(|| ServeError::Protocol("stats reply has no `stats`".into()))
    }

    /// Fetches the server's merged metrics snapshot as a JSON value
    /// (counters, gauges, and latency histograms with derived quantiles).
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn metrics(&mut self) -> Result<Value, ServeError> {
        let response = self.request(&Request::Metrics(MetricsFormat::Json))?;
        take_field(response, "metrics")
            .ok_or_else(|| ServeError::Protocol("metrics reply has no `metrics`".into()))
    }

    /// Fetches the server's metrics in Prometheus text exposition form.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn metrics_prometheus(&mut self) -> Result<String, ServeError> {
        let response = self.request(&Request::Metrics(MetricsFormat::Prometheus))?;
        match response.get("metrics_text") {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(ServeError::Protocol(
                "metrics reply has no `metrics_text`".into(),
            )),
        }
    }

    /// Fetches a finished job's wall-clock span profile
    /// (`{"total_ns":…,"spans":[…],"cells":{…}}`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] for unknown ids, unfinished jobs, and
    /// jobs that ran with profile capture disabled.
    pub fn profile(&mut self, id: u64) -> Result<Value, ServeError> {
        let response = self.request(&Request::Profile(id))?;
        take_field(response, "profile")
            .ok_or_else(|| ServeError::Protocol("profile reply has no `profile`".into()))
    }

    /// Streams `count` metrics-delta snapshots, one per `interval_ms`
    /// tick: each returned [`Snapshot`] is the change since the previous
    /// tick (counters and histograms as differences, gauges as current
    /// values). Blocks for roughly `count * interval_ms` milliseconds.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] if the server begins shutting down
    /// mid-stream; [`ServeError::Io`]/[`ServeError::Protocol`] on
    /// transport trouble.
    pub fn watch(&mut self, interval_ms: u64, count: u64) -> Result<Vec<Snapshot>, ServeError> {
        let line = Request::Watch { interval_ms, count }.to_line() + "\n";
        match &mut self.stream {
            Stream::Tcp(s) => watch_stream(s, &line, count),
            Stream::Unix(s) => watch_stream(s, &line, count),
        }
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// See [`request`](Client::request).
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

/// Moves one field out of a response object, dropping the rest.
fn take_field(response: Value, key: &str) -> Option<Value> {
    match response {
        Value::Object(fields) => fields.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Reads one `u64` field out of a response object.
fn response_u64(value: &Value, key: &str) -> Result<u64, ServeError> {
    match value.get(key) {
        Some(Value::UInt(u)) => Ok(*u),
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        _ => Err(ServeError::Protocol(format!("reply has no `{key}`"))),
    }
}

/// Drives one `watch` stream: writes the request, then reads exactly
/// `count` delta lines through a single persistent reader (unlike
/// [`exchange`], which builds a fresh reader per request and must not be
/// used for multi-line replies).
fn watch_stream<S: std::io::Read + Write>(
    stream: &mut S,
    line: &str,
    count: u64,
) -> Result<Vec<Snapshot>, ServeError> {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let mut reader = BufReader::new(stream);
    let mut deltas = Vec::new();
    for _ in 0..count.max(1) {
        let mut response = String::new();
        let n = reader
            .read_line(&mut response)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        if n == 0 {
            return Err(ServeError::Protocol("server closed the connection".into()));
        }
        let value: Value = serde_json::from_str(&response)
            .map_err(|e| ServeError::Protocol(format!("malformed response: {e}")))?;
        if let Some(Value::Bool(false)) = value.get("ok") {
            let message = match value.get("error") {
                Some(Value::Str(s)) => s.clone(),
                _ => "unspecified error".to_string(),
            };
            return Err(ServeError::Rejected(message));
        }
        let metrics = value
            .get("metrics")
            .ok_or_else(|| ServeError::Protocol("watch line has no `metrics`".into()))?;
        deltas.push(Snapshot::from_value(metrics).map_err(ServeError::Protocol)?);
    }
    Ok(deltas)
}

fn exchange<S: std::io::Read + Write>(stream: &mut S, line: &str) -> Result<String, ServeError> {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let n = reader
        .read_line(&mut response)
        .map_err(|e| ServeError::Io(e.to_string()))?;
    if n == 0 {
        return Err(ServeError::Protocol("server closed the connection".into()));
    }
    Ok(response)
}
