//! A small blocking client for the JSON-lines protocol — what the
//! loopback tests, benches, and the `--smoke` self-check drive the
//! daemon with.

use crate::json::{self, Value};
use crate::protocol::{write_constraints, Priority, PROTOCOL_VERSION};
use milo_core::Constraints;
use milo_trace::{json_object, JsonWriter};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Submission options for [`Client::submit_with`] and
/// [`Client::submit_batch`]: priority, streaming, and client tag, each
/// a builder call rather than a positional argument.
///
/// ```no_run
/// # use milo_serve::{Client, SubmitOptions, Priority};
/// # use milo_core::Constraints;
/// # let mut client = Client::connect("127.0.0.1:0")?;
/// let job = client.submit_with(
///     "design d\ninput a\noutput y\ncomp inv g A=a Y=y\n",
///     &Constraints::none(),
///     &SubmitOptions::new().priority(Priority::High).client("me"),
/// )?;
/// # Ok::<(), milo_serve::ClientError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SubmitOptions {
    priority: Priority,
    stream: bool,
    client: Option<String>,
}

impl SubmitOptions {
    /// Defaults: `normal` priority, no streaming, per-connection
    /// client identity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the scheduling band.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Streams flow events back on this connection as the job runs.
    #[must_use]
    pub fn stream(mut self, stream: bool) -> Self {
        self.stream = stream;
        self
    }

    /// Tags the submission with a client identity — fairness is
    /// per-tag, so submissions sharing a tag share one scheduling
    /// turn even across connections.
    #[must_use]
    pub fn client(mut self, tag: impl Into<String>) -> Self {
        self.client = Some(tag.into());
        self
    }

    /// Writes a submission's `constraints` and this option set's
    /// members.
    fn write_fields(&self, w: &mut JsonWriter, constraints: &Constraints) {
        w.key("constraints")
            .object(|w| write_constraints(w, constraints));
        w.field("v", PROTOCOL_VERSION)
            .field("priority", self.priority.as_str());
        if self.stream {
            w.field("stream", true);
        }
        if let Some(tag) = &self.client {
            w.field("client", tag);
        }
    }
}

/// A client-side failure: transport, protocol, or a server-reported
/// error line.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent something that is not valid JSON.
    BadJson(json::JsonError),
    /// The server answered `{"ok": false, …}` or an unexpected shape.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::BadJson(e) => write!(f, "bad server json: {e}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a running server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Streaming event lines read while waiting for a response.
    events: Vec<Value>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Small request lines must not sit in Nagle's buffer waiting
        // for an ACK the server won't send until it sees them.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            events: Vec::new(),
        })
    }

    /// Sends one raw request line and returns the next *response* line
    /// unparsed. `{"event": …}` lines that arrive first (streamed flow
    /// progress) are parsed and buffered into [`Client::take_events`].
    ///
    /// # Errors
    ///
    /// Transport failures, or EOF before a response arrives.
    pub fn request_raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(ClientError::Server("connection closed".to_owned()));
            }
            let trimmed = reply.trim_end_matches(['\n', '\r']);
            if trimmed.is_empty() {
                continue;
            }
            // Event lines interleave with responses on streaming
            // connections; only they carry an "event" key.
            if let Ok(v) = json::parse(trimmed) {
                if v.get("event").is_some() {
                    self.events.push(v);
                    continue;
                }
            }
            return Ok(trimmed.to_owned());
        }
    }

    /// Sends one request line and parses the response, surfacing
    /// `{"ok": false}` as [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// Transport, parse, and server-reported failures.
    pub fn request(&mut self, line: &str) -> Result<Value, ClientError> {
        let raw = self.request_raw(line)?;
        let v = json::parse(&raw).map_err(ClientError::BadJson)?;
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(v),
            _ => Err(ClientError::Server(
                v.get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("missing ok field")
                    .to_owned(),
            )),
        }
    }

    /// Submits a job with explicit [`SubmitOptions`]; returns its id.
    ///
    /// # Errors
    ///
    /// Transport and server-reported failures.
    pub fn submit_with(
        &mut self,
        design_text: &str,
        constraints: &Constraints,
        opts: &SubmitOptions,
    ) -> Result<u64, ClientError> {
        let v = self.request(&request_line("submit", |w| {
            w.field("design", design_text);
            opts.write_fields(w, constraints);
        }))?;
        v.get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Server("submit response missing job id".to_owned()))
    }

    /// Submits N designs as one batch sharing one database snapshot
    /// and one constraint set; returns the member job ids in design
    /// order. Each member is individually `status`/`result`/`cancel`-
    /// able. (`opts.stream` is ignored — batch members don't stream.)
    ///
    /// # Errors
    ///
    /// Transport and server-reported failures.
    pub fn submit_batch(
        &mut self,
        design_texts: &[&str],
        constraints: &Constraints,
        opts: &SubmitOptions,
    ) -> Result<Vec<u64>, ClientError> {
        let v = self.request(&request_line("submit_batch", |w| {
            w.key("designs").array(|w| {
                for text in design_texts {
                    w.value(text);
                }
            });
            opts.write_fields(w, constraints);
        }))?;
        v.get("jobs")
            .and_then(Value::as_array)
            .map(|ids| ids.iter().filter_map(Value::as_u64).collect::<Vec<u64>>())
            .filter(|ids| ids.len() == design_texts.len())
            .ok_or_else(|| ClientError::Server("submit_batch response missing job ids".to_owned()))
    }

    /// Polls a job's state label (`queued` / `running` / `done` / …).
    ///
    /// # Errors
    ///
    /// Transport and server-reported failures.
    pub fn status(&mut self, job: u64) -> Result<String, ClientError> {
        let v = self.request(&job_line("status", job))?;
        v.get("state")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Server("status response missing state".to_owned()))
    }

    /// Blocks until `job` is terminal; returns the raw response line
    /// (byte-exact, for splice comparisons against offline runs).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn result_raw(&mut self, job: u64) -> Result<String, ClientError> {
        self.request_raw(&job_line("result", job))
    }

    /// Blocks until `job` is terminal; returns the parsed response.
    ///
    /// # Errors
    ///
    /// Transport, parse, and server-reported failures.
    pub fn result(&mut self, job: u64) -> Result<Value, ClientError> {
        self.request(&job_line("result", job))
    }

    /// Requests cancellation; `true` when the job was still queued.
    ///
    /// # Errors
    ///
    /// Transport and server-reported failures.
    pub fn cancel(&mut self, job: u64) -> Result<bool, ClientError> {
        let v = self.request(&job_line("cancel", job))?;
        Ok(v.get("cancelled").and_then(Value::as_bool).unwrap_or(false))
    }

    /// Fetches the service counters.
    ///
    /// # Errors
    ///
    /// Transport and server-reported failures.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        let v = self.request(&request_line("stats", |_| {}))?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Server("stats response missing stats".to_owned()))
    }

    /// Drains the server's buffered trace events as a Chrome trace
    /// object (`{"traceEvents": […], …}` — load it in Perfetto or
    /// `chrome://tracing`). Empty unless the server process runs with
    /// tracing enabled.
    ///
    /// # Errors
    ///
    /// Transport and server-reported failures.
    pub fn trace(&mut self) -> Result<Value, ClientError> {
        let v = self.request(&request_line("trace", |_| {}))?;
        v.get("trace")
            .cloned()
            .ok_or_else(|| ClientError::Server("trace response missing trace".to_owned()))
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// Transport and server-reported failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&request_line("shutdown", |_| {})).map(|_| ())
    }

    /// Drains the streamed event lines collected so far.
    pub fn take_events(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.events)
    }
}

/// `{"op": op, …}`: every request line, with `members` writing the op's
/// own members.
fn request_line(op: &str, members: impl FnOnce(&mut JsonWriter)) -> String {
    json_object(|w| {
        w.field("op", op);
        members(w);
    })
}

/// `{"op": op, "job": job}`.
fn job_line(op: &str, job: u64) -> String {
    request_line(op, |w| {
        w.field("job", job);
    })
}
