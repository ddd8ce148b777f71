//! A blocking client for the wire protocol: one [`Client`] wraps one
//! TCP connection and issues requests in lockstep (write a frame, read
//! the response frame).
//!
//! The convenience methods mirror the [`Database`](xsdb::Database)
//! surface one-to-one, so code written against the in-process API
//! ports mechanically:
//!
//! ```no_run
//! use xsserver::client::Client;
//!
//! let mut c = Client::connect("127.0.0.1:7070")?;
//! c.put_schema("greetings", r#"
//!   <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
//!     <xs:element name="greeting" type="xs:string"/>
//!   </xs:schema>"#)?;
//! c.put_doc("hello", "greetings", "<greeting>hello world</greeting>")?;
//! assert_eq!(c.query("hello", "/greeting")?, ["hello world"]);
//! # Ok::<(), xsserver::client::ClientError>(())
//! ```

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    encode_frame, read_frame, write_frame, FrameError, Opcode, Status, NO_FIELD_CAP,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection itself failed (refused, reset, timed out).
    Io(io::Error),
    /// The server answered with a non-OK status.
    Status {
        /// The status code from the response frame.
        status: Status,
        /// The server's human-readable error message.
        message: String,
    },
    /// The response violated the wire protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Status { status, message } => {
                write!(f, "server error {} ({}): {message}", *status as u8, status.name())
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

impl ClientError {
    /// The response's status code, when the failure was a server-side
    /// error (as opposed to a transport or protocol failure).
    pub fn status(&self) -> Option<Status> {
        match self {
            ClientError::Status { status, .. } => Some(*status),
            _ => None,
        }
    }

    /// Whether the failure is worth retrying: the server refused with
    /// [`Status::Busy`] (load shedding at the admission gate), or the
    /// transport failed in a way that resolves on its own — connection
    /// refused/reset/aborted (server restarting, backlog overflow) or
    /// a timeout. Semantic errors (validation failures, unknown names,
    /// protocol violations) are deterministic and never retried.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Status { status, .. } => *status == Status::Busy,
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
            ),
            ClientError::Protocol(_) => false,
        }
    }
}

/// Bounded retry-with-backoff for transient failures
/// ([`ClientError::is_transient`]): up to `retries` extra attempts,
/// sleeping `backoff × attempt` between them (linear backoff — the
/// k-th retry waits k backoff units, so contending clients spread
/// out). `RetryPolicy::default()` performs no retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (0 = fail fast).
    pub retries: u32,
    /// Base delay between attempts; attempt k sleeps `backoff × k`.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// A policy retrying `retries` times with `backoff_ms` base delay.
    pub fn new(retries: u32, backoff_ms: u64) -> RetryPolicy {
        RetryPolicy { retries, backoff: Duration::from_millis(backoff_ms) }
    }

    /// Run `attempt` until it succeeds, fails non-transiently, or the
    /// retry budget is spent. The last error is returned as-is.
    pub fn run<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut tries: u32 = 0;
        loop {
            match attempt() {
                Err(e) if tries < self.retries && e.is_transient() => {
                    tries += 1;
                    std::thread::sleep(self.backoff.saturating_mul(tries));
                }
                other => return other,
            }
        }
    }
}

/// Responses larger than this are rejected client-side as a protocol
/// violation. Generous: a serialized document plus framing.
const CLIENT_MAX_PAYLOAD: usize = 256 * 1024 * 1024;

/// One protocol connection to an `xsd-serve` server.
pub struct Client {
    stream: TcpStream,
    max_payload: usize,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, max_payload: CLIENT_MAX_PAYLOAD })
    }

    /// Connect under a [`RetryPolicy`]: a refused/reset connection — or
    /// a [`Status::Busy`] rejection, which the server delivers in
    /// response to the probe `PING` this method issues — is retried
    /// with backoff up to the policy's budget.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        policy.run(|| {
            let mut client = Client::connect(&addr)?;
            client.ping()?;
            Ok(client)
        })
    }

    /// Connect with a read/write timeout applied to every socket
    /// operation (`None` blocks indefinitely).
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let client = Client::connect(addr)?;
        client.stream.set_read_timeout(timeout)?;
        client.stream.set_write_timeout(timeout)?;
        Ok(client)
    }

    /// Issue one raw request: send `op` with `fields`, await the
    /// response, and return its fields on [`Status::Ok`].
    pub fn request(&mut self, op: Opcode, fields: &[&str]) -> Result<Vec<String>, ClientError> {
        if let Err(e) = write_frame(&mut self.stream, op as u8, fields) {
            // A server refusing the connection (e.g. BUSY at the
            // admission gate) sends its status frame and closes before
            // reading anything, so our write can fail with a broken
            // pipe while the real answer sits in the receive buffer —
            // salvage it so callers see the status, not the EPIPE.
            if let Ok((tag, fields, _)) =
                read_frame(&mut self.stream, self.max_payload, NO_FIELD_CAP)
            {
                if let Some(status) = Status::from_u8(tag) {
                    if !status.is_ok() {
                        return Err(ClientError::Status { status, message: fields.join("; ") });
                    }
                }
            }
            return Err(ClientError::Io(e));
        }
        // Responses carry one field per result (QUERY match, LIST
        // entry, VALIDATE violation), so no field-count cap applies —
        // the payload-size cap bounds them structurally.
        let (tag, fields, _) = read_frame(&mut self.stream, self.max_payload, NO_FIELD_CAP)?;
        match Status::from_u8(tag) {
            Some(status) if status.is_ok() => Ok(fields),
            Some(status) => Err(ClientError::Status { status, message: fields.join("; ") }),
            None => Err(ClientError::Protocol(format!("unknown status code 0x{tag:02x}"))),
        }
    }

    /// Give up the protocol wrapper and return the raw TCP stream —
    /// for tests and tools that need to watch the wire directly (e.g.
    /// waiting for the server's shutdown goodbye frame on an otherwise
    /// idle connection).
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }

    /// Issue a pipelined batch: encode every request, write them all
    /// back-to-back in one burst, then read the responses, which the
    /// server returns strictly in request order however many it works
    /// on concurrently.
    ///
    /// Per-request failures (a non-OK status) come back in the
    /// corresponding slot of the result vector; a transport or framing
    /// failure aborts the whole batch, because once the stream is torn
    /// the remaining responses can never arrive.
    pub fn pipeline(
        &mut self,
        requests: &[(Opcode, Vec<String>)],
    ) -> Result<Vec<Result<Vec<String>, ClientError>>, ClientError> {
        use std::io::Write;
        let mut burst = Vec::new();
        for (op, fields) in requests {
            let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
            let (header, payload) = encode_frame(*op as u8, &refs)?;
            burst.extend_from_slice(&header);
            burst.extend_from_slice(&payload);
        }
        self.stream.write_all(&burst)?;
        self.stream.flush()?;
        let mut out = Vec::with_capacity(requests.len());
        for _ in requests {
            let (tag, fields, _) = read_frame(&mut self.stream, self.max_payload, NO_FIELD_CAP)?;
            out.push(match Status::from_u8(tag) {
                Some(status) if status.is_ok() => Ok(fields),
                Some(status) => Err(ClientError::Status { status, message: fields.join("; ") }),
                None => Err(ClientError::Protocol(format!("unknown status code 0x{tag:02x}"))),
            });
        }
        Ok(out)
    }

    /// Liveness check; the server answers `pong`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(Opcode::Ping, &[]).map(|_| ())
    }

    /// Register a schema under `name`
    /// ([`Database::register_schema_text`](xsdb::Database::register_schema_text)).
    pub fn put_schema(&mut self, name: &str, xsd: &str) -> Result<(), ClientError> {
        self.request(Opcode::PutSchema, &[name, xsd]).map(|_| ())
    }

    /// Remove schema `name`; refused while documents still reference it
    /// ([`Database::remove_schema`](xsdb::Database::remove_schema)).
    pub fn del_schema(&mut self, name: &str) -> Result<(), ClientError> {
        self.request(Opcode::DelSchema, &[name]).map(|_| ())
    }

    /// Validate `xml` against `schema` and insert it as `doc`
    /// ([`Database::insert`](xsdb::Database::insert)).
    pub fn put_doc(&mut self, doc: &str, schema: &str, xml: &str) -> Result<(), ClientError> {
        self.request(Opcode::PutDoc, &[doc, schema, xml]).map(|_| ())
    }

    /// Delete document `doc` ([`Database::delete`](xsdb::Database::delete)).
    pub fn del_doc(&mut self, doc: &str) -> Result<(), ClientError> {
        self.request(Opcode::DelDoc, &[doc]).map(|_| ())
    }

    /// Validate `xml` against `schema` without inserting; returns one
    /// rendered violation per field (empty means valid)
    /// ([`Database::validate`](xsdb::Database::validate)).
    pub fn validate(&mut self, schema: &str, xml: &str) -> Result<Vec<String>, ClientError> {
        self.request(Opcode::Validate, &[schema, xml])
    }

    /// Evaluate an XPath over `doc`, returning string values
    /// ([`Database::query`](xsdb::Database::query)).
    pub fn query(&mut self, doc: &str, xpath: &str) -> Result<Vec<String>, ClientError> {
        self.request(Opcode::Query, &[doc, xpath])
    }

    /// Evaluate an XQuery over `doc`, returning the serialized result
    /// ([`Database::xquery`](xsdb::Database::xquery)).
    pub fn xquery(&mut self, doc: &str, query: &str) -> Result<String, ClientError> {
        self.request(Opcode::Xquery, &[doc, query])
            .map(|f| f.into_iter().next().unwrap_or_default())
    }

    /// Plan, execute, and explain an XPath over `doc`, returning the
    /// plan text with estimated vs. actual cardinalities
    /// ([`Database::explain_query`](xsdb::Database::explain_query)).
    pub fn explain(&mut self, doc: &str, xpath: &str) -> Result<String, ClientError> {
        self.request(Opcode::Explain, &[doc, xpath])
            .map(|f| f.into_iter().next().unwrap_or_default())
    }

    /// Parse and run one XQuery-Update-lite expression under the static
    /// type-check ([`Database::execute_update`](xsdb::Database::execute_update))
    /// — the only way to change a stored document's content. A
    /// statically rejected update fails with
    /// [`Status::UpdateStaticallyInvalid`] without touching the
    /// document.
    pub fn update(&mut self, doc: &str, update: &str) -> Result<UpdateReport, ClientError> {
        let out = self.request(Opcode::Update, &[doc, update])?;
        parse_update_report(&out)
    }

    /// The catalog: `schema:<name>` and `doc:<name>` entries.
    pub fn list(&mut self) -> Result<Vec<String>, ClientError> {
        self.request(Opcode::List, &[])
    }

    /// The server's metrics snapshot as JSON (the stable `xsobs`
    /// export).
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        self.request(Opcode::Stats, &[]).map(|f| f.into_iter().next().unwrap_or_default())
    }

    /// Ask the server to commit a persistence save now. Fails with
    /// [`Status::Unsupported`] when the server runs without a
    /// persistence directory.
    pub fn save(&mut self) -> Result<(), ClientError> {
        self.request(Opcode::Save, &[]).map(|_| ())
    }
}

/// What a statically checked update reported back: the verdict it ran
/// under (`"accept"` or `"recheck"` — a `"reject"` surfaces as
/// [`Status::UpdateStaticallyInvalid`] instead), the number of nodes
/// touched, and how many content models were revalidated afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// `"accept"` or `"recheck"`.
    pub verdict: String,
    /// Nodes the update touched.
    pub nodes: usize,
    /// Content models revalidated after the edit (0 under accept).
    pub revalidated: usize,
}

fn parse_update_report(fields: &[String]) -> Result<UpdateReport, ClientError> {
    let [verdict, nodes, revalidated] = fields else {
        return Err(ClientError::Protocol(format!(
            "update response must carry [verdict, nodes, revalidated], got {} field(s)",
            fields.len()
        )));
    };
    let parse = |s: &String| {
        s.parse::<usize>()
            .map_err(|_| ClientError::Protocol(format!("update count was not a number: {s:?}")))
    };
    Ok(UpdateReport {
        verdict: verdict.clone(),
        nodes: parse(nodes)?,
        revalidated: parse(revalidated)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy() -> ClientError {
        ClientError::Status { status: Status::Busy, message: "busy".to_string() }
    }

    #[test]
    fn transient_failures_are_retried_up_to_the_budget() {
        let policy = RetryPolicy::new(3, 0);
        let mut attempts = 0;
        let out: Result<u32, _> = policy.run(|| {
            attempts += 1;
            if attempts < 3 {
                Err(busy())
            } else {
                Ok(attempts)
            }
        });
        assert_eq!(out.unwrap(), 3);

        // Budget exhausted: 1 initial try + `retries` more, then the
        // last error surfaces unchanged.
        let mut attempts = 0;
        let out: Result<(), _> = policy.run(|| {
            attempts += 1;
            Err(busy())
        });
        assert_eq!(attempts, 4);
        assert_eq!(out.unwrap_err().status(), Some(Status::Busy));
    }

    #[test]
    fn deterministic_errors_fail_fast() {
        let policy = RetryPolicy::new(5, 0);
        let mut attempts = 0;
        let out: Result<(), _> = policy.run(|| {
            attempts += 1;
            Err(ClientError::Status {
                status: Status::UnknownDocument,
                message: "no such doc".to_string(),
            })
        });
        assert_eq!(attempts, 1, "semantic errors must not be retried");
        assert_eq!(out.unwrap_err().status(), Some(Status::UnknownDocument));

        let mut attempts = 0;
        let out: Result<(), _> = policy.run(|| {
            attempts += 1;
            Err(ClientError::Protocol("garbled".to_string()))
        });
        assert_eq!(attempts, 1);
        assert!(matches!(out, Err(ClientError::Protocol(_))));
    }

    #[test]
    fn transient_classification() {
        assert!(busy().is_transient());
        assert!(ClientError::Io(io::Error::from(io::ErrorKind::ConnectionRefused)).is_transient());
        assert!(ClientError::Io(io::Error::from(io::ErrorKind::TimedOut)).is_transient());
        assert!(!ClientError::Io(io::Error::from(io::ErrorKind::PermissionDenied)).is_transient());
        assert!(!ClientError::Protocol("x".to_string()).is_transient());
        let semantic = ClientError::Status { status: Status::Invalid, message: String::new() };
        assert!(!semantic.is_transient());
    }

    #[test]
    fn zero_retry_policy_is_fail_fast() {
        let policy = RetryPolicy::default();
        let mut attempts = 0;
        let out: Result<(), _> = policy.run(|| {
            attempts += 1;
            Err(busy())
        });
        assert_eq!(attempts, 1);
        assert!(out.is_err());
    }
}
