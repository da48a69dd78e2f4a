//! tracond wire protocol: typed requests/replies and their JSON codec.
//!
//! Each TCP connection carries newline-delimited JSON documents. Every
//! request names the protocol version (`"v":2`; any other is refused
//! with a `bad_version` error) and may carry a client request id, which
//! the daemon echoes verbatim in the matching reply so pipelined clients
//! can correlate responses. Decoding is total: any line — malformed JSON,
//! wrong version, unknown op, missing field — maps to a structured
//! [`Reply::Error`], never a panic or a dropped connection.
//!
//! The value under a key the op does not name is checked to be JSON and
//! dropped. That includes `demand`, which older clients attach to a
//! `submit`: the scheduler prices interference from the profiled
//! characteristics alone, so any `demand` value gets the reply its
//! absence would.

use std::fmt::{self, Write as _};

use crate::json::{self, n, Quoted, Value};

/// The protocol version this daemon speaks: the only one a request may
/// name, and the one replies are encoded at.
pub const PROTOCOL_VERSION: u64 = 2;

/// A client request, after the envelope (version + id) has been peeled off.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit one task of the named application for placement.
    Submit {
        /// Profiled application name (e.g. `"video"`).
        app: String,
        /// Always `None`: the wire drops a `demand` key, and no value of
        /// this type exists. The field stays until the benchmark harness
        /// stops building `Request` literals (ROADMAP item 11).
        demand: Option<std::convert::Infallible>,
    },
    /// Report that a previously placed task finished, feeding the live
    /// model monitor.
    Complete {
        /// Server-assigned task id from the submit reply.
        task: u64,
        /// Measured wall-clock runtime in seconds.
        runtime: f64,
        /// Measured average IOPS over the task's lifetime.
        iops: f64,
    },
    /// Ask for daemon-wide counters and queue state.
    Status,
    /// Ask for the state of one task.
    TaskInfo {
        /// Server-assigned task id.
        task: u64,
    },
    /// Stop admitting work; the daemon exits once in-flight work drains.
    Drain,
    /// Stop immediately, abandoning queued and running tasks.
    Shutdown,
    /// Replication: a follower asks the leader for WAL frames past its
    /// cursor on one shard. Served inline by the reactor, never routed to
    /// a scheduler shard.
    ReplPull {
        /// Highest leader epoch the follower has observed. A pull carrying
        /// a *newer* epoch than the receiver's own fences the receiver.
        epoch: u64,
        /// WAL shard the cursor addresses.
        shard: usize,
        /// Index of the next frame the follower wants (0-based, monotone
        /// over the leader's shipped history for that shard).
        cursor: u64,
        /// The follower's own protocol address, echoed into `not_leader`
        /// hints once the follower promotes.
        addr: String,
        /// The follower's promotion TTL in milliseconds (0 = unknown).
        /// The leader suspends its own writes after this long without a
        /// pull, so the two lease clocks agree on the failover window.
        ttl_ms: u64,
    },
    /// Replication: a newly promoted leader fences its predecessor.
    ReplLease {
        /// The claimant's epoch; receivers with an older epoch step down.
        epoch: u64,
        /// Protocol address of the claimant, for redirect hints.
        leader_addr: String,
    },
    /// Control: arm, disarm, or inspect the daemon's fault-injection
    /// registry (see [`crate::failpoint`]). Served inline by the reactor
    /// and honored on every node regardless of role — chaos harnesses
    /// must be able to torment followers too.
    Fail {
        /// `"arm"`, `"disarm"`, or `"status"`.
        action: String,
        /// Failpoint spec for `arm` (grammar:
        /// `site[@scope]=action[*count][%permille];…`).
        spec: Option<String>,
    },
}

/// A request together with its echoed client id.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen request id, echoed in the reply. `None` if omitted.
    pub id: Option<String>,
    /// The decoded request.
    pub request: Request,
}

/// Machine-readable error categories carried in `error.kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a valid request document.
    Malformed,
    /// The request named a protocol version this daemon does not speak.
    BadVersion,
    /// The `op` field named no known operation.
    UnknownOp,
    /// A required field was missing or had the wrong type.
    BadField,
    /// The admission queue is full; retry after `retry_after_ms`.
    Backpressure,
    /// The daemon is draining and admits no new work.
    Draining,
    /// The submitted application name was never profiled.
    UnknownApp,
    /// The task id names no known task.
    UnknownTask,
    /// The request line exceeded the daemon's frame bound; the rest of
    /// the line is discarded but the connection stays open.
    FrameTooLarge,
    /// This node is not the replication leader; mutating requests carry a
    /// `leader_addr`/`epoch` hint naming where to go instead.
    NotLeader,
}

impl ErrorKind {
    /// The wire spelling of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::BadVersion => "bad-version",
            ErrorKind::UnknownOp => "unknown-op",
            ErrorKind::BadField => "bad-field",
            ErrorKind::Backpressure => "backpressure",
            ErrorKind::Draining => "draining",
            ErrorKind::UnknownApp => "unknown-app",
            ErrorKind::UnknownTask => "unknown-task",
            ErrorKind::FrameTooLarge => "frame-too-large",
            ErrorKind::NotLeader => "not-leader",
        }
    }

    /// Inverse of [`ErrorKind::as_str`].
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Option<ErrorKind> {
        Some(match text {
            "malformed" => ErrorKind::Malformed,
            "bad-version" => ErrorKind::BadVersion,
            "unknown-op" => ErrorKind::UnknownOp,
            "bad-field" => ErrorKind::BadField,
            "backpressure" => ErrorKind::Backpressure,
            "draining" => ErrorKind::Draining,
            "unknown-app" => ErrorKind::UnknownApp,
            "unknown-task" => ErrorKind::UnknownTask,
            "frame-too-large" => ErrorKind::FrameTooLarge,
            "not-leader" => ErrorKind::NotLeader,
            _ => return None,
        })
    }
}

/// Redirect hint carried by [`ErrorKind::NotLeader`] errors: where the
/// current leader (as far as the refusing node knows) lives, and at what
/// epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaderHint {
    /// Protocol address of the believed leader. `None` when the node is
    /// fenced but has not yet heard who outranked it.
    pub leader_addr: Option<String>,
    /// The refusing node's view of the current replication epoch.
    pub epoch: u64,
}

/// A daemon reply, one line on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Success; `result` is op-specific.
    Ok {
        /// Echoed client request id.
        id: Option<String>,
        /// Op-specific payload.
        result: Value,
    },
    /// Failure with a machine-readable kind.
    Error {
        /// Echoed client request id (`None` when the line was unparseable).
        id: Option<String>,
        /// Error category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// Backpressure hint: retry after this many milliseconds.
        retry_after_ms: Option<u64>,
        /// `not_leader` redirect hint; `None` for every other kind.
        leader: Option<LeaderHint>,
    },
}

impl Reply {
    /// Build a success reply.
    pub fn ok(id: Option<String>, result: Value) -> Reply {
        Reply::Ok { id, result }
    }

    /// Build an error reply without a retry hint.
    pub fn error(id: Option<String>, kind: ErrorKind, message: impl Into<String>) -> Reply {
        Reply::Error {
            id,
            kind,
            message: message.into(),
            retry_after_ms: None,
            leader: None,
        }
    }

    /// Build a backpressure rejection with a retry hint.
    pub fn backpressure(
        id: Option<String>,
        message: impl Into<String>,
        retry_after_ms: u64,
    ) -> Reply {
        Reply::Error {
            id,
            kind: ErrorKind::Backpressure,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
            leader: None,
        }
    }

    /// Build a `not_leader` refusal pointing the client at the believed
    /// leader.
    pub fn not_leader(id: Option<String>, leader_addr: Option<String>, epoch: u64) -> Reply {
        let target = leader_addr.as_deref().unwrap_or("unknown");
        Reply::Error {
            id,
            kind: ErrorKind::NotLeader,
            message: format!("this node is not the leader (epoch {epoch}, try {target})"),
            retry_after_ms: None,
            leader: Some(LeaderHint { leader_addr, epoch }),
        }
    }
}

/// `"v"` as every line carries it.
const VERSION: Value = Value::Num(PROTOCOL_VERSION as f64);

/// Bytes every line starts with. Each reply a shard answers fits, and so
/// does a `status`; a `repl_pull` chunk (up to 256 WAL frames, or a whole
/// snapshot) outgrows it and the `String` grows as it is written.
const LINE_CAPACITY: usize = 1024;

/// Render `line` in one formatting pass; a line that fits
/// `LINE_CAPACITY` is one allocation.
fn render(line: impl fmt::Display) -> String {
    let mut out = String::with_capacity(LINE_CAPACITY);
    let _ = write!(out, "{line}");
    out
}

/// The echoed client id: its JSON string, or `null` when there is none.
struct Id<'a>(&'a Option<String>);

impl fmt::Display for Id<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(text) => Quoted(text).fmt(f),
            None => f.write_str("null"),
        }
    }
}

/// A request envelope as one JSON object, written around the strings it
/// borrows: `v`, `id`, `op`, then the op's fields in a fixed order.
struct RequestLine<'a>(&'a Envelope);

impl fmt::Display for RequestLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{\"v\":{VERSION},\"id\":{}", Id(&self.0.id))?;
        match &self.0.request {
            Request::Submit { app, .. } => write!(f, ",\"op\":\"submit\",\"app\":{}", Quoted(app))?,
            Request::Complete {
                task,
                runtime,
                iops,
            } => write!(
                f,
                ",\"op\":\"complete\",\"task\":{},\"runtime\":{},\"iops\":{}",
                n(*task as f64),
                n(*runtime),
                n(*iops)
            )?,
            Request::Status => f.write_str(",\"op\":\"status\"")?,
            Request::TaskInfo { task } => {
                write!(f, ",\"op\":\"task\",\"task\":{}", n(*task as f64))?
            }
            Request::Drain => f.write_str(",\"op\":\"drain\"")?,
            Request::Shutdown => f.write_str(",\"op\":\"shutdown\"")?,
            Request::ReplPull {
                epoch,
                shard,
                cursor,
                addr,
                ttl_ms,
            } => {
                write!(
                    f,
                    ",\"op\":\"repl_pull\",\"epoch\":{},\"shard\":{},\"cursor\":{},\"addr\":{}",
                    n(*epoch as f64),
                    n(*shard as f64),
                    n(*cursor as f64),
                    Quoted(addr)
                )?;
                if *ttl_ms > 0 {
                    write!(f, ",\"ttl_ms\":{}", n(*ttl_ms as f64))?;
                }
            }
            Request::ReplLease { epoch, leader_addr } => write!(
                f,
                ",\"op\":\"repl_lease\",\"epoch\":{},\"leader_addr\":{}",
                n(*epoch as f64),
                Quoted(leader_addr)
            )?,
            Request::Fail { action, spec } => {
                write!(f, ",\"op\":\"fail\",\"action\":{}", Quoted(action))?;
                if let Some(spec) = spec {
                    write!(f, ",\"spec\":{}", Quoted(spec))?;
                }
            }
        }
        f.write_str("}")
    }
}

/// Encode a request envelope as one wire line (no trailing newline).
pub fn encode_request(envelope: &Envelope) -> String {
    render(RequestLine(envelope))
}

/// A decode failure, carrying everything needed to build the error reply.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodeError {
    /// Echoed id when the envelope was parseable enough to recover one.
    pub id: Option<String>,
    /// Error category (`Malformed`, `BadVersion`, `UnknownOp`, `BadField`).
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl DecodeError {
    /// Turn this failure into the error reply the daemon writes back.
    pub fn into_reply(self) -> Reply {
        Reply::error(self.id, self.kind, self.message)
    }
}

/// The first value under each key a request may carry, as `Value::get`
/// would find it in the whole document; every other field is dropped.
#[derive(Default)]
struct Fields {
    v: Option<Value>,
    id: Option<Value>,
    op: Option<Value>,
    app: Option<Value>,
    task: Option<Value>,
    runtime: Option<Value>,
    iops: Option<Value>,
    epoch: Option<Value>,
    shard: Option<Value>,
    cursor: Option<Value>,
    addr: Option<Value>,
    ttl_ms: Option<Value>,
    leader_addr: Option<Value>,
    action: Option<Value>,
    spec: Option<Value>,
}

impl Fields {
    fn keep(&mut self, key: &str, value: Value) {
        let slot = match key {
            "v" => &mut self.v,
            "id" => &mut self.id,
            "op" => &mut self.op,
            "app" => &mut self.app,
            "task" => &mut self.task,
            "runtime" => &mut self.runtime,
            "iops" => &mut self.iops,
            "epoch" => &mut self.epoch,
            "shard" => &mut self.shard,
            "cursor" => &mut self.cursor,
            "addr" => &mut self.addr,
            "ttl_ms" => &mut self.ttl_ms,
            "leader_addr" => &mut self.leader_addr,
            "action" => &mut self.action,
            "spec" => &mut self.spec,
            _ => return,
        };
        slot.get_or_insert(value);
    }
}

/// The text of a string value; `None` if absent or not a string.
fn into_string(value: Option<Value>) -> Option<String> {
    match value {
        Some(Value::Str(text)) => Some(text),
        _ => None,
    }
}

fn field_u64(value: Option<&Value>, id: &Option<String>, key: &str) -> Result<u64, DecodeError> {
    value.and_then(Value::as_u64).ok_or_else(|| DecodeError {
        id: id.clone(),
        kind: ErrorKind::BadField,
        message: format!("missing or invalid '{key}' (expected non-negative integer)"),
    })
}

fn field_f64(value: Option<&Value>, id: &Option<String>, key: &str) -> Result<f64, DecodeError> {
    match value.and_then(Value::as_f64) {
        Some(v) if v.is_finite() => Ok(v),
        _ => Err(DecodeError {
            id: id.clone(),
            kind: ErrorKind::BadField,
            message: format!("missing or invalid '{key}' (expected finite number)"),
        }),
    }
}

/// The non-empty string in `slot`, moved out.
fn field_name(
    slot: &mut Option<Value>,
    id: &Option<String>,
    key: &str,
) -> Result<String, DecodeError> {
    match into_string(slot.take()) {
        Some(text) if !text.is_empty() => Ok(text),
        _ => Err(DecodeError {
            id: id.clone(),
            kind: ErrorKind::BadField,
            message: format!("missing or invalid '{key}' (expected non-empty string)"),
        }),
    }
}

/// Decode one wire line into a request envelope.
///
/// The line is validated whole, then its fields are checked in a fixed
/// order: `id`, `v`, `op`, then the op's own fields. The id is recovered
/// on a best-effort basis so that even a request with a bad version or
/// unknown op gets an error reply the client can correlate. The document
/// is never built as a tree: each known field keeps its first value and
/// `id`, `app` and the other strings move into the envelope.
pub fn decode_request(line: &str) -> Result<Envelope, DecodeError> {
    let mut doc = Fields::default();
    let object =
        json::parse_fields(line, |key, value| doc.keep(&key, value)).map_err(|e| DecodeError {
            id: None,
            kind: ErrorKind::Malformed,
            message: format!("invalid JSON: {e}"),
        })?;
    if !object {
        return Err(DecodeError {
            id: None,
            kind: ErrorKind::Malformed,
            message: "request must be a JSON object".to_string(),
        });
    }
    let id = into_string(doc.id.take());
    match doc.v.as_ref().and_then(Value::as_u64) {
        Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            return Err(DecodeError {
                id,
                kind: ErrorKind::BadVersion,
                message: format!(
                    "unsupported protocol version {other} (daemon speaks {PROTOCOL_VERSION})"
                ),
            })
        }
        None => {
            return Err(DecodeError {
                id,
                kind: ErrorKind::BadVersion,
                message: "missing protocol version field 'v'".to_string(),
            })
        }
    }
    let Some(op) = doc.op.as_ref().and_then(Value::as_str) else {
        return Err(DecodeError {
            id,
            kind: ErrorKind::BadField,
            message: "missing or invalid 'op' (expected string)".to_string(),
        });
    };
    let request = match op {
        "submit" => Request::Submit {
            app: field_name(&mut doc.app, &id, "app")?,
            demand: None,
        },
        "complete" => Request::Complete {
            task: field_u64(doc.task.as_ref(), &id, "task")?,
            runtime: field_f64(doc.runtime.as_ref(), &id, "runtime")?,
            iops: field_f64(doc.iops.as_ref(), &id, "iops")?,
        },
        "status" => Request::Status,
        "task" => Request::TaskInfo {
            task: field_u64(doc.task.as_ref(), &id, "task")?,
        },
        "drain" => Request::Drain,
        "shutdown" => Request::Shutdown,
        "repl_pull" => Request::ReplPull {
            epoch: field_u64(doc.epoch.as_ref(), &id, "epoch")?,
            shard: field_u64(doc.shard.as_ref(), &id, "shard")? as usize,
            cursor: field_u64(doc.cursor.as_ref(), &id, "cursor")?,
            addr: field_name(&mut doc.addr, &id, "addr")?,
            // Optional: pulls from pre-TTL-aware followers carry no hint.
            ttl_ms: doc.ttl_ms.as_ref().and_then(Value::as_u64).unwrap_or(0),
        },
        "repl_lease" => Request::ReplLease {
            epoch: field_u64(doc.epoch.as_ref(), &id, "epoch")?,
            leader_addr: field_name(&mut doc.leader_addr, &id, "leader_addr")?,
        },
        "fail" => {
            let action = match into_string(doc.action.take()) {
                Some(a) if matches!(a.as_str(), "arm" | "disarm" | "status") => a,
                _ => {
                    return Err(DecodeError {
                        id,
                        kind: ErrorKind::BadField,
                        message: "missing or invalid 'action' (expected arm|disarm|status)"
                            .to_string(),
                    })
                }
            };
            let spec = into_string(doc.spec.take());
            if action == "arm" && spec.is_none() {
                return Err(DecodeError {
                    id,
                    kind: ErrorKind::BadField,
                    message: "'arm' requires a 'spec' string".to_string(),
                });
            }
            Request::Fail { action, spec }
        }
        other => {
            return Err(DecodeError {
                id,
                kind: ErrorKind::UnknownOp,
                message: format!("unknown op '{other}'"),
            })
        }
    };
    Ok(Envelope { id, request })
}

/// What a success reply writes before its result: `v`, `id`, `ok` and
/// the `result` key.
struct OkPrefix<'a>(&'a Option<String>);

impl fmt::Display for OkPrefix<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{\"v\":")?;
        VERSION.fmt(f)?;
        f.write_str(",\"id\":")?;
        Id(self.0).fmt(f)?;
        f.write_str(",\"ok\":true,\"result\":")
    }
}

/// A reply as one JSON object, written around its borrowed result or
/// error fields: `v`, `id`, `ok`, then `result` or `error`.
struct ReplyLine<'a>(&'a Reply);

impl fmt::Display for ReplyLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Reply::Ok { id, result } => write!(f, "{}{result}}}", OkPrefix(id)),
            Reply::Error {
                id,
                kind,
                message,
                retry_after_ms,
                leader,
            } => {
                write!(
                    f,
                    "{{\"v\":{VERSION},\"id\":{},\"ok\":false,\"error\":{{\"kind\":{},\"message\":{}",
                    Id(id),
                    Quoted(kind.as_str()),
                    Quoted(message)
                )?;
                if let Some(ms) = retry_after_ms {
                    write!(f, ",\"retry_after_ms\":{}", n(*ms as f64))?;
                }
                if let Some(hint) = leader {
                    if let Some(addr) = &hint.leader_addr {
                        write!(f, ",\"leader_addr\":{}", Quoted(addr))?;
                    }
                    write!(f, ",\"epoch\":{}", n(hint.epoch as f64))?;
                }
                f.write_str("}}")
            }
        }
    }
}

/// Encode a reply as one wire line (no trailing newline), in one
/// allocation: the returned line.
pub fn encode_reply(reply: &Reply) -> String {
    render(ReplyLine(reply))
}

/// A success reply written straight into its line, one result field at
/// a time, with no `Value` built for the result: the bytes
/// `encode_reply(&Reply::ok(id, obj(fields)))` writes, in one allocation
/// while the line fits `LINE_CAPACITY`. Write numbers as `n(x)`, strings
/// as `Quoted(text)`; keys are plain identifiers, written as they are.
pub(crate) struct ResultLine {
    line: String,
    empty: bool,
}

impl ResultLine {
    /// Start the reply echoing `id`.
    pub(crate) fn new(id: &Option<String>) -> ResultLine {
        let mut line = render(OkPrefix(id));
        line.push('{');
        ResultLine { line, empty: true }
    }

    /// Write the next result field. `key` needs no escape (checked in
    /// debug builds), so it is copied as it is: a `write!` per key costs
    /// more than the rest of a small field.
    pub(crate) fn field(&mut self, key: &str, value: impl fmt::Display) -> &mut ResultLine {
        debug_assert!(key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'));
        if !self.empty {
            self.line.push(',');
        }
        self.empty = false;
        self.line.push('"');
        self.line.push_str(key);
        self.line.push_str("\":");
        let _ = write!(self.line, "{value}");
        self
    }

    /// Close the result and the reply; the line, without a newline.
    pub(crate) fn finish(mut self) -> String {
        self.line.push_str("}}");
        self.line
    }
}

/// A list of strings as a JSON array.
pub(crate) struct Strings<'a>(pub(crate) &'a [String]);

impl fmt::Display for Strings<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, text) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            Quoted(text).fmt(f)?;
        }
        f.write_str("]")
    }
}

/// Decode a reply line, used by the client and the loopback tests. The
/// result and error fields move out of the parsed document, uncopied.
pub fn decode_reply(line: &str) -> Result<Reply, String> {
    let mut doc = json::parse(line).map_err(|e| format!("invalid reply JSON: {e}"))?;
    let id = into_string(doc.take("id"));
    match doc.get("ok").and_then(Value::as_bool) {
        Some(true) => {
            let result = doc.take("result").unwrap_or(Value::Null);
            Ok(Reply::Ok { id, result })
        }
        Some(false) => {
            let mut error = doc
                .take("error")
                .ok_or_else(|| "error reply without 'error' object".to_string())?;
            let kind = error
                .get("kind")
                .and_then(Value::as_str)
                .and_then(ErrorKind::from_str)
                .ok_or_else(|| "error reply with unknown 'kind'".to_string())?;
            let message = into_string(error.take("message")).unwrap_or_default();
            let retry_after_ms = error.get("retry_after_ms").and_then(Value::as_u64);
            let leader = error
                .get("epoch")
                .and_then(Value::as_u64)
                .map(|epoch| LeaderHint {
                    leader_addr: into_string(error.take("leader_addr")),
                    epoch,
                });
            Ok(Reply::Error {
                id,
                kind,
                message,
                retry_after_ms,
                leader,
            })
        }
        None => Err("reply without boolean 'ok' field".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_roundtrip() {
        let envelope = Envelope {
            id: Some("c3-17".to_string()),
            request: Request::Submit {
                app: "video".to_string(),
                demand: None,
            },
        };
        let line = encode_request(&envelope);
        assert!(!line.contains("demand"), "legacy submit stays lean: {line}");
        assert_eq!(decode_request(&line).unwrap(), envelope);
    }

    #[test]
    fn any_demand_decodes_like_a_submit_without_one() {
        let bare = decode_request("{\"v\":2,\"op\":\"submit\",\"app\":\"a\"}").unwrap();
        for demand in [
            "{\"tape\":1}",
            "{\"disk\":-4}",
            "{\"cpu\":\"1\"}",
            "7",
            "null",
            "{\"disk\":1,\"disk\":2}",
        ] {
            let line = format!("{{\"v\":2,\"op\":\"submit\",\"app\":\"a\",\"demand\":{demand}}}");
            assert_eq!(decode_request(&line), Ok(bare.clone()), "{line}");
        }
    }

    #[test]
    fn complete_roundtrip_preserves_measurements() {
        let envelope = Envelope {
            id: None,
            request: Request::Complete {
                task: 42,
                runtime: 3.75,
                iops: 188.5,
            },
        };
        let line = encode_request(&envelope);
        assert_eq!(decode_request(&line).unwrap(), envelope);
    }

    #[test]
    fn malformed_line_yields_structured_error() {
        let e = decode_request("not json at all").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Malformed);
        assert_eq!(e.id, None);
        let reply = e.into_reply();
        let line = encode_reply(&reply);
        assert_eq!(decode_reply(&line).unwrap(), reply);
    }

    #[test]
    fn version_mismatch_recovers_id() {
        // Version 1 included: nothing in the repo speaks it any more.
        for line in [
            "{\"v\":9,\"id\":\"x-1\",\"op\":\"status\"}",
            "{\"v\":1,\"id\":\"x-1\",\"op\":\"submit\",\"app\":\"video\"}",
        ] {
            let e = decode_request(line).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadVersion, "{line}");
            assert_eq!(e.id.as_deref(), Some("x-1"), "{line}");
        }
    }

    #[test]
    fn unknown_op_and_missing_fields() {
        let e = decode_request("{\"v\":2,\"op\":\"frobnicate\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::UnknownOp);
        let e = decode_request("{\"v\":2,\"op\":\"submit\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadField);
        let e =
            decode_request("{\"v\":2,\"op\":\"complete\",\"task\":1,\"runtime\":1.0}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadField);
    }

    #[test]
    fn backpressure_reply_carries_retry_hint() {
        let reply = Reply::backpressure(Some("q-9".to_string()), "queue full (cap 4)", 120);
        let line = encode_reply(&reply);
        assert!(line.contains("\"retry_after_ms\":120"), "{line}");
        assert_eq!(decode_reply(&line).unwrap(), reply);
    }

    #[test]
    fn error_kind_wire_names_roundtrip() {
        for kind in [
            ErrorKind::Malformed,
            ErrorKind::BadVersion,
            ErrorKind::UnknownOp,
            ErrorKind::BadField,
            ErrorKind::Backpressure,
            ErrorKind::Draining,
            ErrorKind::UnknownApp,
            ErrorKind::UnknownTask,
            ErrorKind::FrameTooLarge,
            ErrorKind::NotLeader,
        ] {
            assert_eq!(ErrorKind::from_str(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_str("nope"), None);
    }

    #[test]
    fn repl_requests_roundtrip() {
        for request in [
            Request::ReplPull {
                epoch: 3,
                shard: 1,
                cursor: 4096,
                addr: "127.0.0.1:7431".to_string(),
                ttl_ms: 1_200,
            },
            Request::ReplPull {
                epoch: 3,
                shard: 0,
                cursor: 0,
                addr: "127.0.0.1:7431".to_string(),
                // Unknown TTL must survive the roundtrip as 0 (the field
                // is omitted on the wire).
                ttl_ms: 0,
            },
            Request::ReplLease {
                epoch: 4,
                leader_addr: "127.0.0.1:7432".to_string(),
            },
        ] {
            let envelope = Envelope {
                id: Some("r-1".to_string()),
                request,
            };
            let line = encode_request(&envelope);
            assert_eq!(decode_request(&line).unwrap(), envelope);
        }
        let e =
            decode_request("{\"v\":2,\"op\":\"repl_pull\",\"epoch\":1,\"shard\":0,\"cursor\":0}")
                .unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadField);
        let e = decode_request("{\"v\":2,\"op\":\"repl_lease\",\"epoch\":1}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadField);
    }

    #[test]
    fn fail_verb_roundtrips_and_validates() {
        for request in [
            Request::Fail {
                action: "arm".to_string(),
                spec: Some("wal.append.sync=err*3;seed=7".to_string()),
            },
            Request::Fail {
                action: "disarm".to_string(),
                spec: None,
            },
            Request::Fail {
                action: "status".to_string(),
                spec: None,
            },
        ] {
            let envelope = Envelope { id: None, request };
            let line = encode_request(&envelope);
            assert_eq!(decode_request(&line).unwrap(), envelope);
        }
        let e = decode_request("{\"v\":2,\"op\":\"fail\",\"action\":\"explode\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadField);
        let e = decode_request("{\"v\":2,\"op\":\"fail\",\"action\":\"arm\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadField);
    }

    #[test]
    fn not_leader_reply_carries_redirect_hint() {
        let reply = Reply::not_leader(Some("s-2".to_string()), Some("127.0.0.1:7431".into()), 7);
        let line = encode_reply(&reply);
        assert!(
            line.contains("\"leader_addr\":\"127.0.0.1:7431\""),
            "{line}"
        );
        assert!(line.contains("\"epoch\":7"), "{line}");
        assert_eq!(decode_reply(&line).unwrap(), reply);

        // A fenced node that has not yet heard the new leader's address
        // still names the epoch that outranked it.
        let reply = Reply::not_leader(None, None, 9);
        let line = encode_reply(&reply);
        assert!(!line.contains("leader_addr"), "{line}");
        assert_eq!(decode_reply(&line).unwrap(), reply);
    }
}
