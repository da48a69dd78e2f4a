//! Equivalence proof for the tracond codec: the writer that copies string
//! runs whole, writes integers by hand and frames replies around a
//! borrowed result must produce the bytes of the writer it replaced, which
//! cloned every reply into a `Value` tree and wrote strings one char at a
//! time. A reply line, a WAL frame and a testbed snapshot all keep their
//! bytes only if these do. The decoder that moves `result` and `error` out
//! of the parsed document must return what the cloning decoder returned,
//! and the request decoder that takes fields one by one from
//! `json::parse_fields` must return what the decoder that built the whole
//! document as a tree returned, error kind and message included.
//!
//! The reference is the literal old code, behind a wrapper (`Old`) because
//! `Display` for `Value` is now the new writer. The inputs are seeded
//! random nested values, requests, replies, reply- and request-shaped
//! documents (repeated, unknown, mistyped and escaped keys, whitespace,
//! corruption), plus fixed lists of edge strings, numbers and requests.

use std::fmt;

use tracon_serve::json::{self, n, obj, s, Value};
use tracon_serve::proto::{
    decode_reply, decode_request, encode_reply, encode_request, DecodeError, Envelope, ErrorKind,
    LeaderHint, Reply, Request, PROTOCOL_VERSION,
};
use tracon_stats::prng::{check_cases, ChaCha12};

/// The old `Display for Value`.
struct Old<'a>(&'a Value);

impl fmt::Display for Old<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) => old_write_num(f, *x),
            Value::Str(text) => old_write_escaped(f, text),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", Old(item))?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    old_write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{}", Old(v))?;
                }
                f.write_str("}")
            }
        }
    }
}

fn old_write_num(f: &mut fmt::Formatter<'_>, x: f64) -> fmt::Result {
    if !x.is_finite() {
        return f.write_str("null");
    }
    if x.fract() == 0.0 && x.abs() < 1e15 {
        write!(f, "{}", x as i64)
    } else {
        write!(f, "{x}")
    }
}

fn old_write_escaped(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in text.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn old_id_value(id: &Option<String>) -> Value {
    match id {
        Some(text) => s(text.clone()),
        None => Value::Null,
    }
}

/// The old `proto::encode_request`: clone into a tree, then write it.
fn old_encode_request(envelope: &Envelope) -> String {
    let mut pairs = vec![
        ("v", n(PROTOCOL_VERSION as f64)),
        ("id", old_id_value(&envelope.id)),
    ];
    match &envelope.request {
        Request::Submit { app, .. } => {
            pairs.push(("op", s("submit")));
            pairs.push(("app", s(app.clone())));
        }
        Request::Complete {
            task,
            runtime,
            iops,
        } => {
            pairs.push(("op", s("complete")));
            pairs.push(("task", n(*task as f64)));
            pairs.push(("runtime", n(*runtime)));
            pairs.push(("iops", n(*iops)));
        }
        Request::Status => pairs.push(("op", s("status"))),
        Request::TaskInfo { task } => {
            pairs.push(("op", s("task")));
            pairs.push(("task", n(*task as f64)));
        }
        Request::Drain => pairs.push(("op", s("drain"))),
        Request::Shutdown => pairs.push(("op", s("shutdown"))),
        Request::ReplPull {
            epoch,
            shard,
            cursor,
            addr,
            ttl_ms,
        } => {
            pairs.push(("op", s("repl_pull")));
            pairs.push(("epoch", n(*epoch as f64)));
            pairs.push(("shard", n(*shard as f64)));
            pairs.push(("cursor", n(*cursor as f64)));
            pairs.push(("addr", s(addr.clone())));
            if *ttl_ms > 0 {
                pairs.push(("ttl_ms", n(*ttl_ms as f64)));
            }
        }
        Request::ReplLease { epoch, leader_addr } => {
            pairs.push(("op", s("repl_lease")));
            pairs.push(("epoch", n(*epoch as f64)));
            pairs.push(("leader_addr", s(leader_addr.clone())));
        }
        Request::Fail { action, spec } => {
            pairs.push(("op", s("fail")));
            pairs.push(("action", s(action.clone())));
            if let Some(spec) = spec {
                pairs.push(("spec", s(spec.clone())));
            }
        }
    }
    Old(&obj(pairs)).to_string()
}

/// The old `proto::encode_reply`: clone the result into an envelope tree.
fn old_encode_reply(reply: &Reply) -> String {
    match reply {
        Reply::Ok { id, result } => Old(&obj(vec![
            ("v", n(PROTOCOL_VERSION as f64)),
            ("id", old_id_value(id)),
            ("ok", Value::Bool(true)),
            ("result", result.clone()),
        ]))
        .to_string(),
        Reply::Error {
            id,
            kind,
            message,
            retry_after_ms,
            leader,
        } => {
            let mut error = vec![("kind", s(kind.as_str())), ("message", s(message.clone()))];
            if let Some(ms) = retry_after_ms {
                error.push(("retry_after_ms", n(*ms as f64)));
            }
            if let Some(hint) = leader {
                if let Some(addr) = &hint.leader_addr {
                    error.push(("leader_addr", s(addr.clone())));
                }
                error.push(("epoch", n(hint.epoch as f64)));
            }
            Old(&obj(vec![
                ("v", n(PROTOCOL_VERSION as f64)),
                ("id", old_id_value(id)),
                ("ok", Value::Bool(false)),
                ("error", obj(error)),
            ]))
            .to_string()
        }
    }
}

/// The old `proto::decode_reply`: copy `result` and `error` out.
fn old_decode_reply(line: &str) -> Result<Reply, String> {
    let doc = json::parse(line).map_err(|e| format!("invalid reply JSON: {e}"))?;
    let id = doc.get("id").and_then(Value::as_str).map(str::to_string);
    match doc.get("ok").and_then(Value::as_bool) {
        Some(true) => {
            let result = doc.get("result").cloned().unwrap_or(Value::Null);
            Ok(Reply::Ok { id, result })
        }
        Some(false) => {
            let error = doc
                .get("error")
                .cloned()
                .ok_or_else(|| "error reply without 'error' object".to_string())?;
            let kind = error
                .get("kind")
                .and_then(Value::as_str)
                .and_then(ErrorKind::from_str)
                .ok_or_else(|| "error reply with unknown 'kind'".to_string())?;
            let message = error
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let retry_after_ms = error.get("retry_after_ms").and_then(Value::as_u64);
            let leader = error
                .get("epoch")
                .and_then(Value::as_u64)
                .map(|epoch| LeaderHint {
                    leader_addr: error
                        .get("leader_addr")
                        .and_then(Value::as_str)
                        .map(str::to_string),
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

/// The old `proto::field_u64`.
fn old_field_u64(doc: &Value, id: &Option<String>, key: &str) -> Result<u64, DecodeError> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| DecodeError {
            id: id.clone(),
            kind: ErrorKind::BadField,
            message: format!("missing or invalid '{key}' (expected non-negative integer)"),
        })
}

/// The old `proto::field_f64`.
fn old_field_f64(doc: &Value, id: &Option<String>, key: &str) -> Result<f64, DecodeError> {
    match doc.get(key).and_then(Value::as_f64) {
        Some(v) if v.is_finite() => Ok(v),
        _ => Err(DecodeError {
            id: id.clone(),
            kind: ErrorKind::BadField,
            message: format!("missing or invalid '{key}' (expected finite number)"),
        }),
    }
}

/// The old `proto::decode_request`: parse the whole line into a tree,
/// then look each field up in it.
fn old_decode_request(line: &str) -> Result<Envelope, DecodeError> {
    let doc = json::parse(line).map_err(|e| DecodeError {
        id: None,
        kind: ErrorKind::Malformed,
        message: format!("invalid JSON: {e}"),
    })?;
    if !matches!(doc, Value::Obj(_)) {
        return Err(DecodeError {
            id: None,
            kind: ErrorKind::Malformed,
            message: "request must be a JSON object".to_string(),
        });
    }
    let id = doc.get("id").and_then(Value::as_str).map(str::to_string);
    match doc.get("v").and_then(Value::as_u64) {
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
    let op = match doc.get("op").and_then(Value::as_str) {
        Some(op) => op,
        None => {
            return Err(DecodeError {
                id,
                kind: ErrorKind::BadField,
                message: "missing or invalid 'op' (expected string)".to_string(),
            })
        }
    };
    let request = match op {
        "submit" => match doc.get("app").and_then(Value::as_str) {
            Some(app) if !app.is_empty() => Request::Submit {
                app: app.to_string(),
                demand: None,
            },
            _ => {
                return Err(DecodeError {
                    id,
                    kind: ErrorKind::BadField,
                    message: "missing or invalid 'app' (expected non-empty string)".to_string(),
                })
            }
        },
        "complete" => Request::Complete {
            task: old_field_u64(&doc, &id, "task")?,
            runtime: old_field_f64(&doc, &id, "runtime")?,
            iops: old_field_f64(&doc, &id, "iops")?,
        },
        "status" => Request::Status,
        "task" => Request::TaskInfo {
            task: old_field_u64(&doc, &id, "task")?,
        },
        "drain" => Request::Drain,
        "shutdown" => Request::Shutdown,
        "repl_pull" => Request::ReplPull {
            epoch: old_field_u64(&doc, &id, "epoch")?,
            shard: old_field_u64(&doc, &id, "shard")? as usize,
            cursor: old_field_u64(&doc, &id, "cursor")?,
            addr: match doc.get("addr").and_then(Value::as_str) {
                Some(addr) if !addr.is_empty() => addr.to_string(),
                _ => {
                    return Err(DecodeError {
                        id,
                        kind: ErrorKind::BadField,
                        message: "missing or invalid 'addr' (expected non-empty string)"
                            .to_string(),
                    })
                }
            },
            // Optional: pulls from pre-TTL-aware followers carry no hint.
            ttl_ms: doc.get("ttl_ms").and_then(Value::as_u64).unwrap_or(0),
        },
        "repl_lease" => Request::ReplLease {
            epoch: old_field_u64(&doc, &id, "epoch")?,
            leader_addr: match doc.get("leader_addr").and_then(Value::as_str) {
                Some(addr) if !addr.is_empty() => addr.to_string(),
                _ => {
                    return Err(DecodeError {
                        id,
                        kind: ErrorKind::BadField,
                        message: "missing or invalid 'leader_addr' (expected non-empty string)"
                            .to_string(),
                    })
                }
            },
        },
        "fail" => {
            let action = match doc.get("action").and_then(Value::as_str) {
                Some(a @ ("arm" | "disarm" | "status")) => a.to_string(),
                _ => {
                    return Err(DecodeError {
                        id,
                        kind: ErrorKind::BadField,
                        message: "missing or invalid 'action' (expected arm|disarm|status)"
                            .to_string(),
                    })
                }
            };
            let spec = doc.get("spec").and_then(Value::as_str).map(str::to_string);
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

/// Strings at the escaper's edges: each escaped byte alone, 0x7f (which
/// passes through), multi-byte scalars at the start and end of a run and
/// between escapes, and the empty string.
fn edge_strings() -> Vec<String> {
    let mut edges: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
    edges.extend(
        [
            "",
            "\"",
            "\\",
            "\u{7f}",
            "plain",
            "é",
            "a€",
            "€a",
            "🦀\t🦀",
            "\"é\"",
            "中\\",
            "\n\r\t\u{0}\u{1f}\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
            "x\u{1}\u{8}\u{b}\u{c}\u{1e}y",
            "\\\"\\\"",
        ]
        .map(str::to_string),
    );
    edges
}

/// Numbers at the writer's edges: both zeros, both sides of the 1e15
/// integer cut, the i64 and f64-integer limits, fractions, subnormals and
/// the non-finite values (written as `null`).
fn edge_numbers() -> Vec<f64> {
    let mut edges = vec![
        0.0,
        1.0,
        9.0,
        10.0,
        99.0,
        100.0,
        1e15 - 1.0,
        1e15,
        1e15 + 2.0,
        1e16,
        2f64.powi(53),
        2f64.powi(53) + 2.0,
        2f64.powi(63),
        2f64.powi(64),
        i64::MAX as f64,
        u64::MAX as f64,
        123_456_789_012_345.0,
        0.5,
        0.1,
        1.0 / 3.0,
        2.5e-7,
        1e21,
        1e300,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
    ];
    let negated: Vec<f64> = edges.iter().map(|x| -x).collect();
    edges.extend(negated);
    edges
}

/// Scalars the random strings draw from: everything the escaper treats
/// specially plus plain ASCII and one to four byte scalars.
fn alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '/', '\u{7f}', 'a', 'z', '0', ' ', '-']);
    chars.extend(['é', 'π', '\u{80}', '中', '\u{ffff}', '🦀', '\u{10ffff}']);
    chars
}

fn random_string(rng: &mut ChaCha12, max_len: usize) -> String {
    let chars = alphabet();
    let len = rng.range_usize(0, max_len + 1);
    // Half the strings are long plain runs with a few specials in them.
    let plain = rng.range_usize(0, 2) == 0;
    (0..len)
        .map(|_| {
            if plain && rng.range_usize(0, 8) != 0 {
                char::from(b'a' + rng.range_usize(0, 26) as u8)
            } else {
                chars[rng.range_usize(0, chars.len())]
            }
        })
        .collect()
}

fn random_number(rng: &mut ChaCha12) -> f64 {
    match rng.range_usize(0, 6) {
        0 => {
            let edges = edge_numbers();
            edges[rng.range_usize(0, edges.len())]
        }
        // Any bit pattern: subnormals, NaNs, huge and tiny magnitudes.
        1 => f64::from_bits(rng.next_u64()),
        // Integers anywhere in i64's range, most past the 1e15 cut.
        2 => rng.next_u64() as i64 as f64,
        // Integers of every digit count below the cut, either sign.
        3 => {
            let digits = rng.range_usize(0, 16) as i32;
            let x = (rng.next_u64() % 10u64.pow(digits as u32).max(1)) as f64;
            if rng.range_usize(0, 2) == 0 {
                -x
            } else {
                x
            }
        }
        4 => rng.range_f64(-1e6, 1e6),
        _ => rng.range_usize(0, 1000) as f64 / 8.0,
    }
}

fn random_value(rng: &mut ChaCha12, depth: usize) -> Value {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.range_usize(0, kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.range_usize(0, 2) == 0),
        2 => Value::Num(random_number(rng)),
        3 => Value::Str(random_string(rng, 12)),
        4 => Value::Arr(
            (0..rng.range_usize(0, 5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.range_usize(0, 5))
                .map(|_| (random_string(rng, 6), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn random_id(rng: &mut ChaCha12) -> Option<String> {
    (rng.range_usize(0, 3) != 0).then(|| random_string(rng, 10))
}

fn random_u64(rng: &mut ChaCha12) -> u64 {
    match rng.range_usize(0, 3) {
        0 => rng.next_u64(),
        1 => rng.next_u64() >> 11,
        _ => rng.range_usize(0, 10_000) as u64,
    }
}

fn random_request(rng: &mut ChaCha12) -> Request {
    let text = random_string(rng, 12);
    match rng.range_usize(0, 9) {
        0 => Request::Submit {
            app: text,
            demand: None,
        },
        1 => Request::Complete {
            task: random_u64(rng),
            runtime: random_number(rng),
            iops: random_number(rng),
        },
        2 => Request::Status,
        3 => Request::TaskInfo {
            task: random_u64(rng),
        },
        4 => Request::Drain,
        5 => Request::Shutdown,
        6 => Request::ReplPull {
            epoch: random_u64(rng),
            shard: random_u64(rng) as usize,
            cursor: random_u64(rng),
            addr: text,
            ttl_ms: if rng.range_usize(0, 2) == 0 {
                0
            } else {
                random_u64(rng)
            },
        },
        7 => Request::ReplLease {
            epoch: random_u64(rng),
            leader_addr: text,
        },
        _ => Request::Fail {
            action: text,
            spec: (rng.range_usize(0, 2) == 0).then(|| random_string(rng, 20)),
        },
    }
}

const KINDS: [ErrorKind; 10] = [
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
];

fn random_reply(rng: &mut ChaCha12) -> Reply {
    let id = random_id(rng);
    if rng.range_usize(0, 2) == 0 {
        return Reply::ok(id, random_value(rng, 3));
    }
    Reply::Error {
        id,
        kind: KINDS[rng.range_usize(0, KINDS.len())],
        message: random_string(rng, 24),
        retry_after_ms: (rng.range_usize(0, 2) == 0).then(|| random_u64(rng)),
        leader: match rng.range_usize(0, 3) {
            0 => None,
            1 => Some(LeaderHint {
                leader_addr: None,
                epoch: random_u64(rng),
            }),
            _ => Some(LeaderHint {
                leader_addr: Some(random_string(rng, 12)),
                epoch: random_u64(rng),
            }),
        },
    }
}

/// Fields under `keys`, each drawn from `keys` with repeats: mostly of the
/// type the decoder expects there, one in four of any type.
fn fields(
    rng: &mut ChaCha12,
    keys: &[&str],
    typical: &dyn Fn(&mut ChaCha12, &str) -> Value,
) -> Vec<(String, Value)> {
    (0..rng.range_usize(0, 2 * keys.len()))
        .map(|_| {
            let key = keys[rng.range_usize(0, keys.len())];
            let value = if rng.range_usize(0, 4) == 0 {
                random_value(rng, 2)
            } else {
                typical(rng, key)
            };
            (key.to_string(), value)
        })
        .collect()
}

/// A reply-shaped document with every field optional, repeatable and of
/// any type: both decoders must agree on each, error or not.
fn reply_like_line(rng: &mut ChaCha12) -> String {
    let error_field = |rng: &mut ChaCha12, key: &str| match key {
        "kind" => s(KINDS[rng.range_usize(0, KINDS.len())].as_str()),
        "retry_after_ms" | "epoch" => n(random_u64(rng) as f64),
        _ => s(random_string(rng, 8)),
    };
    let error = Value::Obj(fields(
        rng,
        &["kind", "message", "retry_after_ms", "leader_addr", "epoch"],
        &error_field,
    ));
    let reply_field = |rng: &mut ChaCha12, key: &str| match key {
        "ok" => Value::Bool(rng.range_usize(0, 2) == 0),
        "id" => s(random_string(rng, 6)),
        "error" => error.clone(),
        _ => random_value(rng, 2),
    };
    let doc = Value::Obj(fields(
        rng,
        &["v", "id", "ok", "result", "error"],
        &reply_field,
    ));
    Old(&doc).to_string()
}

/// Every key a request may carry, and keys the decoder must drop
/// (`demand` among them).
const REQUEST_KEYS: [&str; 20] = [
    "v",
    "id",
    "op",
    "app",
    "demand",
    "task",
    "runtime",
    "iops",
    "epoch",
    "shard",
    "cursor",
    "addr",
    "ttl_ms",
    "leader_addr",
    "action",
    "spec",
    "x",
    "",
    "V",
    "ops",
];

const OPS: [&str; 12] = [
    "submit",
    "complete",
    "status",
    "task",
    "drain",
    "shutdown",
    "repl_pull",
    "repl_lease",
    "fail",
    "frobnicate",
    "",
    "Submit",
];

/// A value of the kind the decoder expects under `key`, or one just off it.
fn request_field(rng: &mut ChaCha12, key: &str) -> Value {
    let pick = |rng: &mut ChaCha12, items: &[&str]| s(items[rng.range_usize(0, items.len())]);
    match key {
        "v" => n([2.0, 2.0, 2.0, 1.0, 9.0, 2.5, -2.0, 0.0, 2f64.powi(64)][rng.range_usize(0, 9)]),
        "op" => pick(rng, &OPS),
        "action" => pick(rng, &["arm", "disarm", "status", "explode", ""]),
        "demand" => Value::Obj(fields(
            rng,
            &["disk", "cpu", "network", "tape"],
            &|rng, _| n(random_number(rng)),
        )),
        "task" | "epoch" | "shard" | "cursor" | "ttl_ms" | "runtime" | "iops" => {
            match rng.range_usize(0, 4) {
                0 => n(random_number(rng)),
                _ => n(random_u64(rng) as f64),
            }
        }
        _ => s(random_string(rng, 6)),
    }
}

/// `text` as a JSON string, each scalar escaped as `\uXXXX` (a surrogate
/// pair past the BMP) with probability one in four, `/` sometimes as `\/`.
fn write_string(rng: &mut ChaCha12, text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        if rng.range_usize(0, 4) == 0 {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        } else if c == '/' && rng.range_usize(0, 2) == 0 {
            out.push_str("\\/");
        } else {
            let quoted = s(c.to_string()).to_string();
            out.push_str(&quoted[1..quoted.len() - 1]);
        }
    }
    out.push('"');
}

/// Optional JSON whitespace.
fn space(rng: &mut ChaCha12, out: &mut String) {
    for _ in 0..rng.range_usize(0, 3) {
        out.push([' ', '\t', '\n', '\r'][rng.range_usize(0, 4)]);
    }
}

/// `value` as JSON with whitespace between every token and escapes in
/// keys and strings; it parses back to `value`.
fn write_spaced(rng: &mut ChaCha12, value: &Value, out: &mut String) {
    space(rng, out);
    match value {
        Value::Str(text) => write_string(rng, text, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_spaced(rng, item, out);
            }
            space(rng, out);
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(rng, out);
                write_string(rng, key, out);
                space(rng, out);
                out.push(':');
                write_spaced(rng, item, out);
            }
            space(rng, out);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
    space(rng, out);
}

/// A request-shaped document: every field optional, repeatable, of the
/// expected type or any other, with unknown fields holding nested values.
/// It is what it parses back to (a non-finite number reads as `null`).
fn request_like_doc(rng: &mut ChaCha12) -> Value {
    let doc = Value::Obj(fields(rng, &REQUEST_KEYS, &|rng, key| match key {
        "x" | "" | "V" | "ops" => random_value(rng, 3),
        _ => request_field(rng, key),
    }));
    json::parse(&doc.to_string()).unwrap()
}

/// Values that are not JSON, for an unknown field to hold.
const GARBAGE: [&str; 10] = [
    "[1,}",
    "tru",
    "\"\\x\"",
    "01x",
    "{\"a\" 1}",
    "\"\\u+041\"",
    "[[[",
    "\"open",
    "-",
    "{\"a\":1,}",
];

/// Lines at the decoder's edges: every check in order, duplicates,
/// escaped keys and `demand` values of every shape, all dropped.
const EDGE_REQUESTS: [&str; 40] = [
    "",
    "   ",
    "[]",
    "\"status\"",
    "null",
    "{}",
    "{\"op\":\"status\"}",
    "{\"v\":\"2\",\"op\":\"status\"}",
    "{\"v\":1,\"id\":\"x-1\",\"op\":\"status\"}",
    "{\"v\":2}",
    "{\"v\":2,\"op\":7}",
    "{\"v\":2,\"op\":\"frobnicate\",\"id\":\"q\"}",
    "{\"v\":2,\"op\":\"submit\"}",
    "{\"v\":2,\"op\":\"submit\",\"app\":\"\"}",
    "{\"v\":2,\"op\":\"submit\",\"app\":\"a\",\"demand\":{\"tape\":1}}",
    "{\"v\":2,\"op\":\"submit\",\"app\":\"a\",\"demand\":{\"disk\":-4}}",
    "{\"v\":2,\"op\":\"submit\",\"app\":\"a\",\"demand\":{\"cpu\":\"1\"}}",
    "{\"v\":2,\"op\":\"submit\",\"app\":\"a\",\"demand\":7}",
    "{\"v\":2,\"op\":\"submit\",\"app\":\"a\",\"demand\":null}",
    "{\"v\":2,\"op\":\"submit\",\"app\":\"a\",\"demand\":{\"disk\":1,\"disk\":2}}",
    "{\"v\":2,\"op\":\"complete\",\"task\":1,\"runtime\":1.0}",
    "{\"v\":2,\"op\":\"complete\",\"task\":1.5,\"runtime\":1,\"iops\":1}",
    "{\"v\":2,\"op\":\"task\",\"task\":18446744073709551616}",
    "{\"v\":2,\"op\":\"repl_pull\",\"epoch\":1,\"shard\":0,\"cursor\":0}",
    "{\"v\":2,\"op\":\"repl_pull\",\"epoch\":1,\"shard\":0,\"cursor\":0,\"addr\":\"a\",\"ttl_ms\":-1}",
    "{\"v\":2,\"op\":\"repl_lease\",\"epoch\":1}",
    "{\"v\":2,\"op\":\"fail\",\"action\":\"explode\"}",
    "{\"v\":2,\"op\":\"fail\",\"action\":\"arm\"}",
    "{\"v\":2,\"op\":\"fail\",\"action\":\"arm\",\"spec\":3}",
    "{\"v\":2,\"op\":\"status\",\"op\":\"frobnicate\"}",
    "{\"v\":1,\"v\":2,\"op\":\"status\"}",
    "{\"v\":2,\"v\":1,\"op\":\"status\"}",
    "{\"id\":7,\"id\":\"b\",\"v\":2,\"op\":\"status\"}",
    "{\"id\":\"a\",\"id\":\"b\",\"v\":9}",
    "{\"v\":2,\"op\":\"submit\",\"app\":\"a\",\"app\":\"\"}",
    "{\"v\":2,\"op\":\"submit\",\"app\":\"\",\"app\":\"a\"}",
    "{\"\\u0076\":2,\"\\u006fp\":\"submit\",\"\\u0061pp\":\"video\",\"i\\u0064\":\"\\ud83d\\ude00\"}",
    " {\n\"v\" :\t2 ,\r\"op\":\"task\" , \"task\" : 7 } \n",
    "{\"v\":2,\"op\":\"status\",\"x\":{\"y\":[1,{\"z\":null}],\"w\":\"\\u00e9\"}}",
    "{\"v\":2,\"op\":\"status\",\"x\":[1,}",
];

#[test]
fn requests_decode_as_the_tree_decoder_did() {
    let same = |line: &str| assert_eq!(decode_request(line), old_decode_request(line), "{line}");
    for line in EDGE_REQUESTS {
        same(line);
    }
    check_cases(0..3_000, |rng| {
        let envelope = Envelope {
            id: random_id(rng),
            request: random_request(rng),
        };
        let line = encode_request(&envelope);
        same(&line);
        // The same fields, spaced and escaped.
        let doc = json::parse(&line).unwrap();
        let mut spaced = String::new();
        write_spaced(rng, &doc, &mut spaced);
        assert_eq!(json::parse(&spaced), Ok(doc), "{spaced}");
        same(&spaced);
    });
}

#[test]
fn request_shaped_documents_decode_as_the_tree_decoder_did() {
    let same = |line: &str| assert_eq!(decode_request(line), old_decode_request(line), "{line}");
    check_cases(0..3_000, |rng| {
        let doc = request_like_doc(rng);
        let mut line = String::new();
        write_spaced(rng, &doc, &mut line);
        assert_eq!(json::parse(&line).as_ref(), Ok(&doc), "{line}");
        same(&line);
        // An unknown field holding something that is not JSON, anywhere
        // among the others.
        let Value::Obj(pairs) = &doc else {
            unreachable!()
        };
        let at = rng.range_usize(0, pairs.len() + 1);
        let mut corrupt = String::from("{");
        for (i, (key, value)) in pairs.iter().enumerate() {
            if i == at {
                corrupt.push_str(&format!(
                    "\"x\":{},",
                    GARBAGE[rng.range_usize(0, GARBAGE.len())]
                ));
            }
            corrupt.push_str(&format!("{}:{value},", s(key.as_str())));
        }
        if at == pairs.len() {
            corrupt.push_str(&format!(
                "\"x\":{},",
                GARBAGE[rng.range_usize(0, GARBAGE.len())]
            ));
        }
        corrupt.pop();
        corrupt.push('}');
        same(&corrupt);
        // The line cut short, or with one byte changed.
        let cut = rng.range_usize(0, line.len() + 1);
        if let Some(prefix) = line.get(..cut) {
            same(prefix);
        }
        let mut bytes = line.into_bytes();
        if !bytes.is_empty() {
            let i = rng.range_usize(0, bytes.len());
            bytes[i] = b"{}[]\",:\\ 0x"[rng.range_usize(0, 11)];
            if let Ok(changed) = String::from_utf8(bytes) {
                same(&changed);
            }
        }
    });
}

#[test]
fn edge_strings_and_numbers_write_the_old_bytes() {
    for text in edge_strings() {
        let v = Value::Str(text.clone());
        assert_eq!(v.to_string(), Old(&v).to_string(), "{text:?}");
        let keyed = obj(vec![(text.as_str(), v)]);
        assert_eq!(keyed.to_string(), Old(&keyed).to_string(), "{text:?}");
    }
    for x in edge_numbers() {
        let v = n(x);
        assert_eq!(v.to_string(), Old(&v).to_string(), "{x:?}");
    }
    let all = Value::Arr(
        edge_strings()
            .into_iter()
            .map(Value::Str)
            .chain(edge_numbers().into_iter().map(Value::Num))
            .collect(),
    );
    assert_eq!(all.to_string(), Old(&all).to_string());
}

#[test]
fn values_write_the_old_bytes() {
    check_cases(0..3_000, |rng| {
        let v = random_value(rng, 4);
        assert_eq!(v.to_string(), Old(&v).to_string(), "{v:?}");
    });
}

#[test]
fn requests_encode_to_the_old_bytes() {
    check_cases(0..3_000, |rng| {
        let envelope = Envelope {
            id: random_id(rng),
            request: random_request(rng),
        };
        assert_eq!(
            encode_request(&envelope),
            old_encode_request(&envelope),
            "{envelope:?}"
        );
    });
}

#[test]
fn replies_encode_to_the_old_bytes_and_decode_to_the_old_reply() {
    check_cases(0..3_000, |rng| {
        let reply = random_reply(rng);
        let line = encode_reply(&reply);
        assert_eq!(line, old_encode_reply(&reply), "{reply:?}");
        assert_eq!(decode_reply(&line), old_decode_reply(&line), "{line}");
    });
}

/// Lines on both sides of the capacity a line starts with (1 KiB), where
/// the `String` first grows, and far past it.
#[test]
fn lines_around_and_past_the_initial_capacity_encode_to_the_old_bytes() {
    for len in (990..1_060).chain([4_000, 70_000]) {
        let text: String = "é\\x\u{1}".chars().cycle().take(len / 2).collect();
        let replies = [
            Reply::ok(
                Some("c-1".to_string()),
                obj(vec![("text", s(text.as_str()))]),
            ),
            Reply::error(None, ErrorKind::BadField, text.as_str()),
        ];
        for reply in replies {
            let line = encode_reply(&reply);
            assert_eq!(line, old_encode_reply(&reply), "{len}");
        }
        let envelope = Envelope {
            id: Some(text.clone()),
            request: Request::Submit {
                app: text,
                demand: None,
            },
        };
        assert_eq!(encode_request(&envelope), old_encode_request(&envelope));
    }
}

#[test]
fn any_reply_shaped_line_decodes_as_the_cloning_decoder_did() {
    check_cases(0..3_000, |rng| {
        let line = reply_like_line(rng);
        assert_eq!(decode_reply(&line), old_decode_reply(&line), "{line}");
    });
    for line in [
        "",
        "[]",
        "7",
        "{\"ok\":true}",
        "{\"ok\":false}",
        "{\"ok\":1}",
    ] {
        assert_eq!(decode_reply(line), old_decode_reply(line), "{line}");
    }
}
