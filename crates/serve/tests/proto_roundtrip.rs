//! Seeded property tests of the tracond wire codec: encode→decode identity for
//! every request and reply shape, and totality of the decoder — malformed
//! lines always yield a structured error, never a panic.

use tracon_serve::json::{self, n, obj, s, Value};
use tracon_serve::proto::{
    decode_reply, decode_request, encode_reply, encode_request, Envelope, ErrorKind, LeaderHint,
    Reply, Request,
};
use tracon_stats::prng::{check_cases, ChaCha12};

/// Characters chosen to stress the JSON string escaper: quotes,
/// backslashes, control characters, and multibyte UTF-8.
const ALPHABET: [char; 20] = [
    'a', 'b', 'z', 'A', '0', '9', '_', '-', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', 'π',
    '中', '🦀', '\u{7f}',
];

fn wire_string(rng: &mut ChaCha12, max_len: usize) -> String {
    (0..rng.range_usize(0, max_len))
        .map(|_| ALPHABET[rng.range_usize(0, ALPHABET.len())])
        .collect()
}

fn coin(rng: &mut ChaCha12) -> bool {
    rng.next_u64() & 1 == 1
}

/// Task ids stay below 2^53 — the protocol carries integers as JSON
/// numbers, so anything larger would not be representable on the wire.
fn task_id(rng: &mut ChaCha12) -> u64 {
    rng.next_u64() >> 11
}

fn request(rng: &mut ChaCha12) -> Request {
    let op = rng.range_usize(0, 8);
    let text = wire_string(rng, 12);
    let task = task_id(rng);
    let runtime = rng.range_f64(-1.0e9, 1.0e9);
    let iops = rng.range_f64(0.0, 1.0e9);
    // Submits and repl ops require non-empty name/address strings.
    let nonempty = if text.is_empty() {
        "x".to_string()
    } else {
        text
    };
    match op {
        0 => Request::Submit {
            app: nonempty,
            demand: None,
        },
        1 => Request::Complete {
            task,
            runtime,
            iops,
        },
        2 => Request::Status,
        3 => Request::TaskInfo { task },
        4 => Request::Drain,
        5 => Request::ReplPull {
            epoch: task,
            shard: (task % 64) as usize,
            cursor: task / 2,
            addr: nonempty,
            ttl_ms: task % 5_000,
        },
        6 => Request::ReplLease {
            epoch: task,
            leader_addr: nonempty,
        },
        _ => Request::Shutdown,
    }
}

fn request_id(rng: &mut ChaCha12) -> Option<String> {
    let text = wire_string(rng, 10);
    coin(rng).then_some(text)
}

/// An op-specific result payload like the ones the daemon actually
/// builds: flat objects of strings, numbers, bools, and nulls.
fn result_payload(rng: &mut ChaCha12) -> Value {
    let mut pairs: Vec<(String, Value)> = Vec::new();
    for _ in 0..rng.range_usize(0, 6) {
        let key = format!("k{}", rng.range_usize(0, 26));
        let tag = rng.range_usize(0, 4);
        let text = wire_string(rng, 8);
        let num = task_id(rng);
        // Later duplicates would be dropped by get(); keep keys unique.
        if pairs.iter().any(|(k, _)| *k == key) {
            continue;
        }
        let value = match tag {
            0 => s(text),
            1 => n(num as f64),
            2 => Value::Bool(num & 1 == 0),
            _ => Value::Null,
        };
        pairs.push((key, value));
    }
    Value::Obj(pairs)
}

fn error_kind(rng: &mut ChaCha12) -> ErrorKind {
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
    KINDS[rng.range_usize(0, KINDS.len())]
}

/// An optional `not_leader` redirect hint, with and without a known
/// leader address.
fn leader_hint(rng: &mut ChaCha12) -> Option<LeaderHint> {
    let tag = rng.range_usize(0, 3);
    let addr = wire_string(rng, 12);
    let epoch = task_id(rng);
    match tag {
        0 => None,
        1 => Some(LeaderHint {
            leader_addr: None,
            epoch,
        }),
        _ => Some(LeaderHint {
            leader_addr: Some(addr),
            epoch,
        }),
    }
}

fn reply(rng: &mut ChaCha12) -> Reply {
    let id = request_id(rng);
    let result = result_payload(rng);
    let kind = error_kind(rng);
    let message = wire_string(rng, 16);
    let retry_after_ms = coin(rng).then_some(task_id(rng));
    let leader = leader_hint(rng);
    if coin(rng) {
        Reply::Ok { id, result }
    } else {
        Reply::Error {
            id,
            kind,
            message,
            retry_after_ms,
            leader,
        }
    }
}

/// Any `f64` bit pattern, with one draw in four forced subnormal (the
/// exponent cleared), a class uniform bits would reach once in 2048.
fn any_f64(rng: &mut ChaCha12) -> f64 {
    let bits = rng.next_u64();
    if rng.range_usize(0, 4) == 0 {
        f64::from_bits(bits & !(0x7ff << 52))
    } else {
        f64::from_bits(bits)
    }
}

/// Requests survive the wire bit-identically.
#[test]
fn request_roundtrips() {
    check_cases(0..256, |rng| {
        let id = request_id(rng);
        let req = request(rng);
        let envelope = Envelope { id, request: req };
        let line = encode_request(&envelope);
        let back = decode_request(&line);
        assert_eq!(back, Ok(envelope));
    });
}

/// Replies survive the wire bit-identically.
#[test]
fn reply_roundtrips() {
    check_cases(0..256, |rng| {
        let r = reply(rng);
        let line = encode_reply(&r);
        let back = decode_reply(&line);
        assert_eq!(back, Ok(r));
    });
}

/// The decoder is total: any line of printable noise produces either a
/// valid envelope or a structured error whose reply also encodes and
/// decodes — never a panic.
#[test]
fn arbitrary_lines_never_panic_the_decoder() {
    check_cases(0..256, |rng| {
        let line = wire_string(rng, 64);
        match decode_request(&line) {
            Ok(_) => {}
            Err(e) => {
                let reply_line = encode_reply(&e.into_reply());
                let decoded = decode_reply(&reply_line);
                assert!(decoded.is_ok(), "error reply must decode: {:?}", decoded);
            }
        }
    });
}

/// Same totality for raw JSON documents that are valid JSON but not
/// valid protocol: wrong types, wrong version, junk ops.
#[test]
fn near_miss_documents_get_structured_errors() {
    check_cases(0..256, |rng| {
        let version = rng.range_usize(0, 4);
        let op = wire_string(rng, 8);
        let task = task_id(rng);
        let line = obj(vec![
            ("v", n(version as f64)),
            ("op", s(op)),
            ("task", n(task as f64)),
        ])
        .to_string();
        match decode_request(&line) {
            Ok(envelope) => {
                // Only a well-formed op at the right version may decode.
                assert!(json::parse(&encode_request(&envelope)).is_ok());
            }
            Err(e) => {
                let reply_line = encode_reply(&e.into_reply());
                assert!(decode_reply(&reply_line).is_ok());
            }
        }
    });
}

/// The JSON layer itself roundtrips the payload values the protocol
/// uses, including awkward strings.
#[test]
fn json_value_roundtrips() {
    check_cases(0..256, |rng| {
        let text = wire_string(rng, 24);
        let num = rng.range_f64(-1.0e12, 1.0e12);
        let doc = obj(vec![("text", s(text)), ("num", n(num))]);
        let parsed = json::parse(&doc.to_string());
        assert_eq!(parsed, Ok(doc));
    });
}

/// Every finite `f64` — subnormals, 1e308, 17-digit fractions —
/// survives the codec to the bit (a negative zero comes back
/// positive): the testbed snapshot stores measured statistics this way.
#[test]
fn finite_numbers_roundtrip_bit_for_bit() {
    check_cases(0..256, |rng| {
        let x = any_f64(rng);
        if !x.is_finite() {
            return;
        }
        let back = json::parse(&n(x).to_string()).ok().and_then(|v| v.as_f64());
        assert_eq!(back.map(f64::to_bits), Some((x + 0.0).to_bits()), "{}", x);
    });
}

/// A task id of 2^64 is out of range, not task `u64::MAX`: `u64::MAX as
/// f64` rounds up to 2^64, so the range check must be strict.
#[test]
fn task_id_of_two_to_the_64_is_a_bad_field() {
    let e = decode_request("{\"v\":2,\"op\":\"task\",\"task\":18446744073709551616}").unwrap_err();
    assert_eq!(e.kind, ErrorKind::BadField, "{}", e.message);
    // The largest double below 2^64 is still an id.
    let ok = decode_request("{\"v\":2,\"op\":\"task\",\"task\":18446744073709549568}").unwrap();
    assert_eq!(
        ok.request,
        Request::TaskInfo {
            task: u64::MAX - 2047
        }
    );
}

/// A client that escapes every non-ASCII scalar (Python's `json.dumps`
/// by default) sends U+1F600 as a surrogate pair; its id must come back
/// as the same text, not as two replacement characters.
#[test]
fn an_escaped_astral_id_echoes_unchanged() {
    let line = r#"{"v":2,"id":"req-\ud83d\ude00-\u00e9","op":"status"}"#;
    let envelope = decode_request(line).unwrap();
    assert_eq!(envelope.id.as_deref(), Some("req-\u{1f600}-\u{e9}"));
    let reply = encode_reply(&Reply::ok(envelope.id, obj(vec![])));
    assert_eq!(
        reply,
        "{\"v\":2,\"id\":\"req-\u{1f600}-\u{e9}\",\"ok\":true,\"result\":{}}"
    );
    let back = decode_reply(&reply).unwrap();
    assert_eq!(
        back,
        Reply::ok(Some("req-\u{1f600}-\u{e9}".to_string()), obj(vec![]))
    );
}
