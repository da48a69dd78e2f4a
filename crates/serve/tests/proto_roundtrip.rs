//! Property tests of the tracond wire codec: encode→decode identity for
//! every request and reply shape, and totality of the decoder — malformed
//! lines always yield a structured error, never a panic.

use proptest::prelude::*;
use tracon_core::{DimVec, ResourceDim};
use tracon_serve::json::{self, n, obj, s, Value};
use tracon_serve::proto::{
    decode_reply, decode_request, encode_reply, encode_request, Envelope, ErrorKind, LeaderHint,
    Reply, Request,
};

/// Characters chosen to stress the JSON string escaper: quotes,
/// backslashes, control characters, and multibyte UTF-8.
const ALPHABET: [char; 20] = [
    'a', 'b', 'z', 'A', '0', '9', '_', '-', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', 'π',
    '中', '🦀', '\u{7f}',
];

fn wire_string(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..max_len)
        .prop_map(|idxs| idxs.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Task ids stay below 2^53 — the protocol carries integers as JSON
/// numbers, so anything larger would not be representable on the wire.
fn task_id() -> impl Strategy<Value = u64> {
    0u64..(1 << 53)
}

/// An optional v2 demand map: any subset of the resource dimensions with
/// finite non-negative values (`None` = legacy submit).
fn demand() -> impl Strategy<Value = Option<DimVec>> {
    proptest::collection::vec((0usize..ResourceDim::ALL.len(), 0.0f64..1.0e9), 0..4).prop_map(
        |lanes| {
            if lanes.is_empty() {
                None
            } else {
                let mut d = DimVec::new();
                for (i, v) in lanes {
                    d.set(ResourceDim::ALL[i], v);
                }
                Some(d)
            }
        },
    )
}

fn request() -> impl Strategy<Value = Request> {
    (
        0u8..8,
        wire_string(12),
        task_id(),
        (-1.0e9f64..1.0e9, 0.0f64..1.0e9),
        demand(),
    )
        .prop_map(|(op, text, task, (runtime, iops), demand)| {
            // Submits and repl ops require non-empty name/address strings.
            let nonempty = if text.is_empty() {
                "x".to_string()
            } else {
                text
            };
            match op {
                0 => Request::Submit {
                    app: nonempty,
                    demand,
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
        })
}

fn request_id() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), wire_string(10)).prop_map(|(some, text)| some.then_some(text))
}

/// An op-specific result payload like the ones the daemon actually
/// builds: flat objects of strings, numbers, bools, and nulls.
fn result_payload() -> impl Strategy<Value = Value> {
    proptest::collection::vec((0usize..26, 0u8..4, wire_string(8), 0u64..(1 << 53)), 0..6).prop_map(
        |fields| {
            let mut pairs: Vec<(String, Value)> = Vec::new();
            for (key_idx, tag, text, num) in fields {
                let key = format!("k{key_idx}");
                // Later duplicates would be dropped by get(); keep keys unique.
                if pairs.iter().any(|(k, _)| *k == key) {
                    continue;
                }
                let value = match tag {
                    0 => s(text),
                    1 => n(num as f64),
                    2 => Value::Bool(num % 2 == 0),
                    _ => Value::Null,
                };
                pairs.push((key, value));
            }
            Value::Obj(pairs)
        },
    )
}

fn error_kind() -> impl Strategy<Value = ErrorKind> {
    (0usize..10).prop_map(|i| {
        [
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
        ][i]
    })
}

/// An optional `not_leader` redirect hint, with and without a known
/// leader address.
fn leader_hint() -> impl Strategy<Value = Option<LeaderHint>> {
    (0u8..3, wire_string(12), task_id()).prop_map(|(tag, addr, epoch)| match tag {
        0 => None,
        1 => Some(LeaderHint {
            leader_addr: None,
            epoch,
        }),
        _ => Some(LeaderHint {
            leader_addr: Some(addr),
            epoch,
        }),
    })
}

fn reply() -> impl Strategy<Value = Reply> {
    (
        request_id(),
        result_payload(),
        (error_kind(), wire_string(16), any::<bool>(), task_id()),
        leader_hint(),
        any::<bool>(),
    )
        .prop_map(
            |(id, result, (kind, message, with_retry, retry), leader, ok)| {
                if ok {
                    Reply::Ok { id, result }
                } else {
                    Reply::Error {
                        id,
                        kind,
                        message,
                        retry_after_ms: with_retry.then_some(retry),
                        leader,
                    }
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Requests survive the wire bit-identically.
    #[test]
    fn request_roundtrips(id in request_id(), req in request()) {
        let envelope = Envelope { id, request: req };
        let line = encode_request(&envelope);
        let back = decode_request(&line);
        prop_assert_eq!(back, Ok(envelope));
    }

    /// Replies survive the wire bit-identically.
    #[test]
    fn reply_roundtrips(r in reply()) {
        let line = encode_reply(&r);
        let back = decode_reply(&line);
        prop_assert_eq!(back, Ok(r));
    }

    /// The decoder is total: any line of printable noise produces either a
    /// valid envelope or a structured error whose reply also encodes and
    /// decodes — never a panic.
    #[test]
    fn arbitrary_lines_never_panic_the_decoder(line in wire_string(64)) {
        match decode_request(&line) {
            Ok(_) => {}
            Err(e) => {
                let reply_line = encode_reply(&e.into_reply());
                let decoded = decode_reply(&reply_line);
                prop_assert!(decoded.is_ok(), "error reply must decode: {:?}", decoded);
            }
        }
    }

    /// Same totality for raw JSON documents that are valid JSON but not
    /// valid protocol: wrong types, wrong version, junk ops.
    #[test]
    fn near_miss_documents_get_structured_errors(
        version in 0u64..4,
        op in wire_string(8),
        task in task_id(),
    ) {
        let line = obj(vec![
            ("v", n(version as f64)),
            ("op", s(op)),
            ("task", n(task as f64)),
        ])
        .to_string();
        match decode_request(&line) {
            Ok(envelope) => {
                // Only a well-formed op at the right version may decode.
                prop_assert_eq!(json::parse(&encode_request(&envelope)).is_ok(), true);
            }
            Err(e) => {
                let reply_line = encode_reply(&e.into_reply());
                prop_assert!(decode_reply(&reply_line).is_ok());
            }
        }
    }

    /// The JSON layer itself roundtrips the payload values the protocol
    /// uses, including awkward strings.
    #[test]
    fn json_value_roundtrips(text in wire_string(24), num in -1.0e12f64..1.0e12) {
        let doc = obj(vec![("text", s(text)), ("num", n(num))]);
        let parsed = json::parse(&doc.to_string());
        prop_assert_eq!(parsed, Ok(doc));
    }

    /// Every finite `f64` — subnormals, 1e308, 17-digit fractions —
    /// survives the codec to the bit (a negative zero comes back
    /// positive): the testbed snapshot stores measured statistics this way.
    #[test]
    fn finite_numbers_roundtrip_bit_for_bit(x in any::<f64>()) {
        if !x.is_finite() {
            return Ok(());
        }
        let back = json::parse(&n(x).to_string()).ok().and_then(|v| v.as_f64());
        prop_assert_eq!(back.map(f64::to_bits), Some((x + 0.0).to_bits()), "{}", x);
    }
}
