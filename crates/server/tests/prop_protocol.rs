//! The wire decoders against hostile input: random bytes and damaged valid
//! encodings never panic `decode_request` / `decode_response`, decoding an
//! N-byte payload never allocates more than 64·N + 4 KiB (a count prefix
//! cannot claim more items than the bytes behind it hold), and every
//! `Request` and `Response` variant round-trips.

use cachekv_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, MAX_FRAME, OP_BATCH,
    OP_REPL_ROUND, ST_BATCH, ST_SCAN,
};
use cachekv_server::{BatchOp, BatchReply, ReplWrite, Request, Response, HELLO_ADMIN, HELLO_REPL};
use proptest::prelude::*;
use proptest::strategy::Union;
use proptest::test_runner::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::mem::discriminant;

/// Counts the bytes each thread asks the allocator for, so a test reads
/// what its own decode allocated while other tests run on other threads.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the bytes this thread allocated while it ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// The allocation ceiling for decoding an `n`-byte payload.
fn ceiling(n: usize) -> usize {
    64 * n + 4096
}

/// Decode `payload` both ways (a decoder must survive any bytes, whichever
/// direction they were meant for) and check the allocation ceiling.
fn decode_both(payload: &[u8]) -> Result<(), TestCaseError> {
    let (_, req_bytes) = allocated_by(|| decode_request(payload));
    let (_, resp_bytes) = allocated_by(|| decode_response(payload));
    for (what, bytes) in [("request", req_bytes), ("response", resp_bytes)] {
        prop_assert!(
            bytes <= ceiling(payload.len()),
            "{what} decode of {} bytes allocated {bytes}",
            payload.len()
        );
    }
    Ok(())
}

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

/// Printable ASCII, so the lossy UTF-8 decode of STATS / errors is exact.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..24).prop_map(|b| String::from_utf8(b).unwrap())
}

fn batch_op() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (bytes(12), bytes(24)).prop_map(|(key, value)| BatchOp::Put { key, value }),
        bytes(12).prop_map(|key| BatchOp::Delete { key }),
        bytes(12).prop_map(|key| BatchOp::Get { key }),
    ]
}

fn repl_write() -> impl Strategy<Value = ReplWrite> {
    prop_oneof![
        (bytes(12), bytes(24)).prop_map(|(key, value)| ReplWrite::Put { key, value }),
        bytes(12).prop_map(|key| ReplWrite::Delete { key }),
    ]
}

/// Every `Request` variant, equally likely.
fn request() -> Union<Request> {
    prop_oneof![
        bytes(16).prop_map(|key| Request::Get { key }),
        (bytes(16), bytes(32)).prop_map(|(key, value)| Request::Put { key, value }),
        bytes(16).prop_map(|key| Request::Delete { key }),
        prop::collection::vec(batch_op(), 0..6).prop_map(|ops| Request::Batch { ops }),
        Just(Request::Stats),
        any::<bool>().prop_map(|sync| Request::Ping { sync }),
        (bytes(8), bytes(8), any::<u32>(), any::<bool>(), bytes(8)).prop_map(
            |(start, end, limit, resume, key)| Request::Scan {
                start,
                end,
                limit,
                resume_after: resume.then_some(key),
            }
        ),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
            prop::collection::vec(repl_write(), 0..6)
        )
            .prop_map(|(shard, seq, frag, last, writes)| Request::ReplRound {
                shard,
                seq,
                frag,
                last,
                writes,
            }),
        prop_oneof![Just(HELLO_REPL), Just(HELLO_ADMIN)].prop_map(|role| Request::Hello { role }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..5),
            any::<u32>()
        )
            .prop_map(|(shard, seq, dimm_sizes, crc)| Request::SnapBegin {
                shard,
                seq,
                dimm_sizes,
                crc,
            }),
        (any::<u32>(), any::<u64>(), bytes(64)).prop_map(|(shard, offset, data)| {
            Request::SnapChunk {
                shard,
                offset,
                data,
            }
        }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(shard, total_len)| Request::SnapEnd { shard, total_len }),
        any::<u64>().prop_map(|epoch| Request::Promote { epoch }),
    ]
}

/// Every `Response` variant, equally likely.
fn response() -> Union<Response> {
    let batch_reply = prop_oneof![
        Just(BatchReply::Ok),
        bytes(24).prop_map(BatchReply::Value),
        Just(BatchReply::NotFound),
        text().prop_map(BatchReply::Err),
    ];
    prop_oneof![
        Just(Response::Ok),
        bytes(32).prop_map(Response::Value),
        Just(Response::NotFound),
        prop::collection::vec(batch_reply, 0..6).prop_map(Response::Batch),
        text().prop_map(Response::Stats),
        text().prop_map(Response::Err),
        (
            prop::collection::vec((bytes(8), bytes(16)), 0..6),
            any::<bool>()
        )
            .prop_map(|(items, more)| Response::Scan { items, more }),
        Just(Response::Busy),
    ]
}

/// Encode a message, then damage it: a truncated prefix (cut < len) and a
/// copy with one bit flipped.
fn damaged(payload: &[u8], cut: u64, bit: u64) -> [Vec<u8>; 2] {
    let truncated = payload[..cut as usize % payload.len()].to_vec();
    let mut flipped = payload.to_vec();
    let bit = bit as usize % (payload.len() * 8);
    flipped[bit / 8] ^= 1 << (bit % 8);
    [truncated, flipped]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_decode_without_panic_within_the_ceiling(payload in bytes(96)) {
        decode_both(&payload)?;
    }

    #[test]
    fn damaged_requests_decode_without_panic_within_the_ceiling(
        req in request(),
        id in any::<u64>(),
        cut in any::<u64>(),
        bit in any::<u64>(),
    ) {
        for payload in damaged(&encode_request(id, &req), cut, bit) {
            decode_both(&payload)?;
        }
    }

    #[test]
    fn damaged_responses_decode_without_panic_within_the_ceiling(
        resp in response(),
        id in any::<u64>(),
        cut in any::<u64>(),
        bit in any::<u64>(),
    ) {
        for payload in damaged(&encode_response(id, &resp), cut, bit) {
            decode_both(&payload)?;
        }
    }
}

/// Round-trip `samples` draws of `strategy` through `codec`, and return
/// how many distinct variants were drawn.
fn roundtrip_all<T: Clone + PartialEq + std::fmt::Debug>(
    strategy: &Union<T>,
    codec: impl Fn(u64, &T) -> (u64, T),
) -> usize {
    let mut variants = HashSet::new();
    for seed in 0..512u64 {
        let msg = strategy.generate(&mut TestRng::seed(seed));
        let id = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_eq!(codec(id, &msg), (id, msg.clone()), "seed {seed}");
        variants.insert(discriminant(&msg));
    }
    variants.len()
}

#[test]
fn every_request_variant_roundtrips() {
    let seen = roundtrip_all(&request(), |id, req| {
        decode_request(&encode_request(id, req)).expect("valid encoding decodes")
    });
    assert_eq!(seen, 13, "every Request variant drawn");
}

#[test]
fn every_response_variant_roundtrips() {
    let seen = roundtrip_all(&response(), |id, resp| {
        decode_response(&encode_response(id, resp)).expect("valid encoding decodes")
    });
    assert_eq!(seen, 8, "every Response variant drawn");
}

#[test]
fn poisoned_counts_are_refused_before_allocating() {
    // [id][opcode or status][fixed fields][count]: a few bytes claiming
    // millions (or billions) of items.
    let payload = |tag: u8, fields: &[u8], count: u32| {
        let mut p = 9u64.to_le_bytes().to_vec();
        p.push(tag);
        p.extend_from_slice(fields);
        p.extend_from_slice(&count.to_le_bytes());
        p
    };
    for count in [u32::MAX, (MAX_FRAME / 8) as u32] {
        let cases = [
            ("BATCH request", payload(OP_BATCH, &[], count), true),
            // shard, seq, frag, last: 30 bytes in all.
            (
                "REPL_ROUND request",
                payload(OP_REPL_ROUND, &[0; 17], count),
                true,
            ),
            ("BATCH response", payload(ST_BATCH, &[], count), false),
            // The `more` flag.
            ("SCAN response", payload(ST_SCAN, &[0], count), false),
        ];
        for (what, p, is_request) in cases {
            let (is_err, bytes) = allocated_by(|| match is_request {
                true => decode_request(&p).is_err(),
                false => decode_response(&p).is_err(),
            });
            assert!(is_err, "{what} claiming {count} items decoded");
            assert!(
                bytes < 4096,
                "{what} of {} bytes claiming {count} items allocated {bytes}",
                p.len()
            );
        }
    }
}
