//! Property-based tests for the log2-bucketed histogram: percentile
//! estimates must stay within one bucket width of the exact nearest-rank
//! answer for arbitrary value sets, and snapshot algebra (merge/minus)
//! must be exact regardless of how values are split across shards — and for
//! the admission token bucket: over any schedule it never admits more than
//! `burst + rate·elapsed` requests, its token count never leaves
//! `[0, burst]`, and refill is monotone in time — and for the code the
//! pollers run on client bytes: the request parser yields the same requests
//! and the same error however a byte stream is split into reads, and
//! neither it nor the JSON parser panics on random or mutated input.

use holistix_corpus::json::JsonValue;
use holistix_serve::http::RequestParser;
use holistix_serve::{HistogramSnapshot, LogHistogram, TokenBucket};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Exact nearest-rank percentile over the raw values.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// The inclusive bucket the histogram files `value` under.
fn bucket_of(value: u64) -> (u64, u64) {
    holistix_serve::obs::bucket_bounds(value)
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let histogram = LogHistogram::new();
    for &v in values {
        histogram.record(v);
    }
    histogram.snapshot()
}

proptest! {
    /// The histogram percentile never undershoots the exact nearest-rank
    /// value's bucket lower bound and never overshoots its upper bound:
    /// the estimate lands inside the bucket holding the true answer (or,
    /// equivalently, within one bucket width of it).
    #[test]
    fn percentile_within_one_bucket_of_exact(
        mut values in proptest::collection::vec(0u64..2_000_000_000, 1..200),
        q in 0.01f64..1.0,
    ) {
        let snapshot = snapshot_of(&values);
        values.sort_unstable();
        let exact = exact_percentile(&values, q);
        let (lower, upper) = bucket_of(exact);
        let estimate = snapshot.percentile(q).expect("non-empty");
        prop_assert!(
            estimate >= lower && estimate <= upper,
            "q={q}: estimate {estimate} outside bucket [{lower}, {upper}] of exact {exact}"
        );
    }

    /// Small values (below two octaves) are recorded exactly, so the
    /// percentile must equal the exact nearest-rank answer — zero error.
    #[test]
    fn percentile_is_exact_below_the_first_log_octave(
        mut values in proptest::collection::vec(0u64..32, 1..100),
        q in 0.01f64..1.0,
    ) {
        let snapshot = snapshot_of(&values);
        values.sort_unstable();
        prop_assert_eq!(snapshot.percentile(q), Some(exact_percentile(&values, q)));
    }

    /// Count, sum, and max survive the bucketing untouched.
    #[test]
    fn count_sum_max_are_exact(values in proptest::collection::vec(0u64..2_000_000_000, 0..100)) {
        let snapshot = snapshot_of(&values);
        prop_assert_eq!(snapshot.count(), values.len() as u64);
        prop_assert_eq!(snapshot.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(snapshot.max(), values.iter().copied().max().unwrap_or(0));
    }

    /// Recording values across two shards and merging the snapshots gives
    /// the same histogram as recording everything into one — and `minus`
    /// recovers the second shard from the merged total.
    #[test]
    fn merge_equals_single_shard_and_minus_inverts(
        left in proptest::collection::vec(0u64..2_000_000_000, 0..60),
        right in proptest::collection::vec(0u64..2_000_000_000, 0..60),
    ) {
        let mut merged = snapshot_of(&left);
        merged.merge(&snapshot_of(&right));

        let combined: Vec<u64> = left.iter().chain(right.iter()).copied().collect();
        let whole = snapshot_of(&combined);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.sum(), whole.sum());
        prop_assert_eq!(merged.max(), whole.max());
        if !combined.is_empty() {
            prop_assert_eq!(merged.percentile(0.5), whole.percentile(0.5));
            prop_assert_eq!(merged.percentile(0.99), whole.percentile(0.99));
        }

        let delta = whole.minus(&snapshot_of(&left));
        prop_assert_eq!(delta.count(), right.len() as u64);
        prop_assert_eq!(delta.sum(), right.iter().sum::<u64>());
    }
}

proptest! {
    /// The rate-limit contract: over any arrival schedule, at most
    /// `burst + rate·elapsed` requests are ever admitted — the bucket starts
    /// full (`burst`) and can earn at most `rate` tokens per second, so no
    /// interleaving of bursts and pauses beats that line. Checked at every
    /// point of the schedule, not just the end.
    #[test]
    fn bucket_never_admits_more_than_burst_plus_rate_times_elapsed(
        rate in 0.0f64..50.0,
        burst in 0.0f64..20.0,
        schedule in collection::vec((0u64..400, 0usize..4), 1..50),
    ) {
        let base = Instant::now();
        let mut bucket = TokenBucket::new(rate, burst, base);
        let mut now = base;
        let mut admitted = 0u64;
        for &(dt_ms, attempts) in &schedule {
            now += Duration::from_millis(dt_ms);
            for _ in 0..attempts {
                if bucket.try_take(now) {
                    admitted += 1;
                }
            }
            let elapsed = now.duration_since(base).as_secs_f64();
            let ceiling = burst + rate * elapsed;
            prop_assert!(
                admitted as f64 <= ceiling + 1e-6,
                "admitted {admitted} > burst {burst} + rate {rate} * elapsed {elapsed}"
            );
        }
    }

    /// Refill never overshoots the cap and takes never drive the count
    /// negative, even when the schedule hands the bucket a non-monotone
    /// clock (stale `now` values jump backwards between calls).
    #[test]
    fn bucket_tokens_stay_within_zero_and_burst(
        rate in 0.0f64..50.0,
        burst in 0.0f64..20.0,
        schedule in collection::vec((0u64..2_000, 0usize..4), 1..50),
    ) {
        let base = Instant::now();
        let mut bucket = TokenBucket::new(rate, burst, base);
        prop_assert!(bucket.tokens() >= 0.0 && bucket.tokens() <= burst);
        for &(offset_ms, attempts) in &schedule {
            // Absolute (not cumulative) offsets: successive entries jump
            // forwards and backwards arbitrarily.
            let now = base + Duration::from_millis(offset_ms);
            for _ in 0..attempts {
                bucket.try_take(now);
                prop_assert!(
                    bucket.tokens() >= 0.0 && bucket.tokens() <= burst,
                    "tokens {} outside [0, {burst}]",
                    bucket.tokens()
                );
            }
        }
    }

    /// Refill is monotone in elapsed time: starting from the same drained
    /// bucket, a request at a later instant is admitted whenever the same
    /// request at an earlier instant would have been.
    #[test]
    fn bucket_refill_is_monotone_in_time(
        rate in 0.1f64..50.0,
        burst in 1.0f64..10.0,
        t1_ms in 0u64..5_000,
        extra_ms in 0u64..5_000,
        drains in 0usize..15,
    ) {
        let base = Instant::now();
        let mut bucket = TokenBucket::new(rate, burst, base);
        for _ in 0..drains {
            bucket.try_take(base);
        }
        let mut earlier = bucket.clone();
        let mut later = bucket;
        let earlier_admits = earlier.try_take(base + Duration::from_millis(t1_ms));
        let later_admits = later.try_take(base + Duration::from_millis(t1_ms + extra_ms));
        prop_assert!(
            !earlier_admits || later_admits,
            "admitted at {t1_ms}ms but refused {extra_ms}ms later"
        );
    }
}

/// The fields of one parsed request, comparable across parses.
type Parsed = (String, String, String, String, String, bool);

/// Feed `stream` to a fresh parser in pieces cut at `cuts` (byte offsets, in
/// any order), draining every complete request after each piece, until the
/// parser errors: the requests parsed, then the error, if any.
fn parse_in_pieces(stream: &[u8], cuts: &[usize]) -> (Vec<Parsed>, Option<String>) {
    let mut ends: Vec<usize> = cuts.iter().map(|&cut| cut.min(stream.len())).collect();
    ends.push(stream.len());
    ends.sort_unstable();
    let mut parser = RequestParser::new();
    let mut parsed = Vec::new();
    let mut start = 0;
    for end in ends {
        parser.feed(&stream[start..end]);
        start = end;
        loop {
            match parser.poll_request() {
                Ok(Some(r)) => parsed.push((r.method, r.path, r.query, r.accept, r.body, r.close)),
                Ok(None) => break,
                Err(e) => return (parsed, Some(e.to_string())),
            }
        }
    }
    (parsed, None)
}

/// One request's bytes: well-formed requests with and without bodies (CRLF
/// and bare-LF framing), and the malformed kinds the parser must reject or
/// wait out — a non-numeric `Content-Length`, a body shorter than its
/// length, an oversized head, two differing `Content-Length`s, a chunked
/// body, and raw payload bytes.
fn request_bytes(template: usize, payload: &str) -> Vec<u8> {
    let n = payload.len();
    match template {
        0 => "GET /healthz HTTP/1.1\r\n\r\n".to_string(),
        1 => format!(
            "POST /predict?trace=1 HTTP/1.1\r\nContent-Length: {n}\r\nAccept: text/plain\r\n\r\n{payload}"
        ),
        2 => format!("POST /explain HTTP/1.1\ncontent-length: {n}\nConnection: close\n\n{payload}"),
        3 => format!("POST /p HTTP/1.1\r\nContent-Length: {payload}\r\n\r\n"),
        4 => format!("GET /{payload} HTTP/1.1\r\nX-Note: {payload}\r\n\r\n"),
        5 => format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n{payload}", n + 3),
        6 => format!("GET / HTTP/1.1\r\nX-Junk: {}\r\n\r\n", "A".repeat(17_000)),
        7 => format!(
            "POST /p HTTP/1.1\r\nContent-Length: {n}\r\nContent-Length: {}\r\n\r\n{payload}",
            n + 1
        ),
        8 => format!(
            "POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{n:x}\r\n{payload}\r\n0\r\n\r\n"
        ),
        _ => payload.to_string(),
    }
    .into_bytes()
}

/// A byte stream of pipelined requests.
fn stream_of(requests: &[(usize, String)]) -> Vec<u8> {
    requests
        .iter()
        .flat_map(|(template, payload)| request_bytes(*template, payload))
        .collect()
}

/// `bytes` after each `(op, at, insert)` edit: truncate at `at`, flip the
/// bits of the byte at `at` with `insert[0]`, or splice `insert` in at `at`
/// (offsets wrap to the current length).
fn mutate(mut bytes: Vec<u8>, edits: &[(usize, usize, Vec<u32>)]) -> Vec<u8> {
    for (op, at, insert) in edits {
        let insert: Vec<u8> = insert.iter().map(|&b| b as u8).collect();
        let at = at % (bytes.len() + 1);
        match op {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= insert.first().copied().unwrap_or(0xFF) | 1,
            _ => {
                bytes.splice(at..at, insert);
            }
        }
    }
    bytes
}

fn random_bytes(bytes: Vec<u32>) -> Vec<u8> {
    bytes.into_iter().map(|b| b as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A poller reads whatever the socket hands it: the same stream fed
    /// whole, cut at random points or one byte at a time parses to the same
    /// requests and the same error.
    #[test]
    fn request_parser_is_fragmentation_invariant(
        requests in collection::vec((0usize..10, ".{0,24}"), 1..6),
        cuts in collection::vec(0.0f64..1.0, 0..12),
    ) {
        let stream = stream_of(&requests);
        let whole = parse_in_pieces(&stream, &[]);
        let cuts: Vec<usize> = cuts.iter().map(|f| (f * stream.len() as f64) as usize).collect();
        prop_assert_eq!(&parse_in_pieces(&stream, &cuts), &whole);
        let every_byte: Vec<usize> = (1..stream.len()).collect();
        prop_assert_eq!(&parse_in_pieces(&stream, &every_byte), &whole);
    }

    /// No byte stream kills a poller: random bytes, and valid request
    /// streams truncated, bit-flipped and spliced, parse to requests or an
    /// error — the same however they are cut.
    #[test]
    fn request_parser_never_panics_on_random_or_mutated_bytes(
        noise in collection::vec(0u32..256, 0..300),
        requests in collection::vec((0usize..10, ".{0,24}"), 1..4),
        edits in collection::vec((0usize..3, 0usize..20_000, collection::vec(0u32..256, 1..8)), 1..5),
        cuts in collection::vec(0usize..20_000, 0..8),
    ) {
        for stream in [random_bytes(noise), mutate(stream_of(&requests), &edits)] {
            let whole = parse_in_pieces(&stream, &[]);
            prop_assert_eq!(&parse_in_pieces(&stream, &cuts), &whole);
        }
    }

    /// No request body kills a poller: random text, random bytes, and valid
    /// `/predict` and `/explain` bodies truncated, bit-flipped and spliced
    /// parse to a value or an error.
    #[test]
    fn json_parse_never_panics_on_random_or_mutated_bodies(
        text in ".{0,80}",
        noise in collection::vec(0u32..256, 0..120),
        body in 0usize..3,
        edits in collection::vec((0usize..3, 0usize..200, collection::vec(0u32..256, 1..8)), 1..5),
    ) {
        let valid = [
            r#"{"texts":["i feel alone","my job drains me"],"model":"LR"}"#,
            r#"{"text":"i feel alone","top_k":3,"n_samples":50}"#,
            r#"[[[{"a":[1,-2.5e3,true,null,"\u00e9\n"]}]]]"#,
        ][body];
        let mutated = mutate(valid.as_bytes().to_vec(), &edits);
        for input in [
            text,
            String::from_utf8_lossy(&random_bytes(noise)).into_owned(),
            String::from_utf8_lossy(&mutated).into_owned(),
            "[".repeat(100_000),
        ] {
            let _ = JsonValue::parse(&input);
        }
    }
}
