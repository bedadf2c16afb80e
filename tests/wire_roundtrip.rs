//! Property tests for the wire protocol: every frame type — requests over
//! arbitrary records/predicates/branch sets, every reply shape, record and
//! annotated batches, typed error payloads, the hello handshake, and the
//! framing layer itself — must decode back to exactly what was encoded,
//! under arbitrary schemas.

use decibel::common::ids::{BranchId, CommitId};
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::common::{DbError, DetRng, Projection};
use decibel::core::query::{AggKind, Predicate};
use decibel::core::types::{Conflict, MergePolicy, MergeResult, VersionRef};
use decibel::wire::frame::{read_frame, write_frame};
use decibel::wire::proto::{
    decode_error, encode_error, BatchStream, Hello, Reply, Request, Response,
};
use proptest::prelude::*;

/// An arbitrary schema: 1–16 columns, either width.
fn schema_from(cols: usize, wide: bool) -> Schema {
    Schema::new(
        (cols % 16) + 1,
        if wide {
            ColumnType::U64
        } else {
            ColumnType::U32
        },
    )
}

/// An arbitrary record valid under `schema` (values masked to the column
/// width — the fixed-width image cannot carry wider values).
fn rng_record(rng: &mut DetRng, schema: &Schema) -> Record {
    let mask = match schema.column_type() {
        ColumnType::U32 => u32::MAX as u64,
        ColumnType::U64 => u64::MAX,
    };
    Record::new(
        rng.next_u64(),
        (0..schema.num_columns())
            .map(|_| rng.next_u64() & mask)
            .collect(),
    )
}

/// An arbitrary predicate tree of bounded depth.
fn rng_predicate(rng: &mut DetRng, depth: u32) -> Predicate {
    let leaf_only = depth >= 6;
    match rng.below(if leaf_only { 8 } else { 11 }) {
        0 => Predicate::True,
        1 => Predicate::KeyEq(rng.next_u64()),
        2 => Predicate::KeyRange(rng.next_u64(), rng.next_u64()),
        3 => Predicate::ColEq(rng.below_usize(16), rng.next_u64()),
        4 => Predicate::ColNe(rng.below_usize(16), rng.next_u64()),
        5 => Predicate::ColLt(rng.below_usize(16), rng.next_u64()),
        6 => Predicate::ColGe(rng.below_usize(16), rng.next_u64()),
        7 => Predicate::ColMod(rng.below_usize(16), rng.next_u64() | 1, rng.next_u64()),
        8 => rng_predicate(rng, depth + 1).and(rng_predicate(rng, depth + 1)),
        9 => rng_predicate(rng, depth + 1).or(rng_predicate(rng, depth + 1)),
        _ => rng_predicate(rng, depth + 1).not(),
    }
}

/// An arbitrary branch/commit name (includes non-ASCII).
fn rng_name(rng: &mut DetRng) -> String {
    const ALPHABET: [char; 8] = ['a', 'Z', '0', '-', '_', 'é', '分', '🦀'];
    (0..rng.below_usize(12))
        .map(|_| *rng.choose(&ALPHABET))
        .collect()
}

/// An arbitrary projection: All half the time, otherwise a random column
/// subset (possibly empty — a count-style scan ships header + key only).
fn rng_projection(rng: &mut DetRng, schema: &Schema) -> Projection {
    if rng.chance(1, 2) {
        Projection::All
    } else {
        let cols: Vec<usize> = (0..rng.below_usize(schema.num_columns() + 1))
            .map(|_| rng.below_usize(schema.num_columns()))
            .collect();
        Projection::of(&cols)
    }
}

fn rng_version(rng: &mut DetRng) -> VersionRef {
    if rng.chance(1, 2) {
        VersionRef::Branch(BranchId(rng.next_u32()))
    } else {
        VersionRef::Commit(CommitId(rng.next_u64()))
    }
}

fn rng_policy(rng: &mut DetRng) -> MergePolicy {
    let prefer_left = rng.chance(1, 2);
    if rng.chance(1, 2) {
        MergePolicy::TwoWay { prefer_left }
    } else {
        MergePolicy::ThreeWay { prefer_left }
    }
}

/// One of every request shape, fields drawn from `rng`.
fn all_requests(rng: &mut DetRng, schema: &Schema) -> Vec<Request> {
    vec![
        Request::CheckoutBranch {
            name: rng_name(rng),
        },
        Request::CheckoutCommit {
            commit: CommitId(rng.next_u64()),
        },
        Request::Branch {
            name: rng_name(rng),
        },
        Request::LookupBranch {
            name: rng_name(rng),
        },
        Request::Begin,
        Request::Insert {
            record: rng_record(rng, schema),
        },
        Request::Update {
            record: rng_record(rng, schema),
        },
        Request::Delete {
            key: rng.next_u64(),
        },
        Request::Get {
            key: rng.next_u64(),
        },
        Request::Commit,
        Request::Rollback,
        Request::ScanSession,
        Request::Collect {
            version: rng_version(rng),
            predicate: rng_predicate(rng, 0),
            projection: rng_projection(rng, schema),
        },
        Request::Count {
            version: rng_version(rng),
            predicate: rng_predicate(rng, 0),
        },
        Request::Aggregate {
            version: rng_version(rng),
            column: rng.below_usize(16),
            agg: *rng.choose(&[
                AggKind::Count,
                AggKind::Sum,
                AggKind::Min,
                AggKind::Max,
                AggKind::Avg,
            ]),
            predicate: rng_predicate(rng, 0),
        },
        Request::MultiScan {
            branches: (0..rng.below_usize(20))
                .map(|_| BranchId(rng.next_u32()))
                .collect(),
            predicate: rng_predicate(rng, 0),
            parallel: rng.below_usize(64),
            projection: rng_projection(rng, schema),
        },
        Request::Merge {
            into: BranchId(rng.next_u32()),
            from: BranchId(rng.next_u32()),
            policy: rng_policy(rng),
        },
        Request::Flush,
    ]
}

/// One of every reply shape, fields drawn from `rng`.
fn all_replies(rng: &mut DetRng, schema: &Schema) -> Vec<Reply> {
    vec![
        Reply::Unit,
        Reply::Branch(BranchId(rng.next_u32())),
        Reply::Commit(CommitId(rng.next_u64())),
        Reply::Bool(rng.chance(1, 2)),
        Reply::MaybeRecord(None),
        Reply::MaybeRecord(Some(rng_record(rng, schema))),
        Reply::Rows(rng.next_u64()),
        Reply::Scalar(rng.f64() * 1e12 - 5e11),
        Reply::Merge(MergeResult {
            commit: CommitId(rng.next_u64()),
            conflicts: (0..rng.below_usize(6))
                .map(|_| Conflict {
                    key: rng.next_u64(),
                    fields: (0..rng.below_usize(5))
                        .map(|_| rng.below_usize(16))
                        .collect(),
                    resolved_left: rng.chance(1, 2),
                })
                .collect(),
            records_changed: rng.next_u64(),
            bytes_compared: rng.next_u64(),
        }),
    ]
}

/// One of every error variant, payloads drawn from `rng`.
fn all_errors(rng: &mut DetRng) -> Vec<DbError> {
    vec![
        DbError::io(rng_name(rng), std::io::Error::other("boom")),
        DbError::UnknownBranch(rng_name(rng)),
        DbError::UnknownCommit(rng.next_u64()),
        DbError::NotBranchHead {
            branch: rng_name(rng),
        },
        DbError::DuplicateKey {
            key: rng.next_u64(),
        },
        DbError::KeyNotFound {
            key: rng.next_u64(),
        },
        DbError::SchemaMismatch {
            expected: rng.below_usize(300),
            actual: rng.below_usize(300),
        },
        DbError::MergeConflicts {
            count: rng.below_usize(1000),
        },
        DbError::corrupt(rng_name(rng)),
        DbError::LockContention {
            what: rng_name(rng),
        },
        DbError::TxnOpen {
            what: rng_name(rng),
        },
        DbError::ReadOnlyCheckout {
            commit: rng.next_u64(),
        },
        DbError::JournalDiverged,
        DbError::protocol(rng_name(rng)),
        DbError::Invalid(rng_name(rng)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Every request frame type round-trips under an arbitrary schema.
    #[test]
    fn request_frames_round_trip(seed in any::<u64>(), cols in 0usize..32, wide in any::<bool>()) {
        let schema = schema_from(cols, wide);
        let mut rng = DetRng::seed_from_u64(seed);
        for req in all_requests(&mut rng, &schema) {
            let bytes = req.encode(&schema).unwrap();
            prop_assert_eq!(Request::decode(&bytes, &schema).unwrap(), req);
        }
    }

    /// Every reply frame type round-trips under an arbitrary schema.
    #[test]
    fn reply_frames_round_trip(seed in any::<u64>(), cols in 0usize..32, wide in any::<bool>()) {
        let schema = schema_from(cols, wide);
        let mut rng = DetRng::seed_from_u64(seed);
        for reply in all_replies(&mut rng, &schema) {
            let bytes = Response::Ok(reply.clone()).encode(&schema).unwrap();
            match Response::decode(&bytes, &schema).unwrap() {
                Response::Ok(back) => prop_assert_eq!(back, reply),
                other => prop_assert!(false, "expected Ok, got {:?}", other),
            }
        }
    }

    /// Record batches of arbitrary size round-trip under an arbitrary
    /// projection: what comes back is exactly the input projected
    /// ([`Record::project`] — non-projected fields read `0`).
    #[test]
    fn batch_frames_round_trip(seed in any::<u64>(), cols in 0usize..32, wide in any::<bool>(), n in 0usize..300) {
        let schema = schema_from(cols, wide);
        let mut rng = DetRng::seed_from_u64(seed);
        let projection = rng_projection(&mut rng, &schema);
        let rows: Vec<Record> = (0..n).map(|_| rng_record(&mut rng, &schema)).collect();
        let expect: Vec<Record> = rows.iter().map(|r| {
            let mut r = r.clone();
            r.project(&projection);
            r
        }).collect();
        let bytes = Response::Batch(projection.clone(), rows).encode(&schema).unwrap();
        match Response::decode(&bytes, &schema).unwrap() {
            Response::Batch(back_p, back) => {
                prop_assert_eq!(back_p, projection);
                prop_assert_eq!(back, expect);
            }
            other => prop_assert!(false, "expected Batch, got {:?}", other),
        }
    }

    /// Annotated batches (records + live branch sets) round-trip.
    #[test]
    fn annotated_frames_round_trip(seed in any::<u64>(), cols in 0usize..32, n in 0usize..200) {
        let schema = schema_from(cols, false);
        let mut rng = DetRng::seed_from_u64(seed);
        let projection = rng_projection(&mut rng, &schema);
        let rows: Vec<(Record, Vec<BranchId>)> = (0..n)
            .map(|_| {
                let rec = rng_record(&mut rng, &schema);
                let branches = (0..rng.below_usize(8)).map(|_| BranchId(rng.next_u32())).collect();
                (rec, branches)
            })
            .collect();
        let expect: Vec<(Record, Vec<BranchId>)> = rows.iter().map(|(r, b)| {
            let mut r = r.clone();
            r.project(&projection);
            (r, b.clone())
        }).collect();
        let bytes = Response::AnnotatedBatch(projection.clone(), rows).encode(&schema).unwrap();
        match Response::decode(&bytes, &schema).unwrap() {
            Response::AnnotatedBatch(back_p, back) => {
                prop_assert_eq!(back_p, projection);
                prop_assert_eq!(back, expect);
            }
            other => prop_assert!(false, "expected AnnotatedBatch, got {:?}", other),
        }
    }

    /// Server-produced batch frames — written row by row from serialized
    /// slots by [`BatchStream`], as the streaming server does — decode to
    /// the projected rows; truncated anywhere they decode to a typed error
    /// (never a short batch), and with any one byte flipped they decode to
    /// *something* without panicking.
    #[test]
    fn server_produced_batch_frames_survive_fuzzing(
        seed in any::<u64>(), cols in 0usize..32, wide in any::<bool>(),
        n in 1usize..120, annotated in any::<bool>(),
    ) {
        let schema = schema_from(cols, wide);
        let mut rng = DetRng::seed_from_u64(seed);
        let projection = rng_projection(&mut rng, &schema);
        let rows: Vec<(Record, Vec<BranchId>)> = (0..n)
            .map(|_| {
                let rec = rng_record(&mut rng, &schema);
                let live = (0..1 + rng.below_usize(6)).map(|_| BranchId(rng.next_u32())).collect();
                (rec, live)
            })
            .collect();
        let mut framed = Vec::new();
        let mut frames = BatchStream::new(&mut framed, &schema, &projection, annotated, n + 3);
        for (rec, live) in &rows {
            frames.push_row(&rec.to_bytes(&schema).unwrap(), live);
        }
        frames.end_batch(n);
        let payload = read_frame(&mut &framed[..]).unwrap().unwrap();

        let expect: Vec<(Record, Vec<BranchId>)> = rows.iter().map(|(r, live)| {
            let mut r = r.clone();
            r.project(&projection);
            (r, if annotated { live.clone() } else { Vec::new() })
        }).collect();
        let rows_of = |resp: Response| match resp {
            Response::Batch(_, back) => back.into_iter().map(|r| (r, Vec::new())).collect(),
            Response::AnnotatedBatch(_, back) => back,
            other => panic!("expected a batch, got {other:?}"),
        };
        prop_assert_eq!(rows_of(Response::decode(&payload, &schema).unwrap()), expect);

        for _ in 0..32 {
            let cut = rng.below_usize(payload.len());
            prop_assert!(Response::decode(&payload[..cut], &schema).is_err(), "cut at {}", cut);
            let mut flipped = payload.clone();
            flipped[cut] ^= 1 << rng.below_usize(8);
            let _ = Response::decode(&flipped, &schema);
        }
    }

    /// Every error variant crosses the wire with its code, structure, and
    /// rendered message intact. (`Io` is the one exception on message
    /// text: an OS error object cannot cross the wire, so its full
    /// rendering is preserved *inside* the reconstructed context instead
    /// of reproduced byte-for-byte.)
    #[test]
    fn error_frames_round_trip(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        for err in all_errors(&mut rng) {
            let back = decode_error(&encode_error(&err)).unwrap();
            prop_assert_eq!(back.code(), err.code());
            if matches!(err, DbError::Io { .. }) {
                prop_assert!(back.to_string().contains(&err.to_string()));
            } else {
                prop_assert_eq!(back.to_string(), err.to_string());
            }
        }
        // And through the full response codec.
        let schema = schema_from(3, false);
        for err in all_errors(&mut rng) {
            let code = err.code();
            let display = err.to_string();
            let is_io = matches!(err, DbError::Io { .. });
            let bytes = Response::Err(err).encode(&schema).unwrap();
            match Response::decode(&bytes, &schema).unwrap() {
                Response::Err(back) => {
                    prop_assert_eq!(back.code(), code);
                    if is_io {
                        prop_assert!(back.to_string().contains(&display));
                    } else {
                        prop_assert_eq!(back.to_string(), display);
                    }
                }
                other => prop_assert!(false, "expected Err, got {:?}", other),
            }
        }
    }

    /// The hello frame round-trips for arbitrary schemas and engine names.
    #[test]
    fn hello_frames_round_trip(seed in any::<u64>(), cols in 0usize..512, wide in any::<bool>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        let hello = Hello {
            protocol: decibel::wire::PROTOCOL_VERSION,
            schema: Schema::new(cols, if wide { ColumnType::U64 } else { ColumnType::U32 }),
            engine: rng_name(&mut rng),
        };
        prop_assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);
    }

    /// The framing layer itself: arbitrary payload sequences keep their
    /// boundaries and bytes.
    #[test]
    fn frames_round_trip(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..2048), 0..12))
    {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut cursor = &buf[..];
        for p in &payloads {
            prop_assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), p.clone());
        }
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    /// Truncating any encoded request by at least one byte never panics:
    /// it decodes to an error or (for trailing-string ops) a shorter valid
    /// message — never UB, never an OOM.
    #[test]
    fn truncated_requests_never_panic(seed in any::<u64>(), cut in 1usize..32) {
        let schema = schema_from(4, false);
        let mut rng = DetRng::seed_from_u64(seed);
        for req in all_requests(&mut rng, &schema) {
            let bytes = req.encode(&schema).unwrap();
            if bytes.len() <= cut {
                continue;
            }
            let _ = Request::decode(&bytes[..bytes.len() - cut], &schema);
        }
    }
}
