//! The streamed-scan byte path pins a property, not a timing: what the
//! cursors' byte sink ([`RowSink`] feeding a [`BatchStream`], exactly what
//! the server runs) writes is **byte for byte** the frames
//! `Response::Batch(projection, rows).encode()` /
//! `Response::AnnotatedBatch(..).encode()` would produce for the rows the
//! materializing read returns — for every engine, projection, predicate
//! and chunk size, across backpressure-forced resumes — and
//! `Response::decode` of those bytes gives the rows back. Old clients and
//! `PROTOCOL_VERSION` 2 are therefore untouched by the server no longer
//! building a `Record` per row.

use std::sync::Arc;

use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::cursor::RowSink;
use decibel::core::query::Predicate;
use decibel::core::{Database, EngineKind, VersionRef};
use decibel::pagestore::StoreConfig;
use decibel::wire::frame::{read_frame, write_frame};
use decibel::wire::proto::{self, BatchStream, Response};
use decibel::{Projection, Result};

const COLS: usize = 5;

fn schema() -> Schema {
    Schema::new(COLS, ColumnType::U32)
}

fn rec(key: u64, tag: u64) -> Record {
    Record::new(
        key,
        (0..COLS as u64).map(|c| key * 3 + tag + c * 7).collect(),
    )
}

/// Master with 300 rows over many tiny pages; `dev` forked from it with
/// updates, deletes and inserts; `leaf` forked from `dev` with more — so
/// hybrid and version-first scans cross segments and the bitmap engines'
/// liveness words have holes.
fn build(kind: EngineKind) -> (tempfile::TempDir, Arc<Database>, Vec<BranchId>) {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = StoreConfig::test_default();
    cfg.page_size = 512;
    let db = Database::create(dir.path().join("db"), kind, schema(), &cfg).unwrap();
    let mut s = db.session();
    for k in 0..300 {
        s.insert(rec(k, 0)).unwrap();
    }
    s.commit().unwrap();
    let dev = s.branch("dev").unwrap();
    for k in (0..300).step_by(5) {
        s.update(rec(k, 1000)).unwrap();
    }
    for k in (3..300).step_by(11) {
        s.delete(k).unwrap();
    }
    for k in 300..340 {
        s.insert(rec(k, 5)).unwrap();
    }
    s.commit().unwrap();
    let leaf = s.branch("leaf").unwrap();
    for k in (1..340).step_by(9) {
        if s.get(k).unwrap().is_some() {
            s.update(rec(k, 77)).unwrap();
        }
    }
    s.commit().unwrap();
    (dir, db, vec![BranchId::MASTER, dev, leaf])
}

fn projections() -> Vec<Projection> {
    vec![
        Projection::All,
        Projection::of(&[1, 3]),
        Projection::of(&[]),
    ]
}

fn predicates() -> Vec<Predicate> {
    vec![
        Predicate::True,
        Predicate::ColLt(0, 400),
        Predicate::KeyRange(20, 310).and(Predicate::ColMod(2, 3, 1)),
    ]
}

fn chunk_sizes(projection: &Projection) -> [usize; 3] {
    [1, 7, proto::batch_rows(projection.image_size(&schema()))]
}

/// The server's sink minus the socket: frames accumulate in `out`, and
/// the sink reports backpressure after `accept` chunks per acquisition.
struct FrameSink<'a> {
    frames: BatchStream<'a>,
    accept: usize,
    taken: usize,
}

impl RowSink for FrameSink<'_> {
    fn row(&mut self, slot: &[u8], live: &[BranchId]) -> Result<()> {
        self.frames.push_row(slot, live);
        Ok(())
    }

    fn end_chunk(&mut self, rows: usize) -> Result<bool> {
        self.frames.end_batch(rows);
        self.taken += 1;
        Ok(self.taken < self.accept)
    }
}

/// Drives `stream` (one cursor's `stream` method) to exhaustion through a
/// [`FrameSink`], one acquisition per `accept` chunks.
fn stream_frames(
    projection: &Projection,
    annotated: bool,
    chunk: usize,
    accept: usize,
    mut stream: impl FnMut(&mut FrameSink<'_>) -> Result<bool>,
) -> Vec<u8> {
    let schema = schema();
    let mut out = Vec::new();
    loop {
        let mut sink = FrameSink {
            frames: BatchStream::new(&mut out, &schema, projection, annotated, chunk),
            accept,
            taken: 0,
        };
        if stream(&mut sink).unwrap() {
            return out;
        }
    }
}

/// `write_frame(Response::encode(..))` of each chunk, concatenated.
fn expected_frames(chunks: impl Iterator<Item = Response>) -> Vec<u8> {
    let mut out = Vec::new();
    for resp in chunks {
        write_frame(&mut out, &resp.encode(&schema()).unwrap()).unwrap();
    }
    out
}

fn decode_frames(mut bytes: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    while let Some(frame) = read_frame(&mut bytes).unwrap() {
        out.push(Response::decode(&frame, &schema()).unwrap());
    }
    out
}

fn select<'a>(
    b: decibel::core::query::ReadBuilder<'a>,
    p: &Projection,
) -> decibel::core::query::ReadBuilder<'a> {
    match p.columns() {
        Some(cols) => b.select(cols),
        None => b,
    }
}

#[test]
fn single_version_stream_is_byte_identical_to_encoded_batches() {
    assert_eq!(proto::PROTOCOL_VERSION, 2, "the wire format did not change");
    for kind in EngineKind::all() {
        let (_d, db, branches) = build(kind);
        for projection in projections() {
            for predicate in predicates() {
                for &b in &branches {
                    let rows = select(db.read(b), &projection)
                        .filter(predicate.clone())
                        .collect()
                        .unwrap();
                    for chunk in chunk_sizes(&projection) {
                        let expect = expected_frames(
                            rows.chunks(chunk)
                                .map(|c| Response::Batch(projection.clone(), c.to_vec())),
                        );
                        // accept = 1: every chunk ends its acquisition, so
                        // the cursor resumes from a token that sits
                        // mid-liveness-word (chunk 1 and 7 against 64-slot
                        // words); accept = 1000: one acquisition.
                        for accept in [1, 1000] {
                            let mut cursor = db.chunked_scan_projected(
                                VersionRef::Branch(b),
                                predicate.clone(),
                                projection.clone(),
                            );
                            let got = stream_frames(&projection, false, chunk, accept, |sink| {
                                cursor.stream(chunk, 1000, sink)
                            });
                            assert_eq!(
                                got, expect,
                                "{kind:?} {projection:?} {predicate:?} branch {b:?} chunk {chunk} accept {accept}"
                            );
                            assert_eq!(cursor.emitted(), rows.len() as u64);
                        }
                    }
                    // And the bytes decode back to the rows.
                    let decoded: Vec<Record> = decode_frames(&expected_frames(
                        rows.chunks(7)
                            .map(|c| Response::Batch(projection.clone(), c.to_vec())),
                    ))
                    .into_iter()
                    .flat_map(|r| match r {
                        Response::Batch(p, batch) => {
                            assert_eq!(p, projection);
                            batch
                        }
                        other => panic!("expected a batch, got {other:?}"),
                    })
                    .collect();
                    assert_eq!(decoded, rows);
                }
            }
        }
    }
}

#[test]
fn multi_branch_stream_is_byte_identical_to_encoded_annotated_batches() {
    for kind in EngineKind::all() {
        let (_d, db, branches) = build(kind);
        for projection in projections() {
            for predicate in predicates() {
                let mut builder = db.read_branches(&branches).filter(predicate.clone());
                if let Some(cols) = projection.columns() {
                    builder = builder.select(cols);
                }
                let rows = builder.annotated().unwrap();
                assert!(rows.iter().any(|(_, live)| live.len() > 1));
                for chunk in chunk_sizes(&projection) {
                    let expect = expected_frames(
                        rows.chunks(chunk)
                            .map(|c| Response::AnnotatedBatch(projection.clone(), c.to_vec())),
                    );
                    for accept in [1, 1000] {
                        let mut cursor = db.chunked_multi_scan_projected(
                            branches.clone(),
                            predicate.clone(),
                            projection.clone(),
                        );
                        let got = stream_frames(&projection, true, chunk, accept, |sink| {
                            cursor.stream(chunk, 1000, sink)
                        });
                        assert_eq!(
                            got, expect,
                            "{kind:?} {projection:?} {predicate:?} chunk {chunk} accept {accept}"
                        );
                        let decoded: Vec<(Record, Vec<BranchId>)> = decode_frames(&got)
                            .into_iter()
                            .flat_map(|r| match r {
                                Response::AnnotatedBatch(_, batch) => batch,
                                other => panic!("expected an annotated batch, got {other:?}"),
                            })
                            .collect();
                        assert_eq!(decoded, rows);
                    }
                }
            }
        }
    }
}

/// A session scan inside an open transaction: base rows shadowed by an
/// update, hidden by a delete, and a pending insert appended after the
/// base. The byte sink and the record-decoding chunk path are the same
/// driver, so twin cursors must chunk identically — each streamed frame
/// is the encoding of the corresponding decoded chunk — and the decoded
/// rows are the session's view.
#[test]
fn session_stream_inside_a_transaction_matches_the_decoded_chunks() {
    for kind in EngineKind::all() {
        let (_d, db, _) = build(kind);
        let mut s = db.session();
        s.update(rec(10, 4242)).unwrap();
        assert!(s.delete(11).unwrap());
        s.insert(rec(9000, 1)).unwrap();
        s.insert(rec(9001, 2)).unwrap();
        let mut view = s.scan_collect().unwrap();
        view.sort_by_key(Record::key);

        for chunk in [1, 7, proto::batch_rows(schema().record_size())] {
            let mut decoded_chunks = Vec::new();
            let mut twin = s.chunked_scan();
            while !twin
                .for_each_chunk(chunk, 3, |c| {
                    decoded_chunks.push(c);
                    Ok(true)
                })
                .unwrap()
            {}
            let expect = expected_frames(
                decoded_chunks
                    .iter()
                    .map(|c| Response::Batch(Projection::All, c.clone())),
            );
            let mut cursor = s.chunked_scan();
            let got = stream_frames(&Projection::All, false, chunk, 3, |sink| {
                cursor.stream(chunk, 1000, sink)
            });
            assert_eq!(got, expect, "{kind:?} chunk {chunk}");

            let mut rows: Vec<Record> = decoded_chunks.into_iter().flatten().collect();
            rows.sort_by_key(Record::key);
            assert_eq!(rows, view, "{kind:?} chunk {chunk}");
            assert_eq!(rows.iter().find(|r| r.key() == 10), Some(&rec(10, 4242)));
            assert!(rows.iter().all(|r| r.key() != 11));
            assert!(rows.iter().any(|r| r.key() == 9001));
        }
        s.rollback();
    }
}

/// A sink that fails mid-chunk leaves no partial frame behind once the
/// stream is aborted — the server's error path.
#[test]
fn aborted_chunk_leaves_only_whole_frames() {
    struct FailAfter<'a>(FrameSink<'a>, usize);
    impl RowSink for FailAfter<'_> {
        fn row(&mut self, slot: &[u8], live: &[BranchId]) -> Result<()> {
            if self.1 == 0 {
                return Err(decibel::DbError::Invalid("injected".into()));
            }
            self.1 -= 1;
            self.0.row(slot, live)
        }
        fn end_chunk(&mut self, rows: usize) -> Result<bool> {
            self.0.end_chunk(rows)
        }
    }
    let (_d, db, _) = build(EngineKind::Hybrid);
    let (schema, projection) = (schema(), Projection::All);
    let mut out = Vec::new();
    let mut sink = FailAfter(
        FrameSink {
            frames: BatchStream::new(&mut out, &schema, &projection, false, 7),
            accept: 1000,
            taken: 0,
        },
        7 * 3 + 4,
    );
    let mut cursor = db.chunked_scan(VersionRef::Branch(BranchId::MASTER), Predicate::True);
    assert!(cursor.stream(7, 1000, &mut sink).is_err());
    sink.0.frames.abort();
    let frames = decode_frames(&out);
    assert_eq!(frames.len(), 3);
    for f in frames {
        assert!(matches!(f, Response::Batch(_, rows) if rows.len() == 7));
    }
}
