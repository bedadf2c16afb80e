//! The Decibel wire protocol: opcodes, request/response bodies, and their
//! binary codecs.
//!
//! Every message rides in one [`crate::frame`] frame. The first payload
//! byte is an opcode (requests) or a status tag (responses); the rest is
//! the body, encoded with the workspace's varint codec plus the schema's
//! fixed-width record images — the same serialization the heap files and
//! the journal use, so a scan batch is byte-compatible with the storage
//! layer's own record layout: the streaming server writes batches with
//! [`BatchStream`], whose per-row cost is a memcpy out of the pinned page.
//!
//! # Conversation shape
//!
//! On connect the server sends one [`Hello`] frame (magic, protocol
//! version, relation schema, engine name); the client answers nothing —
//! unless the server was started with a shared-secret token, in which
//! case the client's *first* request frame must be [`Request::Auth`]
//! carrying the token (any other first frame, or a wrong token, earns a
//! typed [`ErrorCode::AuthFailed`] error frame and a close). A server
//! without a token answers a stray `Auth` with OK, so clients may always
//! send one. Thereafter the client sends request frames (it may pipeline
//! several without waiting) and reads frames until a terminal status per
//! request:
//!
//! * [`STATUS_OK`] — the request succeeded; the body is the typed
//!   [`Reply`] for that opcode;
//! * [`STATUS_ERR`] — the request failed; the body is an encoded
//!   [`DbError`] carrying its stable [`ErrorCode`] discriminant, so
//!   clients match on error *kind*, never on message text;
//! * [`STATUS_BATCH`] / [`STATUS_ABATCH`] — a non-terminal chunk of scan
//!   output (plain records / branch-annotated records). Scans stream any
//!   number of batch frames — each holding up to [`SCAN_BATCH_BYTES`] of
//!   record images, never one row per frame — followed by an OK frame
//!   with the total row count. Batch boundaries are *flow-controlled*,
//!   not result-sized: the server produces the next chunk only after the
//!   previous one drains into the socket, so a slow reader pins O(chunk)
//!   server memory, and chunk row counts are an implementation detail a
//!   client must not rely on (only the terminal total is contractual).
//!
//! # Projected batches
//!
//! Scan-shaped requests carry a [`Projection`]; batch frames are
//! self-describing — each leads with the projection its record images
//! were encoded under, so a 2-of-12-column `.select` ships 2 columns per
//! row ([`Record::write_projected_image`], or
//! [`Record::copy_projected_image`] when the source is a heap slot), not
//! 12, and the client
//! decodes without tracking per-request state. Non-projected fields of
//! the decoded records read `0`, exactly like a local projected scan.

use decibel_common::error::{DbError, ErrorCode, Result};
use decibel_common::ids::{BranchId, CommitId};
use decibel_common::record::Record;
use decibel_common::schema::{ColumnType, Schema};
use decibel_common::varint;
use decibel_common::Projection;
use decibel_core::query::{AggKind, Predicate};
use decibel_core::types::{Conflict, MergePolicy, MergeResult, VersionRef};
use decibel_obs::Snapshot;

/// Protocol magic: the first bytes of the server's hello frame.
pub const MAGIC: &[u8; 4] = b"DCBW";
/// Protocol version carried in the hello frame. Version 2 added column
/// projections: scan-shaped requests carry one and batch frames lead
/// with the projection their record images were encoded under.
pub const PROTOCOL_VERSION: u64 = 2;

/// Target payload size of one scan batch frame. Batching rows (instead of
/// a frame per row) is what lets the word-level scan pipeline's throughput
/// survive serialization: the per-frame cost (length prefix, status byte,
/// syscall amortization via the buffered writer) is paid once per ~256 KiB
/// of record images, not once per record.
pub const SCAN_BATCH_BYTES: usize = 256 << 10;

/// Rows per scan batch for a given record size (at least one).
pub fn batch_rows(record_size: usize) -> usize {
    (SCAN_BATCH_BYTES / record_size.max(1)).max(1)
}

// Request opcodes (first byte of a request frame).
const OP_CHECKOUT_BRANCH: u8 = 1;
const OP_CHECKOUT_COMMIT: u8 = 2;
const OP_BRANCH: u8 = 3;
const OP_LOOKUP_BRANCH: u8 = 4;
const OP_BEGIN: u8 = 5;
const OP_INSERT: u8 = 6;
const OP_UPDATE: u8 = 7;
const OP_DELETE: u8 = 8;
const OP_GET: u8 = 9;
const OP_COMMIT: u8 = 10;
const OP_ROLLBACK: u8 = 11;
const OP_SCAN_SESSION: u8 = 12;
const OP_COLLECT: u8 = 13;
const OP_COUNT: u8 = 14;
const OP_AGGREGATE: u8 = 15;
const OP_MULTI_SCAN: u8 = 16;
const OP_MERGE: u8 = 17;
const OP_FLUSH: u8 = 18;
const OP_AUTH: u8 = 19;
const OP_STATS: u8 = 20;

/// Response status tags (first byte of a response frame).
pub const STATUS_OK: u8 = 0;
/// Terminal error frame: `[status][varint code][varint p1][varint p2][detail]`.
pub const STATUS_ERR: u8 = 1;
/// Non-terminal record batch: `[status][varint n][n record images]`.
pub const STATUS_BATCH: u8 = 2;
/// Non-terminal annotated batch: `[status][varint n]` then per row
/// `[record image][varint k][k × varint branch]`.
pub const STATUS_ABATCH: u8 = 3;

/// The server's first frame on every connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Negotiated protocol version (the server's [`PROTOCOL_VERSION`]).
    pub protocol: u64,
    /// The relation's schema — the client needs it to encode and decode
    /// fixed-width record images.
    pub schema: Schema,
    /// The serving engine's stable name (informational).
    pub engine: String,
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// [`Session::checkout_branch`](decibel_core::Session::checkout_branch).
    CheckoutBranch {
        /// Branch name to check out.
        name: String,
    },
    /// [`Session::checkout_commit`](decibel_core::Session::checkout_commit).
    CheckoutCommit {
        /// Commit to check out (read-only position).
        commit: CommitId,
    },
    /// [`Session::branch`](decibel_core::Session::branch): create a branch
    /// at the session's position and check it out.
    Branch {
        /// Name of the branch to create.
        name: String,
    },
    /// Resolve a branch name to its id without moving the session.
    LookupBranch {
        /// Branch name to resolve.
        name: String,
    },
    /// [`Session::begin`](decibel_core::Session::begin).
    Begin,
    /// [`Session::insert`](decibel_core::Session::insert).
    Insert {
        /// Record to insert.
        record: Record,
    },
    /// [`Session::update`](decibel_core::Session::update).
    Update {
        /// Replacement record.
        record: Record,
    },
    /// [`Session::delete`](decibel_core::Session::delete).
    Delete {
        /// Primary key to delete.
        key: u64,
    },
    /// [`Session::get`](decibel_core::Session::get).
    Get {
        /// Primary key to look up.
        key: u64,
    },
    /// [`Session::commit`](decibel_core::Session::commit).
    Commit,
    /// [`Session::rollback`](decibel_core::Session::rollback).
    Rollback,
    /// [`Session::scan_with`](decibel_core::Session::scan_with): the
    /// session's view (base version + transaction overlay), streamed in
    /// batches.
    ScanSession,
    /// `db.read(version).select(&cols).filter(predicate).collect()`,
    /// streamed in batches of projected record images.
    Collect {
        /// Version to scan.
        version: VersionRef,
        /// Row filter.
        predicate: Predicate,
        /// Columns to ship (validated server-side; unknown columns earn
        /// a typed [`DbError::Invalid`] before the scan starts).
        projection: Projection,
    },
    /// `db.read(version).filter(predicate).count()`.
    Count {
        /// Version to scan.
        version: VersionRef,
        /// Row filter.
        predicate: Predicate,
    },
    /// `db.read(version).filter(predicate).aggregate(column, agg)`.
    Aggregate {
        /// Version to scan.
        version: VersionRef,
        /// Data column to aggregate.
        column: usize,
        /// Aggregate function.
        agg: AggKind,
        /// Row filter.
        predicate: Predicate,
    },
    /// `db.read_branches(&branches).filter(p).annotated()`, streamed in
    /// annotated batches.
    MultiScan {
        /// Branches to scan.
        branches: Vec<BranchId>,
        /// Row filter.
        predicate: Predicate,
        /// Former intra-query parallelism hint: still encoded so the
        /// format is unchanged, ignored by the server.
        parallel: usize,
        /// Columns to ship (validated server-side).
        projection: Projection,
    },
    /// [`Database::merge`](decibel_core::Database::merge).
    Merge {
        /// Destination branch.
        into: BranchId,
        /// Source branch.
        from: BranchId,
        /// Conflict-resolution policy.
        policy: MergePolicy,
    },
    /// [`Database::flush`](decibel_core::Database::flush): checkpoint.
    Flush,
    /// Present the shared-secret token. Must be the first request on a
    /// connection to a token-protected server; a no-auth server answers
    /// OK and ignores the token.
    Auth {
        /// The shared secret, compared in constant time server-side.
        token: String,
    },
    /// Fetch a point-in-time metrics snapshot covering every family the
    /// server tracks: the database's registry (pool, WAL, commit, scan,
    /// checkpoint) merged with the event loop's own (server). Added after
    /// protocol version 2 shipped; an older server answers the unknown
    /// opcode with a typed [`ErrorCode::Protocol`] error frame and keeps
    /// the connection alive, so probing is safe.
    Stats,
}

/// The typed body of a [`STATUS_OK`] frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// No payload.
    Unit,
    /// A branch id (checkout/branch/lookup).
    Branch(BranchId),
    /// A commit id (commit).
    Commit(CommitId),
    /// A boolean (delete).
    Bool(bool),
    /// An optional record (get).
    MaybeRecord(Option<Record>),
    /// Scan terminal: total rows streamed in the preceding batches.
    Rows(u64),
    /// An aggregate / count scalar.
    Scalar(f64),
    /// A merge outcome.
    Merge(MergeResult),
    /// A metrics snapshot (stats).
    Stats(Snapshot),
}

/// One server→client frame.
#[derive(Debug)]
pub enum Response {
    /// Terminal success.
    Ok(Reply),
    /// Terminal failure (decoded back into a typed [`DbError`]).
    Err(DbError),
    /// Non-terminal record batch: the projection its images were encoded
    /// under, plus the rows (non-projected fields decode as `0`).
    Batch(Projection, Vec<Record>),
    /// Non-terminal annotated batch, projected the same way.
    AnnotatedBatch(Projection, Vec<(Record, Vec<BranchId>)>),
}

fn bad(what: impl Into<String>) -> DbError {
    DbError::protocol(what)
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    varint::read_u64(buf, pos)
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| bad("truncated message: expected a byte"))?;
    *pos += 1;
    Ok(b)
}

fn read_rest_utf8(buf: &[u8], pos: usize) -> Result<String> {
    std::str::from_utf8(&buf[pos..])
        .map(str::to_owned)
        .map_err(|_| bad("string field is not UTF-8"))
}

fn write_record(out: &mut Vec<u8>, record: &Record, schema: &Schema) -> Result<()> {
    out.extend_from_slice(&record.to_bytes(schema)?);
    Ok(())
}

fn read_record(buf: &[u8], pos: &mut usize, schema: &Schema) -> Result<Record> {
    let size = schema.record_size();
    let end = pos
        .checked_add(size)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| bad("truncated record image"))?;
    let rec = Record::read_from(schema, &buf[*pos..end])?;
    *pos = end;
    Ok(rec)
}

fn read_projected_record(
    buf: &[u8],
    pos: &mut usize,
    schema: &Schema,
    projection: &Projection,
) -> Result<Record> {
    let size = projection.image_size(schema);
    let end = pos
        .checked_add(size)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| bad("truncated projected record image"))?;
    let rec = Record::read_projected_image(schema, &buf[*pos..end], projection)?;
    *pos = end;
    Ok(rec)
}

/// `[tag]` — 0 is [`Projection::All`]; 1 is followed by
/// `[varint n][n × varint column]`.
fn write_projection(out: &mut Vec<u8>, p: &Projection) {
    match p {
        Projection::All => out.push(0),
        Projection::Columns(cols) => {
            out.push(1);
            varint::write_u64(out, cols.len() as u64);
            for &c in cols {
                varint::write_u64(out, c as u64);
            }
        }
    }
}

fn read_projection(buf: &[u8], pos: &mut usize) -> Result<Projection> {
    match read_u8(buf, pos)? {
        0 => Ok(Projection::All),
        1 => {
            let n = read_u64(buf, pos)? as usize;
            if n > buf.len() {
                // Each column costs ≥ 1 encoded byte; a count beyond the
                // payload length is corruption, not a wide projection.
                return Err(bad("projection column count exceeds payload"));
            }
            let mut cols = Vec::with_capacity(n);
            for _ in 0..n {
                cols.push(read_u64(buf, pos)? as usize);
            }
            // Re-normalize: the wire is untrusted, and every consumer
            // relies on the sorted/deduplicated invariant.
            Ok(Projection::of(&cols))
        }
        _ => Err(bad("unknown projection tag")),
    }
}

/// `[tag][varint id]` — tag 0 names a branch head, 1 a commit.
fn write_version(out: &mut Vec<u8>, v: VersionRef) {
    match v {
        VersionRef::Branch(b) => {
            out.push(0);
            varint::write_u64(out, b.raw() as u64);
        }
        VersionRef::Commit(c) => {
            out.push(1);
            varint::write_u64(out, c.raw());
        }
    }
}

fn read_version(buf: &[u8], pos: &mut usize) -> Result<VersionRef> {
    let tag = read_u8(buf, pos)?;
    let id = read_u64(buf, pos)?;
    match tag {
        0 => Ok(VersionRef::Branch(BranchId(id as u32))),
        1 => Ok(VersionRef::Commit(CommitId(id))),
        _ => Err(bad("unknown version tag")),
    }
}

// Predicate node tags.
const P_TRUE: u8 = 0;
const P_KEY_EQ: u8 = 1;
const P_KEY_RANGE: u8 = 2;
const P_COL_EQ: u8 = 3;
const P_COL_NE: u8 = 4;
const P_COL_LT: u8 = 5;
const P_COL_GE: u8 = 6;
const P_COL_MOD: u8 = 7;
const P_AND: u8 = 8;
const P_OR: u8 = 9;
const P_NOT: u8 = 10;

/// Decode recursion limit for predicate trees: combinator nesting this
/// deep is never produced by the builders, so a deeper tree on the wire is
/// an attack or corruption, not a query.
const MAX_PREDICATE_DEPTH: u32 = 64;

fn write_predicate(out: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::True => out.push(P_TRUE),
        Predicate::KeyEq(k) => {
            out.push(P_KEY_EQ);
            varint::write_u64(out, *k);
        }
        Predicate::KeyRange(lo, hi) => {
            out.push(P_KEY_RANGE);
            varint::write_u64(out, *lo);
            varint::write_u64(out, *hi);
        }
        Predicate::ColEq(c, v) => {
            out.push(P_COL_EQ);
            varint::write_u64(out, *c as u64);
            varint::write_u64(out, *v);
        }
        Predicate::ColNe(c, v) => {
            out.push(P_COL_NE);
            varint::write_u64(out, *c as u64);
            varint::write_u64(out, *v);
        }
        Predicate::ColLt(c, v) => {
            out.push(P_COL_LT);
            varint::write_u64(out, *c as u64);
            varint::write_u64(out, *v);
        }
        Predicate::ColGe(c, v) => {
            out.push(P_COL_GE);
            varint::write_u64(out, *c as u64);
            varint::write_u64(out, *v);
        }
        Predicate::ColMod(c, m, r) => {
            out.push(P_COL_MOD);
            varint::write_u64(out, *c as u64);
            varint::write_u64(out, *m);
            varint::write_u64(out, *r);
        }
        Predicate::And(a, b) => {
            out.push(P_AND);
            write_predicate(out, a);
            write_predicate(out, b);
        }
        Predicate::Or(a, b) => {
            out.push(P_OR);
            write_predicate(out, a);
            write_predicate(out, b);
        }
        Predicate::Not(a) => {
            out.push(P_NOT);
            write_predicate(out, a);
        }
    }
}

fn read_predicate(buf: &[u8], pos: &mut usize, depth: u32) -> Result<Predicate> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(bad("predicate tree too deep"));
    }
    let tag = read_u8(buf, pos)?;
    Ok(match tag {
        P_TRUE => Predicate::True,
        P_KEY_EQ => Predicate::KeyEq(read_u64(buf, pos)?),
        P_KEY_RANGE => Predicate::KeyRange(read_u64(buf, pos)?, read_u64(buf, pos)?),
        P_COL_EQ => Predicate::ColEq(read_u64(buf, pos)? as usize, read_u64(buf, pos)?),
        P_COL_NE => Predicate::ColNe(read_u64(buf, pos)? as usize, read_u64(buf, pos)?),
        P_COL_LT => Predicate::ColLt(read_u64(buf, pos)? as usize, read_u64(buf, pos)?),
        P_COL_GE => Predicate::ColGe(read_u64(buf, pos)? as usize, read_u64(buf, pos)?),
        P_COL_MOD => Predicate::ColMod(
            read_u64(buf, pos)? as usize,
            read_u64(buf, pos)?,
            read_u64(buf, pos)?,
        ),
        P_AND => Predicate::And(
            Box::new(read_predicate(buf, pos, depth + 1)?),
            Box::new(read_predicate(buf, pos, depth + 1)?),
        ),
        P_OR => Predicate::Or(
            Box::new(read_predicate(buf, pos, depth + 1)?),
            Box::new(read_predicate(buf, pos, depth + 1)?),
        ),
        P_NOT => Predicate::Not(Box::new(read_predicate(buf, pos, depth + 1)?)),
        _ => return Err(bad("unknown predicate tag")),
    })
}

fn agg_tag(agg: AggKind) -> u8 {
    match agg {
        AggKind::Count => 0,
        AggKind::Sum => 1,
        AggKind::Min => 2,
        AggKind::Max => 3,
        AggKind::Avg => 4,
    }
}

fn read_agg(buf: &[u8], pos: &mut usize) -> Result<AggKind> {
    Ok(match read_u8(buf, pos)? {
        0 => AggKind::Count,
        1 => AggKind::Sum,
        2 => AggKind::Min,
        3 => AggKind::Max,
        4 => AggKind::Avg,
        _ => return Err(bad("unknown aggregate tag")),
    })
}

fn write_policy(out: &mut Vec<u8>, policy: MergePolicy) {
    match policy {
        MergePolicy::TwoWay { prefer_left } => {
            out.push(0);
            out.push(prefer_left as u8);
        }
        MergePolicy::ThreeWay { prefer_left } => {
            out.push(1);
            out.push(prefer_left as u8);
        }
    }
}

fn read_policy(buf: &[u8], pos: &mut usize) -> Result<MergePolicy> {
    let tag = read_u8(buf, pos)?;
    let prefer_left = read_u8(buf, pos)? != 0;
    match tag {
        0 => Ok(MergePolicy::TwoWay { prefer_left }),
        1 => Ok(MergePolicy::ThreeWay { prefer_left }),
        _ => Err(bad("unknown merge-policy tag")),
    }
}

impl Hello {
    /// Encodes the hello frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.engine.len());
        out.extend_from_slice(MAGIC);
        varint::write_u64(&mut out, self.protocol);
        varint::write_u64(&mut out, self.schema.num_columns() as u64);
        out.push(match self.schema.column_type() {
            ColumnType::U32 => 0,
            ColumnType::U64 => 1,
        });
        out.extend_from_slice(self.engine.as_bytes());
        out
    }

    /// Decodes a hello frame payload, verifying magic and version.
    pub fn decode(buf: &[u8]) -> Result<Hello> {
        if buf.len() < 4 || &buf[..4] != MAGIC {
            return Err(bad("not a Decibel server (bad magic)"));
        }
        let mut pos = 4usize;
        let protocol = read_u64(buf, &mut pos)?;
        if protocol != PROTOCOL_VERSION {
            return Err(bad(format!(
                "protocol version {protocol} unsupported (want {PROTOCOL_VERSION})"
            )));
        }
        let columns = read_u64(buf, &mut pos)? as usize;
        let ctype = match read_u8(buf, &mut pos)? {
            0 => ColumnType::U32,
            1 => ColumnType::U64,
            _ => return Err(bad("unknown column type")),
        };
        let engine = read_rest_utf8(buf, pos)?;
        Ok(Hello {
            protocol,
            schema: Schema::new(columns, ctype),
            engine,
        })
    }
}

impl Request {
    /// Encodes this request into a frame payload.
    pub fn encode(&self, schema: &Schema) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(16);
        match self {
            Request::CheckoutBranch { name } => {
                out.push(OP_CHECKOUT_BRANCH);
                out.extend_from_slice(name.as_bytes());
            }
            Request::CheckoutCommit { commit } => {
                out.push(OP_CHECKOUT_COMMIT);
                varint::write_u64(&mut out, commit.raw());
            }
            Request::Branch { name } => {
                out.push(OP_BRANCH);
                out.extend_from_slice(name.as_bytes());
            }
            Request::LookupBranch { name } => {
                out.push(OP_LOOKUP_BRANCH);
                out.extend_from_slice(name.as_bytes());
            }
            Request::Begin => out.push(OP_BEGIN),
            Request::Insert { record } => {
                out.push(OP_INSERT);
                write_record(&mut out, record, schema)?;
            }
            Request::Update { record } => {
                out.push(OP_UPDATE);
                write_record(&mut out, record, schema)?;
            }
            Request::Delete { key } => {
                out.push(OP_DELETE);
                varint::write_u64(&mut out, *key);
            }
            Request::Get { key } => {
                out.push(OP_GET);
                varint::write_u64(&mut out, *key);
            }
            Request::Commit => out.push(OP_COMMIT),
            Request::Rollback => out.push(OP_ROLLBACK),
            Request::ScanSession => out.push(OP_SCAN_SESSION),
            Request::Collect {
                version,
                predicate,
                projection,
            } => {
                out.push(OP_COLLECT);
                write_version(&mut out, *version);
                write_predicate(&mut out, predicate);
                write_projection(&mut out, projection);
            }
            Request::Count { version, predicate } => {
                out.push(OP_COUNT);
                write_version(&mut out, *version);
                write_predicate(&mut out, predicate);
            }
            Request::Aggregate {
                version,
                column,
                agg,
                predicate,
            } => {
                out.push(OP_AGGREGATE);
                write_version(&mut out, *version);
                varint::write_u64(&mut out, *column as u64);
                out.push(agg_tag(*agg));
                write_predicate(&mut out, predicate);
            }
            Request::MultiScan {
                branches,
                predicate,
                parallel,
                projection,
            } => {
                out.push(OP_MULTI_SCAN);
                varint::write_u64(&mut out, branches.len() as u64);
                for b in branches {
                    varint::write_u64(&mut out, b.raw() as u64);
                }
                varint::write_u64(&mut out, *parallel as u64);
                write_predicate(&mut out, predicate);
                write_projection(&mut out, projection);
            }
            Request::Merge { into, from, policy } => {
                out.push(OP_MERGE);
                varint::write_u64(&mut out, into.raw() as u64);
                varint::write_u64(&mut out, from.raw() as u64);
                write_policy(&mut out, *policy);
            }
            Request::Flush => out.push(OP_FLUSH),
            Request::Auth { token } => {
                out.push(OP_AUTH);
                out.extend_from_slice(token.as_bytes());
            }
            Request::Stats => out.push(OP_STATS),
        }
        Ok(out)
    }

    /// Decodes a request frame payload.
    pub fn decode(buf: &[u8], schema: &Schema) -> Result<Request> {
        let mut pos = 0usize;
        let op = read_u8(buf, &mut pos)?;
        let req = match op {
            OP_CHECKOUT_BRANCH => Request::CheckoutBranch {
                name: read_rest_utf8(buf, pos)?,
            },
            OP_CHECKOUT_COMMIT => Request::CheckoutCommit {
                commit: CommitId(read_u64(buf, &mut pos)?),
            },
            OP_BRANCH => Request::Branch {
                name: read_rest_utf8(buf, pos)?,
            },
            OP_LOOKUP_BRANCH => Request::LookupBranch {
                name: read_rest_utf8(buf, pos)?,
            },
            OP_BEGIN => Request::Begin,
            OP_INSERT => Request::Insert {
                record: read_record(buf, &mut pos, schema)?,
            },
            OP_UPDATE => Request::Update {
                record: read_record(buf, &mut pos, schema)?,
            },
            OP_DELETE => Request::Delete {
                key: read_u64(buf, &mut pos)?,
            },
            OP_GET => Request::Get {
                key: read_u64(buf, &mut pos)?,
            },
            OP_COMMIT => Request::Commit,
            OP_ROLLBACK => Request::Rollback,
            OP_SCAN_SESSION => Request::ScanSession,
            OP_COLLECT => Request::Collect {
                version: read_version(buf, &mut pos)?,
                predicate: read_predicate(buf, &mut pos, 0)?,
                projection: read_projection(buf, &mut pos)?,
            },
            OP_COUNT => Request::Count {
                version: read_version(buf, &mut pos)?,
                predicate: read_predicate(buf, &mut pos, 0)?,
            },
            OP_AGGREGATE => Request::Aggregate {
                version: read_version(buf, &mut pos)?,
                column: read_u64(buf, &mut pos)? as usize,
                agg: read_agg(buf, &mut pos)?,
                predicate: read_predicate(buf, &mut pos, 0)?,
            },
            OP_MULTI_SCAN => {
                let n = read_u64(buf, &mut pos)? as usize;
                if n > buf.len() {
                    // Each id costs ≥ 1 encoded byte; a count beyond the
                    // payload length is corruption, not a huge scan.
                    return Err(bad("branch count exceeds payload"));
                }
                let mut branches = Vec::with_capacity(n);
                for _ in 0..n {
                    branches.push(BranchId(read_u64(buf, &mut pos)? as u32));
                }
                Request::MultiScan {
                    branches,
                    parallel: read_u64(buf, &mut pos)? as usize,
                    predicate: read_predicate(buf, &mut pos, 0)?,
                    projection: read_projection(buf, &mut pos)?,
                }
            }
            OP_MERGE => Request::Merge {
                into: BranchId(read_u64(buf, &mut pos)? as u32),
                from: BranchId(read_u64(buf, &mut pos)? as u32),
                policy: read_policy(buf, &mut pos)?,
            },
            OP_FLUSH => Request::Flush,
            OP_AUTH => Request::Auth {
                token: read_rest_utf8(buf, pos)?,
            },
            OP_STATS => Request::Stats,
            _ => return Err(bad(format!("unknown request opcode {op}"))),
        };
        Ok(req)
    }
}

/// Encodes a [`DbError`] for the wire: `[varint code][varint p1][varint p2]
/// [detail utf-8]`. The two numeric parameters carry the variant's
/// structured fields (key, commit id, expected/actual arity, ...) so
/// [`decode_error`] reconstructs the *same variant*, not a stringly
/// approximation.
pub fn encode_error(err: &DbError) -> Vec<u8> {
    let (p1, p2, detail): (u64, u64, String) = match err {
        DbError::Io { .. } => (0, 0, err.to_string()),
        DbError::UnknownBranch(name) => (0, 0, name.clone()),
        DbError::UnknownCommit(id) => (*id, 0, String::new()),
        DbError::NotBranchHead { branch } => (0, 0, branch.clone()),
        DbError::DuplicateKey { key } => (*key, 0, String::new()),
        DbError::KeyNotFound { key } => (*key, 0, String::new()),
        DbError::SchemaMismatch { expected, actual } => {
            (*expected as u64, *actual as u64, String::new())
        }
        DbError::MergeConflicts { count } => (*count as u64, 0, String::new()),
        DbError::Corrupt { detail } => (0, 0, detail.clone()),
        DbError::LockContention { what } => (0, 0, what.clone()),
        DbError::TxnOpen { what } => (0, 0, what.clone()),
        DbError::ReadOnlyCheckout { commit } => (*commit, 0, String::new()),
        DbError::JournalDiverged => (0, 0, String::new()),
        DbError::Protocol { detail } => (0, 0, detail.clone()),
        DbError::Invalid(msg) => (0, 0, msg.clone()),
        DbError::Timeout { what } => (0, 0, what.clone()),
        DbError::AuthFailed => (0, 0, String::new()),
    };
    let mut out = Vec::with_capacity(8 + detail.len());
    varint::write_u64(&mut out, err.code().as_u16() as u64);
    varint::write_u64(&mut out, p1);
    varint::write_u64(&mut out, p2);
    out.extend_from_slice(detail.as_bytes());
    out
}

/// Decodes an error body written by [`encode_error`] back into the typed
/// [`DbError`] variant its [`ErrorCode`] names. Unknown codes (a newer
/// server) decode as [`DbError::Protocol`] rather than failing the
/// connection.
pub fn decode_error(buf: &[u8]) -> Result<DbError> {
    let mut pos = 0usize;
    let raw = read_u64(buf, &mut pos)?;
    let p1 = read_u64(buf, &mut pos)?;
    let p2 = read_u64(buf, &mut pos)?;
    let detail = read_rest_utf8(buf, pos)?;
    let Some(code) = u16::try_from(raw).ok().and_then(ErrorCode::from_u16) else {
        return Ok(DbError::protocol(format!(
            "server sent unknown error code {raw}: {detail}"
        )));
    };
    Ok(match code {
        ErrorCode::Io => DbError::io(detail, std::io::Error::other("remote I/O error")),
        ErrorCode::UnknownBranch => DbError::UnknownBranch(detail),
        ErrorCode::UnknownCommit => DbError::UnknownCommit(p1),
        ErrorCode::NotBranchHead => DbError::NotBranchHead { branch: detail },
        ErrorCode::DuplicateKey => DbError::DuplicateKey { key: p1 },
        ErrorCode::KeyNotFound => DbError::KeyNotFound { key: p1 },
        ErrorCode::SchemaMismatch => DbError::SchemaMismatch {
            expected: p1 as usize,
            actual: p2 as usize,
        },
        ErrorCode::MergeConflicts => DbError::MergeConflicts { count: p1 as usize },
        ErrorCode::Corrupt => DbError::Corrupt { detail },
        ErrorCode::LockContention => DbError::LockContention { what: detail },
        ErrorCode::TxnOpen => DbError::TxnOpen { what: detail },
        ErrorCode::ReadOnlyCheckout => DbError::ReadOnlyCheckout { commit: p1 },
        ErrorCode::JournalDiverged => DbError::JournalDiverged,
        ErrorCode::Protocol => DbError::Protocol { detail },
        ErrorCode::Invalid => DbError::Invalid(detail),
        ErrorCode::Timeout => DbError::Timeout { what: detail },
        ErrorCode::AuthFailed => DbError::AuthFailed,
    })
}

fn write_merge_result(out: &mut Vec<u8>, m: &MergeResult) {
    varint::write_u64(out, m.commit.raw());
    varint::write_u64(out, m.records_changed);
    varint::write_u64(out, m.bytes_compared);
    varint::write_u64(out, m.conflicts.len() as u64);
    for c in &m.conflicts {
        varint::write_u64(out, c.key);
        out.push(c.resolved_left as u8);
        varint::write_u64(out, c.fields.len() as u64);
        for &f in &c.fields {
            varint::write_u64(out, f as u64);
        }
    }
}

fn read_merge_result(buf: &[u8], pos: &mut usize) -> Result<MergeResult> {
    let commit = CommitId(read_u64(buf, pos)?);
    let records_changed = read_u64(buf, pos)?;
    let bytes_compared = read_u64(buf, pos)?;
    let n = read_u64(buf, pos)? as usize;
    if n > buf.len() {
        return Err(bad("conflict count exceeds payload"));
    }
    let mut conflicts = Vec::with_capacity(n);
    for _ in 0..n {
        let key = read_u64(buf, pos)?;
        let resolved_left = read_u8(buf, pos)? != 0;
        let nf = read_u64(buf, pos)? as usize;
        if nf > buf.len() {
            return Err(bad("conflict field count exceeds payload"));
        }
        let mut fields = Vec::with_capacity(nf);
        for _ in 0..nf {
            fields.push(read_u64(buf, pos)? as usize);
        }
        conflicts.push(Conflict {
            key,
            fields,
            resolved_left,
        });
    }
    Ok(MergeResult {
        commit,
        conflicts,
        records_changed,
        bytes_compared,
    })
}

/// `[status][projection][varint n]` — what every batch payload leads with.
fn write_batch_header(out: &mut Vec<u8>, status: u8, projection: &Projection, rows: usize) {
    out.push(status);
    write_projection(out, projection);
    varint::write_u64(out, rows as u64);
}

/// The frame-level lead of a batch whose row section is `rows_bytes` long:
/// `[varint payload length]` then [`write_batch_header`].
fn write_batch_frame_header(
    out: &mut Vec<u8>,
    status: u8,
    projection: &Projection,
    rows: usize,
    rows_bytes: usize,
) {
    let at = out.len();
    write_batch_header(out, status, projection, rows);
    let mid = out.len();
    varint::write_u64(out, (mid - at + rows_bytes) as u64);
    // The length was written last but goes first: rotate it in front.
    out[at..].rotate_left(mid - at);
}

/// `[varint k][k × varint branch]` — an annotated row's tail.
fn write_annotation(out: &mut Vec<u8>, branches: &[BranchId]) {
    varint::write_u64(out, branches.len() as u64);
    for b in branches {
        varint::write_u64(out, b.raw() as u64);
    }
}

/// Reads a batch payload's `[status][projection][varint n]` lead,
/// rejecting a projection outside `schema` and a row count the payload
/// cannot hold.
fn read_batch_header(
    buf: &[u8],
    pos: &mut usize,
    status: u8,
    schema: &Schema,
) -> Result<(Projection, usize)> {
    if read_u8(buf, pos)? != status {
        return Err(bad("not the expected batch frame"));
    }
    let projection = read_projection(buf, pos)?;
    projection
        .validate(schema)
        .map_err(|_| bad("batch projection names a column outside the schema"))?;
    let n = read_u64(buf, pos)? as usize;
    if n.saturating_mul(projection.image_size(schema)) > buf.len() {
        return Err(bad("batch row count exceeds payload"));
    }
    Ok((projection, n))
}

/// Decodes a whole [`STATUS_BATCH`] payload, appending its records to
/// `rows` (non-projected fields read `0`) and returning the projection it
/// was encoded under. The one batch decoder: [`Response::decode`] calls it
/// with an empty vector, the client with its result vector.
pub fn decode_batch_into(
    buf: &[u8],
    schema: &Schema,
    rows: &mut Vec<Record>,
) -> Result<Projection> {
    let mut pos = 0usize;
    let (projection, n) = read_batch_header(buf, &mut pos, STATUS_BATCH, schema)?;
    rows.reserve(n);
    for _ in 0..n {
        rows.push(read_projected_record(buf, &mut pos, schema, &projection)?);
    }
    Ok(projection)
}

/// [`decode_batch_into`] for [`STATUS_ABATCH`] payloads.
pub fn decode_annotated_batch_into(
    buf: &[u8],
    schema: &Schema,
    rows: &mut Vec<(Record, Vec<BranchId>)>,
) -> Result<Projection> {
    let mut pos = 0usize;
    let (projection, n) = read_batch_header(buf, &mut pos, STATUS_ABATCH, schema)?;
    rows.reserve(n);
    for _ in 0..n {
        let rec = read_projected_record(buf, &mut pos, schema, &projection)?;
        let k = read_u64(buf, &mut pos)? as usize;
        if k > buf.len() {
            return Err(bad("branch annotation count exceeds payload"));
        }
        let mut branches = Vec::with_capacity(k);
        for _ in 0..k {
            branches.push(BranchId(read_u64(buf, &mut pos)? as u32));
        }
        rows.push((rec, branches));
    }
    Ok(projection)
}

/// Writes scan-batch **frames** (length prefix included) at the end of a
/// byte buffer, row by row, straight from serialized heap slots — the
/// server's streaming encoder. Each finished frame is byte for byte
/// `write_frame(out, &Response::Batch(projection, rows).encode(schema)?)`
/// (or the `AnnotatedBatch` equivalent) for the rows pushed, without a
/// [`Record`] or an intermediate payload vector ever existing.
///
/// A frame's header (`varint payload length`, status, projection, `varint
/// row count`) precedes rows whose number is only known at the end, so the
/// frame opens with the header of a *full* batch (`max_rows` rows) and
/// [`BatchStream::end_batch`] rewrites it in place; only when the real
/// header has a different width (a short last batch, an annotated batch
/// crossing a varint boundary) are the frame's rows moved.
pub struct BatchStream<'a> {
    out: &'a mut Vec<u8>,
    schema: &'a Schema,
    projection: &'a Projection,
    annotated: bool,
    max_rows: usize,
    /// `(frame start, rows start)` offsets into `out` of the open frame.
    open: Option<(usize, usize)>,
    /// Scratch for the rewritten header.
    header: Vec<u8>,
}

impl<'a> BatchStream<'a> {
    /// A stream of [`STATUS_BATCH`] (or, if `annotated`, [`STATUS_ABATCH`])
    /// frames of up to `max_rows` rows appended to `out`. `projection`
    /// must already be validated against `schema`.
    pub fn new(
        out: &'a mut Vec<u8>,
        schema: &'a Schema,
        projection: &'a Projection,
        annotated: bool,
        max_rows: usize,
    ) -> BatchStream<'a> {
        BatchStream {
            out,
            schema,
            projection,
            annotated,
            max_rows,
            open: None,
            header: Vec::new(),
        }
    }

    fn status(&self) -> u8 {
        if self.annotated {
            STATUS_ABATCH
        } else {
            STATUS_BATCH
        }
    }

    /// Appends one row — the projected image of the full-width `slot`,
    /// plus its branch annotation if this is an annotated stream — opening
    /// a frame if none is open.
    #[inline]
    pub fn push_row(&mut self, slot: &[u8], live: &[BranchId]) {
        if self.open.is_none() {
            let image = self.projection.image_size(self.schema);
            self.out
                .reserve(self.max_rows * (image + 4 * self.annotated as usize) + 32);
            let start = self.out.len();
            let (status, full) = (self.status(), self.max_rows);
            write_batch_frame_header(self.out, status, self.projection, full, full * image);
            self.open = Some((start, self.out.len()));
        }
        Record::copy_projected_image(self.schema, slot, self.projection, self.out);
        if self.annotated {
            write_annotation(self.out, live);
        }
    }

    /// Closes the open frame, which holds `rows` rows.
    pub fn end_batch(&mut self, rows: usize) {
        let (start, body) = self.open.take().expect("end_batch without a row");
        let rows_bytes = self.out.len() - body;
        self.header.clear();
        let status = self.status();
        write_batch_frame_header(&mut self.header, status, self.projection, rows, rows_bytes);
        if self.header.len() == body - start {
            self.out[start..body].copy_from_slice(&self.header);
        } else {
            self.out.splice(start..body, self.header.iter().copied());
        }
    }

    /// Drops the rows of a frame that will never be closed (the scan
    /// failed mid-chunk), leaving `out` ending at the last whole frame.
    pub fn abort(&mut self) {
        if let Some((start, _)) = self.open.take() {
            self.out.truncate(start);
        }
    }

    /// The buffer, for flushing finished frames between batches.
    pub fn out(&mut self) -> &mut Vec<u8> {
        self.out
    }
}

// Reply body tags (second byte of an OK frame).
const R_UNIT: u8 = 0;
const R_BRANCH: u8 = 1;
const R_COMMIT: u8 = 2;
const R_BOOL: u8 = 3;
const R_MAYBE_RECORD: u8 = 4;
const R_ROWS: u8 = 5;
const R_SCALAR: u8 = 6;
const R_MERGE: u8 = 7;
const R_STATS: u8 = 8;

impl Response {
    /// Encodes this response into a frame payload.
    pub fn encode(&self, schema: &Schema) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(16);
        match self {
            Response::Ok(reply) => {
                out.push(STATUS_OK);
                match reply {
                    Reply::Unit => out.push(R_UNIT),
                    Reply::Branch(b) => {
                        out.push(R_BRANCH);
                        varint::write_u64(&mut out, b.raw() as u64);
                    }
                    Reply::Commit(c) => {
                        out.push(R_COMMIT);
                        varint::write_u64(&mut out, c.raw());
                    }
                    Reply::Bool(v) => {
                        out.push(R_BOOL);
                        out.push(*v as u8);
                    }
                    Reply::MaybeRecord(rec) => {
                        out.push(R_MAYBE_RECORD);
                        match rec {
                            Some(r) => {
                                out.push(1);
                                write_record(&mut out, r, schema)?;
                            }
                            None => out.push(0),
                        }
                    }
                    Reply::Rows(n) => {
                        out.push(R_ROWS);
                        varint::write_u64(&mut out, *n);
                    }
                    Reply::Scalar(x) => {
                        out.push(R_SCALAR);
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                    Reply::Merge(m) => {
                        out.push(R_MERGE);
                        write_merge_result(&mut out, m);
                    }
                    Reply::Stats(snap) => {
                        out.push(R_STATS);
                        out.extend_from_slice(&snap.encode());
                    }
                }
            }
            Response::Err(err) => {
                out.push(STATUS_ERR);
                out.extend_from_slice(&encode_error(err));
            }
            Response::Batch(projection, records) => {
                out.reserve(records.len() * projection.image_size(schema));
                write_batch_header(&mut out, STATUS_BATCH, projection, records.len());
                for r in records {
                    r.write_projected_image(schema, projection, &mut out)?;
                }
            }
            Response::AnnotatedBatch(projection, rows) => {
                out.reserve(rows.len() * (projection.image_size(schema) + 4));
                write_batch_header(&mut out, STATUS_ABATCH, projection, rows.len());
                for (r, branches) in rows {
                    r.write_projected_image(schema, projection, &mut out)?;
                    write_annotation(&mut out, branches);
                }
            }
        }
        Ok(out)
    }

    /// Decodes a response frame payload.
    pub fn decode(buf: &[u8], schema: &Schema) -> Result<Response> {
        let mut pos = 0usize;
        match read_u8(buf, &mut pos)? {
            STATUS_OK => {
                let reply = match read_u8(buf, &mut pos)? {
                    R_UNIT => Reply::Unit,
                    R_BRANCH => Reply::Branch(BranchId(read_u64(buf, &mut pos)? as u32)),
                    R_COMMIT => Reply::Commit(CommitId(read_u64(buf, &mut pos)?)),
                    R_BOOL => Reply::Bool(read_u8(buf, &mut pos)? != 0),
                    R_MAYBE_RECORD => match read_u8(buf, &mut pos)? {
                        0 => Reply::MaybeRecord(None),
                        1 => Reply::MaybeRecord(Some(read_record(buf, &mut pos, schema)?)),
                        _ => return Err(bad("bad option tag")),
                    },
                    R_ROWS => Reply::Rows(read_u64(buf, &mut pos)?),
                    R_SCALAR => {
                        let end = pos
                            .checked_add(8)
                            .filter(|&e| e <= buf.len())
                            .ok_or_else(|| bad("truncated scalar"))?;
                        Reply::Scalar(f64::from_le_bytes(buf[pos..end].try_into().unwrap()))
                    }
                    R_MERGE => Reply::Merge(read_merge_result(buf, &mut pos)?),
                    R_STATS => Reply::Stats(
                        Snapshot::decode(&buf[pos..])
                            .map_err(|e| bad(format!("bad stats snapshot: {e}")))?,
                    ),
                    other => return Err(bad(format!("unknown reply tag {other}"))),
                };
                Ok(Response::Ok(reply))
            }
            STATUS_ERR => Ok(Response::Err(decode_error(&buf[pos..])?)),
            STATUS_BATCH => {
                let mut records = Vec::new();
                let projection = decode_batch_into(buf, schema, &mut records)?;
                Ok(Response::Batch(projection, records))
            }
            STATUS_ABATCH => {
                let mut rows = Vec::new();
                let projection = decode_annotated_batch_into(buf, schema, &mut rows)?;
                Ok(Response::AnnotatedBatch(projection, rows))
            }
            other => Err(bad(format!("unknown response status {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(3, ColumnType::U32)
    }

    fn rec(k: u64) -> Record {
        Record::new(k, vec![k, k + 1, k + 2])
    }

    #[test]
    fn hello_round_trips() {
        let h = Hello {
            protocol: PROTOCOL_VERSION,
            schema: Schema::new(12, ColumnType::U64),
            engine: "hybrid".into(),
        };
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn hello_rejects_bad_magic_and_version() {
        assert!(Hello::decode(b"nope").is_err());
        let mut h = Hello {
            protocol: PROTOCOL_VERSION + 1,
            schema: schema(),
            engine: String::new(),
        }
        .encode();
        assert!(Hello::decode(&h).is_err());
        h.clear();
        assert!(Hello::decode(&h).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let s = schema();
        let requests = vec![
            Request::CheckoutBranch { name: "dev".into() },
            Request::CheckoutCommit {
                commit: CommitId(u64::MAX),
            },
            Request::Branch { name: "β".into() },
            Request::LookupBranch { name: "".into() },
            Request::Begin,
            Request::Insert { record: rec(7) },
            Request::Update { record: rec(8) },
            Request::Delete { key: 9 },
            Request::Get { key: 0 },
            Request::Commit,
            Request::Rollback,
            Request::ScanSession,
            Request::Collect {
                version: VersionRef::Branch(BranchId(3)),
                predicate: Predicate::ColGe(1, 5).and(Predicate::KeyRange(2, 9).not()),
                projection: Projection::of(&[0, 2]),
            },
            Request::Count {
                version: VersionRef::Commit(CommitId(4)),
                predicate: Predicate::True,
            },
            Request::Aggregate {
                version: VersionRef::Branch(BranchId(0)),
                column: 2,
                agg: AggKind::Avg,
                predicate: Predicate::ColMod(0, 3, 1),
            },
            Request::MultiScan {
                branches: vec![BranchId(0), BranchId(5), BranchId(u32::MAX)],
                predicate: Predicate::ColEq(0, 1).or(Predicate::KeyEq(2)),
                parallel: 8,
                projection: Projection::all(),
            },
            Request::Merge {
                into: BranchId(1),
                from: BranchId(2),
                policy: MergePolicy::ThreeWay { prefer_left: true },
            },
            Request::Flush,
            Request::Auth {
                token: "s3cr3t-τ".into(),
            },
            Request::Stats,
        ];
        for req in requests {
            let bytes = req.encode(&s).unwrap();
            assert_eq!(Request::decode(&bytes, &s).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn replies_round_trip() {
        let s = schema();
        let replies = vec![
            Reply::Unit,
            Reply::Branch(BranchId(42)),
            Reply::Commit(CommitId(7)),
            Reply::Bool(true),
            Reply::Bool(false),
            Reply::MaybeRecord(None),
            Reply::MaybeRecord(Some(rec(11))),
            Reply::Rows(1 << 40),
            Reply::Scalar(-1.25e300),
            Reply::Merge(MergeResult {
                commit: CommitId(9),
                conflicts: vec![Conflict {
                    key: 5,
                    fields: vec![0, 2],
                    resolved_left: true,
                }],
                records_changed: 3,
                bytes_compared: 999,
            }),
            Reply::Stats({
                let reg = decibel_obs::Registry::new();
                reg.counter("wal", "flushes").add(7);
                reg.gauge("server", "conns_live").set(3);
                reg.histogram("commit", "commit_us").record(1800);
                reg.snapshot()
            }),
        ];
        for reply in replies {
            let bytes = Response::Ok(reply.clone()).encode(&s).unwrap();
            match Response::decode(&bytes, &s).unwrap() {
                Response::Ok(back) => assert_eq!(back, reply),
                other => panic!("expected Ok, got {other:?}"),
            }
        }
    }

    #[test]
    fn batches_round_trip() {
        let s = schema();
        let batch = Response::Batch(Projection::all(), (0..100).map(rec).collect());
        let bytes = batch.encode(&s).unwrap();
        match Response::decode(&bytes, &s).unwrap() {
            Response::Batch(p, rows) => {
                assert!(p.is_all());
                assert_eq!(rows, (0..100).map(rec).collect::<Vec<_>>());
            }
            other => panic!("expected Batch, got {other:?}"),
        }

        let rows = vec![
            (rec(1), vec![BranchId(0)]),
            (rec(2), vec![BranchId(0), BranchId(3)]),
            (rec(3), vec![]),
        ];
        let bytes = Response::AnnotatedBatch(Projection::all(), rows.clone())
            .encode(&s)
            .unwrap();
        match Response::decode(&bytes, &s).unwrap() {
            Response::AnnotatedBatch(_, back) => assert_eq!(back, rows),
            other => panic!("expected AnnotatedBatch, got {other:?}"),
        }
    }

    #[test]
    fn projected_batches_ship_only_selected_columns() {
        let s = schema();
        let p = Projection::of(&[1]);
        let rows: Vec<Record> = (0..50).map(rec).collect();
        let bytes = Response::Batch(p.clone(), rows.clone()).encode(&s).unwrap();
        let full = Response::Batch(Projection::all(), rows.clone())
            .encode(&s)
            .unwrap();
        // 1-of-3 columns: the projected frame drops two 4-byte fields per
        // row relative to the whole-record frame, and pays 2 extra bytes
        // once for its column list ([1][n=1][col=1] vs [0]).
        assert_eq!(full.len() - bytes.len(), 50 * 2 * 4 - 2);
        match Response::decode(&bytes, &s).unwrap() {
            Response::Batch(back_p, back) => {
                assert_eq!(back_p, p);
                let expect: Vec<Record> = rows
                    .iter()
                    .map(|r| {
                        let mut r = r.clone();
                        r.project(&p);
                        r
                    })
                    .collect();
                assert_eq!(back, expect, "non-projected fields decode as 0");
            }
            other => panic!("expected Batch, got {other:?}"),
        }
    }

    #[test]
    fn errors_round_trip_structurally() {
        let errors = vec![
            DbError::UnknownBranch("dev".into()),
            DbError::UnknownCommit(77),
            DbError::NotBranchHead { branch: "b".into() },
            DbError::DuplicateKey { key: u64::MAX },
            DbError::KeyNotFound { key: 0 },
            DbError::SchemaMismatch {
                expected: 3,
                actual: 5,
            },
            DbError::MergeConflicts { count: 12 },
            DbError::corrupt("torn page"),
            DbError::LockContention {
                what: "branch 3".into(),
            },
            DbError::TxnOpen {
                what: "checkout".into(),
            },
            DbError::ReadOnlyCheckout { commit: 4 },
            DbError::JournalDiverged,
            DbError::protocol("junk"),
            DbError::Invalid("other".into()),
            DbError::AuthFailed,
        ];
        for err in errors {
            let back = decode_error(&encode_error(&err)).unwrap();
            assert_eq!(back.code(), err.code());
            assert_eq!(back.to_string(), err.to_string());
        }
        // Io keeps its context and code, with a synthetic remote source.
        let io = DbError::io("writing page", std::io::Error::other("disk full"));
        let back = decode_error(&encode_error(&io)).unwrap();
        assert_eq!(back.code(), ErrorCode::Io);
        assert!(back.to_string().contains("writing page"));
        assert!(back.to_string().contains("disk full"));
    }

    #[test]
    fn unknown_error_code_degrades_to_protocol() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 60_000);
        varint::write_u64(&mut buf, 0);
        varint::write_u64(&mut buf, 0);
        buf.extend_from_slice(b"future variant");
        let err = decode_error(&buf).unwrap();
        assert_eq!(err.code(), ErrorCode::Protocol);
        assert!(err.to_string().contains("future variant"));
    }

    #[test]
    fn hostile_counts_are_rejected() {
        let s = schema();
        // A batch claiming 2^40 rows in a tiny payload must fail fast.
        // (The leading 0 is the Projection::All tag.)
        let mut buf = vec![STATUS_BATCH, 0];
        varint::write_u64(&mut buf, 1 << 40);
        assert!(Response::decode(&buf, &s).is_err());

        let mut buf = vec![STATUS_ABATCH, 0];
        varint::write_u64(&mut buf, 1 << 40);
        assert!(Response::decode(&buf, &s).is_err());

        // A projection claiming 2^40 columns must fail the same way.
        let mut buf = vec![STATUS_BATCH, 1];
        varint::write_u64(&mut buf, 1 << 40);
        assert!(Response::decode(&buf, &s).is_err());
    }

    #[test]
    fn deep_predicates_are_rejected() {
        let mut p = Predicate::True;
        for _ in 0..(MAX_PREDICATE_DEPTH + 4) {
            p = p.not();
        }
        let req = Request::Count {
            version: VersionRef::Branch(BranchId(0)),
            predicate: p,
        };
        let bytes = req.encode(&schema()).unwrap();
        assert!(Request::decode(&bytes, &schema()).is_err());
    }

    #[test]
    fn batch_rows_is_positive_and_byte_bounded() {
        assert_eq!(batch_rows(0), SCAN_BATCH_BYTES);
        assert_eq!(batch_rows(SCAN_BATCH_BYTES * 2), 1);
        let s = Schema::paper_default();
        let rows = batch_rows(s.record_size());
        assert!(rows >= 1 && rows * s.record_size() <= SCAN_BATCH_BYTES);
    }
}
