//! The blocking client: a remote [`Session`](decibel_core::Session) plus
//! the fluent read surface, over one TCP connection.
//!
//! A [`Client`] owns one connection and therefore one server-side session:
//! its checkout position, transaction state, and branch locks live on the
//! server and follow the session's rules (dropping the client — or losing
//! the connection — rolls back and releases locks, exactly like dropping a
//! local `Session`). Methods mirror the in-process API one-for-one:
//!
//! ```text
//! local                                   remote
//! db.session().insert(rec)                client.insert(rec)
//! session.commit()                        client.commit()
//! db.read(v).filter(p).collect()          client.read(v).filter(p).collect()
//! db.read_branches(&ids).annotated()      client.read_branches(&ids).annotated()
//! db.merge(into, from, policy)            client.merge(into, from, policy)
//! ```
//!
//! Scan terminals stream [`STATUS_BATCH`](crate::proto::STATUS_BATCH)
//! frames (many rows per frame) and verify the server's terminal row count
//! against what was received, so a truncated stream cannot silently pass
//! for a short table.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use decibel_common::error::{DbError, Result};
use decibel_common::ids::{BranchId, CommitId};
use decibel_common::record::Record;
use decibel_common::schema::Schema;
use decibel_common::Projection;
use decibel_core::query::{AggKind, Predicate};
use decibel_core::types::{MergePolicy, MergeResult, VersionRef};

use crate::frame::{read_frame, write_frame};
use crate::proto::{self, Hello, Reply, Request, Response};

/// A blocking connection to a `decibel-server`, holding one remote session.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    hello: Hello,
}

impl Client {
    /// Connects and performs the hello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream =
            TcpStream::connect(addr).map_err(|e| DbError::io("connecting to decibel-server", e))?;
        // Request/response round-trips are latency-bound; never Nagle them.
        stream
            .set_nodelay(true)
            .map_err(|e| DbError::io("setting TCP_NODELAY", e))?;
        let write_half = stream
            .try_clone()
            .map_err(|e| DbError::io("cloning client socket", e))?;
        let mut reader = BufReader::new(stream);
        let hello_frame = read_frame(&mut reader)?
            .ok_or_else(|| DbError::protocol("server closed the connection before hello"))?;
        let hello = Hello::decode(&hello_frame)?;
        Ok(Client {
            reader,
            writer: BufWriter::new(write_half),
            hello,
        })
    }

    /// Connects, performs the hello handshake, and presents a shared-secret
    /// token as the first request. Works against any server: a
    /// token-protected server demands exactly this before serving anything
    /// (rejecting with [`DbError::AuthFailed`] on mismatch), and a server
    /// without a token accepts the frame and ignores the secret.
    pub fn connect_with_token(addr: impl ToSocketAddrs, token: &str) -> Result<Client> {
        let mut client = Client::connect(addr)?;
        client.expect_unit(&Request::Auth {
            token: token.into(),
        })?;
        Ok(client)
    }

    /// The relation's schema, as announced by the server.
    pub fn schema(&self) -> &Schema {
        &self.hello.schema
    }

    /// The serving engine's stable name, as announced by the server.
    pub fn engine(&self) -> &str {
        &self.hello.engine
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        let payload = req.encode(&self.hello.schema)?;
        write_frame(&mut self.writer, &payload)?;
        self.writer
            .flush()
            .map_err(|e| DbError::io("flushing request", e))
    }

    fn next_frame(&mut self) -> Result<Vec<u8>> {
        read_frame(&mut self.reader)?
            .ok_or_else(|| DbError::protocol("server closed the connection mid-request"))
    }

    /// One request → one terminal reply (no batch frames expected).
    fn call(&mut self, req: &Request) -> Result<Reply> {
        self.send(req)?;
        let frame = self.next_frame()?;
        match Response::decode(&frame, &self.hello.schema)? {
            Response::Ok(reply) => Ok(reply),
            Response::Err(err) => Err(err),
            Response::Batch(..) | Response::AnnotatedBatch(..) => Err(DbError::protocol(
                "unexpected batch frame for a non-scan request",
            )),
        }
    }

    /// One scan-shaped request → streamed batch frames of status
    /// `batch_status`, each decoded straight into the result vector by
    /// `decode_into` → terminal row count.
    fn call_streamed<T>(
        &mut self,
        req: &Request,
        batch_status: u8,
        decode_into: fn(&[u8], &Schema, &mut Vec<T>) -> Result<Projection>,
    ) -> Result<Vec<T>> {
        self.send(req)?;
        let mut rows = Vec::new();
        loop {
            let frame = self.next_frame()?;
            if frame.first() == Some(&batch_status) {
                decode_into(&frame, &self.hello.schema, &mut rows)?;
                continue;
            }
            return match Response::decode(&frame, &self.hello.schema)? {
                Response::Ok(Reply::Rows(total)) if total == rows.len() as u64 => Ok(rows),
                Response::Ok(Reply::Rows(total)) => Err(DbError::protocol(format!(
                    "scan terminal claims {total} rows, received {}",
                    rows.len()
                ))),
                Response::Ok(other) => Err(DbError::protocol(format!(
                    "unexpected scan terminal {other:?}"
                ))),
                Response::Err(err) => Err(err),
                Response::Batch(..) | Response::AnnotatedBatch(..) => {
                    Err(DbError::protocol("batch frame of the wrong kind in a scan"))
                }
            };
        }
    }

    /// One request → streamed record batches → terminal row count.
    fn call_scan(&mut self, req: &Request) -> Result<Vec<Record>> {
        self.call_streamed(req, proto::STATUS_BATCH, proto::decode_batch_into)
    }

    /// One request → streamed annotated batches → terminal row count.
    fn call_annotated(&mut self, req: &Request) -> Result<Vec<(Record, Vec<BranchId>)>> {
        self.call_streamed(
            req,
            proto::STATUS_ABATCH,
            proto::decode_annotated_batch_into,
        )
    }

    fn expect_unit(&mut self, req: &Request) -> Result<()> {
        match self.call(req)? {
            Reply::Unit => Ok(()),
            other => Err(DbError::protocol(format!("expected unit, got {other:?}"))),
        }
    }

    fn expect_branch(&mut self, req: &Request) -> Result<BranchId> {
        match self.call(req)? {
            Reply::Branch(b) => Ok(b),
            other => Err(DbError::protocol(format!(
                "expected a branch id, got {other:?}"
            ))),
        }
    }

    // ----------------------------------------------------------------
    // Session surface
    // ----------------------------------------------------------------

    /// Checks out a branch by name, returning its id.
    pub fn checkout_branch(&mut self, name: &str) -> Result<BranchId> {
        self.expect_branch(&Request::CheckoutBranch { name: name.into() })
    }

    /// Checks out a historical commit (read-only position).
    pub fn checkout_commit(&mut self, commit: CommitId) -> Result<()> {
        self.expect_unit(&Request::CheckoutCommit { commit })
    }

    /// Creates a branch at the session's position and checks it out.
    pub fn branch(&mut self, name: &str) -> Result<BranchId> {
        self.expect_branch(&Request::Branch { name: name.into() })
    }

    /// Resolves a branch name to its id without moving the session.
    pub fn branch_id(&mut self, name: &str) -> Result<BranchId> {
        self.expect_branch(&Request::LookupBranch { name: name.into() })
    }

    /// Opens a transaction explicitly (writes auto-begin one).
    pub fn begin(&mut self) -> Result<()> {
        self.expect_unit(&Request::Begin)
    }

    /// Buffers an insert in the remote session's transaction.
    pub fn insert(&mut self, record: Record) -> Result<()> {
        self.expect_unit(&Request::Insert { record })
    }

    /// Buffers an update.
    pub fn update(&mut self, record: Record) -> Result<()> {
        self.expect_unit(&Request::Update { record })
    }

    /// Buffers a delete; returns whether the key was visible.
    pub fn delete(&mut self, key: u64) -> Result<bool> {
        match self.call(&Request::Delete { key })? {
            Reply::Bool(b) => Ok(b),
            other => Err(DbError::protocol(format!("expected a bool, got {other:?}"))),
        }
    }

    /// Point lookup as the remote session sees it (overlay first).
    pub fn get(&mut self, key: u64) -> Result<Option<Record>> {
        match self.call(&Request::Get { key })? {
            Reply::MaybeRecord(r) => Ok(r),
            other => Err(DbError::protocol(format!(
                "expected an optional record, got {other:?}"
            ))),
        }
    }

    /// Commits the remote transaction, returning the new commit id.
    pub fn commit(&mut self) -> Result<CommitId> {
        match self.call(&Request::Commit)? {
            Reply::Commit(c) => Ok(c),
            other => Err(DbError::protocol(format!(
                "expected a commit id, got {other:?}"
            ))),
        }
    }

    /// Discards the remote transaction.
    pub fn rollback(&mut self) -> Result<()> {
        self.expect_unit(&Request::Rollback)
    }

    /// Materializes the remote session's view (base version merged with
    /// the transaction overlay), streamed in record batches.
    pub fn scan_collect(&mut self) -> Result<Vec<Record>> {
        self.call_scan(&Request::ScanSession)
    }

    /// Merges branch `from` into branch `into` under `policy`.
    pub fn merge(
        &mut self,
        into: BranchId,
        from: BranchId,
        policy: MergePolicy,
    ) -> Result<MergeResult> {
        match self.call(&Request::Merge { into, from, policy })? {
            Reply::Merge(m) => Ok(m),
            other => Err(DbError::protocol(format!(
                "expected a merge result, got {other:?}"
            ))),
        }
    }

    /// Checkpoints the remote database ([`Database::flush`](decibel_core::Database::flush)).
    pub fn flush(&mut self) -> Result<()> {
        self.expect_unit(&Request::Flush)
    }

    /// Fetches a point-in-time metrics snapshot: the remote database's
    /// registry (`pool`, `wal`, `commit`, `scan`, `checkpoint` families)
    /// merged with the server's own event-loop instruments (`server`).
    /// Take two snapshots and [`Snapshot::diff`](decibel_obs::Snapshot::diff)
    /// them to measure an interval. A pre-stats server answers the unknown
    /// opcode with a typed protocol error and keeps the connection usable.
    pub fn stats(&mut self) -> Result<decibel_obs::Snapshot> {
        match self.call(&Request::Stats)? {
            Reply::Stats(snap) => Ok(snap),
            other => Err(DbError::protocol(format!(
                "expected a stats snapshot, got {other:?}"
            ))),
        }
    }

    // ----------------------------------------------------------------
    // Fluent read surface
    // ----------------------------------------------------------------

    /// Starts a fluent single-version read, mirroring
    /// [`Database::read`](decibel_core::Database::read):
    /// `client.read(v).filter(p).collect()`.
    pub fn read(&mut self, version: impl Into<VersionRef>) -> RemoteReadBuilder<'_> {
        RemoteReadBuilder {
            client: self,
            version: version.into(),
            predicate: Predicate::True,
            projection: Projection::All,
        }
    }

    /// Starts a fluent multi-branch annotated read, mirroring
    /// [`Database::read_branches`](decibel_core::Database::read_branches).
    pub fn read_branches(&mut self, branches: &[BranchId]) -> RemoteMultiReadBuilder<'_> {
        RemoteMultiReadBuilder {
            client: self,
            branches: branches.to_vec(),
            predicate: Predicate::True,
            projection: Projection::All,
        }
    }
}

/// Combines filters: chaining `.filter(a).filter(b)` means `a AND b`.
fn and(current: Predicate, next: Predicate) -> Predicate {
    if matches!(current, Predicate::True) {
        next
    } else {
        Predicate::And(Box::new(current), Box::new(next))
    }
}

/// Remote counterpart of [`ReadBuilder`](decibel_core::ReadBuilder).
#[must_use = "builders do nothing until a terminal method runs them"]
pub struct RemoteReadBuilder<'a> {
    client: &'a mut Client,
    version: VersionRef,
    predicate: Predicate,
    projection: Projection,
}

impl RemoteReadBuilder<'_> {
    /// Adds a row filter (chained filters are ANDed).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = and(self.predicate, predicate);
        self
    }

    /// Ships only these data columns across the wire (non-selected fields
    /// of the returned records read `0`); chained selects union. Filters
    /// still see every column — they run server-side, against page bytes.
    /// An out-of-range column fails the terminal with a typed
    /// [`DbError::Invalid`] from the server, before the scan starts.
    pub fn select(mut self, cols: &[usize]) -> Self {
        self.projection = self.projection.narrow(cols);
        self
    }

    /// Materializes the qualifying records.
    pub fn collect(self) -> Result<Vec<Record>> {
        self.client.call_scan(&Request::Collect {
            version: self.version,
            predicate: self.predicate,
            projection: self.projection,
        })
    }

    /// Counts the qualifying records server-side (no rows cross the wire).
    pub fn count(self) -> Result<u64> {
        match self.client.call(&Request::Count {
            version: self.version,
            predicate: self.predicate,
        })? {
            Reply::Scalar(x) => Ok(x as u64),
            other => Err(DbError::protocol(format!(
                "expected a scalar, got {other:?}"
            ))),
        }
    }

    /// Runs a single aggregate over data column `column`, server-side.
    pub fn aggregate(self, column: usize, agg: AggKind) -> Result<f64> {
        match self.client.call(&Request::Aggregate {
            version: self.version,
            column,
            agg,
            predicate: self.predicate,
        })? {
            Reply::Scalar(x) => Ok(x),
            other => Err(DbError::protocol(format!(
                "expected a scalar, got {other:?}"
            ))),
        }
    }
}

/// Remote counterpart of
/// [`MultiReadBuilder`](decibel_core::MultiReadBuilder).
#[must_use = "builders do nothing until a terminal method runs them"]
pub struct RemoteMultiReadBuilder<'a> {
    client: &'a mut Client,
    branches: Vec<BranchId>,
    predicate: Predicate,
    projection: Projection,
}

impl RemoteMultiReadBuilder<'_> {
    /// Adds a row filter (chained filters are ANDed).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = and(self.predicate, predicate);
        self
    }

    /// Accepted and ignored, like
    /// [`MultiReadBuilder::parallel`](decibel_core::MultiReadBuilder::parallel):
    /// the server always streams the scan.
    pub fn parallel(self, _threads: usize) -> Self {
        self
    }

    /// Ships only these data columns across the wire (chained selects
    /// union); branch annotations are computed before projection, so the
    /// liveness sets are unaffected.
    pub fn select(mut self, cols: &[usize]) -> Self {
        self.projection = self.projection.narrow(cols);
        self
    }

    /// Materializes the annotated multi-branch scan, streamed in batches.
    pub fn annotated(self) -> Result<Vec<(Record, Vec<BranchId>)>> {
        self.client.call_annotated(&Request::MultiScan {
            branches: self.branches,
            predicate: self.predicate,
            parallel: 1,
            projection: self.projection,
        })
    }
}
