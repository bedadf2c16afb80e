//! # Decibel — the relational dataset branching system (reproduction)
//!
//! A from-scratch Rust implementation of *Decibel: The Relational Dataset
//! Branching System* (Maddox et al., VLDB 2016): a relational storage
//! engine with git-like dataset versioning — branch, commit, checkout,
//! diff, and merge over tables of records tracked by primary key — in
//! three interchangeable physical storage schemes:
//!
//! * **tuple-first** — one shared heap file plus a bitmap index with one
//!   bit per (branch, tuple), in both branch-oriented and tuple-oriented
//!   layouts (§3.2);
//! * **version-first** — per-branch segment files chained by branch
//!   points (§3.3);
//! * **hybrid** — segmented storage with per-segment bitmap indexes and a
//!   global branch-segment bitmap (§3.4) — the paper's winner.
//!
//! ## Quick start
//!
//! `Database::create`/`Database::open` return an `Arc<Database>`; sessions
//! own a clone of it and are `Send`, so the paper's many-users-many-
//! sessions shape maps onto one session per thread. Reads flow through the
//! fluent query builder and run concurrently under a shared lock; writes
//! are transactional, journaled, and recovered on reopen.
//!
//! ```
//! use decibel::core::query::Predicate;
//! use decibel::core::{Database, EngineKind, MergePolicy};
//! use decibel::common::ids::BranchId;
//! use decibel::common::record::Record;
//! use decibel::common::schema::{ColumnType, Schema};
//! use decibel::pagestore::StoreConfig;
//!
//! let dir = tempfile::tempdir().unwrap();
//! let db = Database::create(
//!     dir.path(),
//!     EngineKind::Hybrid,
//!     Schema::new(4, ColumnType::U32),
//!     &StoreConfig::default(),
//! ).unwrap();
//!
//! // Sessions capture checkout state; writes are transactional.
//! let mut session = db.session();
//! session.insert(Record::new(1, vec![10, 20, 30, 40])).unwrap();
//! session.commit().unwrap();
//!
//! // Branch and diverge on another thread (sessions are Send)...
//! let worker = {
//!     let db = db.clone();
//!     std::thread::spawn(move || {
//!         let mut session = db.session();
//!         let exp = session.branch("experiment").unwrap();
//!         session.update(Record::new(1, vec![99, 20, 30, 40])).unwrap();
//!         session.commit().unwrap();
//!         exp
//!     })
//! };
//! let exp = worker.join().unwrap();
//!
//! // ...query through the fluent builder, then merge back (journaled).
//! let rows = db.read(exp).filter(Predicate::ColGe(0, 50)).collect().unwrap();
//! assert_eq!(rows.len(), 1);
//! db.merge(BranchId::MASTER, exp, MergePolicy::ThreeWay { prefer_left: false })
//!     .unwrap();
//! assert_eq!(db.session().get(1).unwrap().unwrap().field(0), 99);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`common`] | schema/record model, ids, errors, deterministic RNG |
//! | [`pagestore`] | heap files, buffer pool, lock manager, WAL |
//! | [`bitmap`] | bitmaps, branch/tuple-oriented indexes, commit stores |
//! | [`vgraph`] | the version graph (commits, branches, LCA) |
//! | [`core`] | the three engines + database/session/query API |
//! | [`wire`] | the TCP wire protocol + blocking [`Client`] |
//! | [`netio`] | zero-dep readiness layer: epoll poll/registry, wakers |
//! | [`server`] | the event-loop server behind `decibel-server` |
//! | [`gitlike`] | the git baseline (SHA-1, objects, packfiles, repack) |
//!
//! ## Serving over TCP
//!
//! The same database can be served to remote sessions: `decibel-server`
//! (or an in-process [`server::Server`]) multiplexes every connection —
//! each holding one `Session` — onto a single event-loop thread over the
//! [`netio`] readiness layer, streaming scans in bounded chunks and
//! parking blocking calls (commit, merge, flush) on a small worker pool.
//! [`Client`] mirrors the session + query-builder surface over the
//! socket. See the crate docs of [`wire`] for the frame format,
//! [`server`] for the event-loop architecture, and
//! `examples/client_server.rs` for a runnable tour.
//!
//! The paper's evaluation lives in the `decibel-bench` crate
//! (`cargo run -p decibel-bench --release -- all`): every table and figure
//! has a subcommand and a criterion bench. The repo's own performance
//! record — end to end and per layer — is the stand-alone `perfbench/`
//! package; the README's "Benchmarks" section has the one command that
//! regenerates it.

pub use decibel_bitmap as bitmap;
pub use decibel_common as common;
pub use decibel_core as core;
pub use decibel_netio as netio;
pub use decibel_obs as obs;
pub use decibel_pagestore as pagestore;
pub use decibel_server as server;
pub use decibel_vgraph as vgraph;
pub use decibel_wire as wire;
pub use gitlike;

pub use decibel_common::{DbError, ErrorCode, Projection, Result};
pub use decibel_core::{Database, EngineKind, MergePolicy, Session, VersionRef, VersionedStore};
pub use decibel_wire::Client;
