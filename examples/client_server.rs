//! Client/server quickstart: Decibel sessions over TCP.
//!
//! Spawns an in-process `decibel_server::Server` on an ephemeral loopback
//! port (the same server the `decibel-server` binary runs), then drives it
//! with `decibel::Client` connections: transactional writes, branching,
//! concurrent clients on disjoint branches, typed remote errors, a merge,
//! and a graceful shutdown that checkpoints the database for a fast
//! restart.
//!
//! Run with: `cargo run --example client_server`

use decibel::common::ids::BranchId;
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::core::query::Predicate;
use decibel::core::{Database, EngineKind, MergePolicy};
use decibel::pagestore::StoreConfig;
use decibel::server::Server;
use decibel::{Client, DbError};

fn main() -> decibel::Result<()> {
    let dir = tempfile::tempdir().expect("tempdir");
    let config = StoreConfig::default();

    // One process owns the database and serves it; port 0 picks an
    // ephemeral port (the binary defaults to 127.0.0.1:7430).
    let db = Database::create(
        dir.path().join("db"),
        EngineKind::Hybrid,
        Schema::new(4, ColumnType::U32),
        &config,
    )?;
    let handle = Server::bind(db, "127.0.0.1:0")?.spawn();
    let addr = handle.local_addr();
    println!("serving a hybrid-engine database on {addr}");

    // A client is a remote session: same fluent surface, over the socket.
    let mut alice = Client::connect(addr)?;
    println!(
        "alice connected: engine={}, {} columns",
        alice.engine(),
        alice.schema().num_columns()
    );
    for key in 0..100u64 {
        alice.insert(Record::new(key, vec![key * 2, key % 7, 1000 + key, 0]))?;
    }
    let v1 = alice.commit()?;
    println!("alice committed 100 records as version {v1}");

    // A second client works on its own branch concurrently — disjoint
    // branches never contend (per-branch two-phase locks).
    let bob_thread = std::thread::spawn(move || -> decibel::Result<u64> {
        let mut bob = Client::connect(addr)?;
        bob.branch("bob-experiment")?;
        for key in 500..560u64 {
            bob.insert(Record::new(key, vec![9, 9, 9, 9]))?;
        }
        bob.commit()?;
        let branch = bob.branch_id("bob-experiment")?;
        bob.read(branch).count()
    });

    // Meanwhile alice keeps editing master.
    alice.update(Record::new(7, vec![7_700, 0, 1007, 1]))?;
    alice.delete(13)?;
    alice.commit()?;
    let bob_rows = bob_thread.join().expect("bob thread")?;
    println!("bob's branch sees {bob_rows} records (100 inherited + 60 own)");

    // Remote reads stream in record batches; filters run server-side.
    let sevens = alice
        .read(BranchId::MASTER)
        .filter(Predicate::ColEq(1, 0))
        .count()?;
    println!("{sevens} records on master satisfy col1 = 0");

    // Errors arrive as typed variants, matchable by kind.
    match alice.insert(Record::new(7, vec![0, 0, 0, 0])) {
        Err(DbError::DuplicateKey { key }) => {
            println!("typed remote error: duplicate key {key}");
            alice.rollback()?;
        }
        other => panic!("expected a duplicate-key error, got {other:?}"),
    }

    // Merge bob's branch into master over the wire.
    let bob_branch = alice.branch_id("bob-experiment")?;
    let master = alice.branch_id("master")?;
    let result = alice.merge(
        master,
        bob_branch,
        MergePolicy::ThreeWay { prefer_left: false },
    )?;
    println!(
        "merged bob-experiment into master: commit {}, {} records changed",
        result.commit, result.records_changed
    );

    // Multi-branch annotated scan, streamed from the server.
    let annotated = alice.read_branches(&[master, bob_branch]).annotated()?;
    println!(
        "annotated scan over both branches: {} rows",
        annotated.len()
    );

    // Graceful shutdown checkpoints; the restarted server replays nothing.
    drop(alice);
    handle.shutdown()?;
    let db = Database::open(dir.path().join("db"), &config)?;
    assert_eq!(db.replayed_on_open(), 0, "shutdown checkpoint covered it");
    let handle = Server::bind(db, "127.0.0.1:0")?.spawn();
    let mut again = Client::connect(handle.local_addr())?;
    assert_eq!(again.get(555)?.unwrap().field(0), 9);
    println!(
        "restarted on {} from the checkpoint: merged state intact",
        handle.local_addr()
    );
    drop(again);
    handle.shutdown()?;
    println!("client_server complete");
    Ok(())
}
