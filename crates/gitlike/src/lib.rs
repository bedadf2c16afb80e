//! A from-scratch git-like version control system.
//!
//! §5.7 of the Decibel paper asks "whether it would be possible to build
//! Decibel on top of an existing version control system like git" and
//! answers by implementing the Decibel API over git in several storage
//! layouts. We cannot ship the git binary, so this crate rebuilds the
//! *mechanisms* the paper measures and blames for git's behaviour:
//!
//! * content addressing — every object is named by a SHA-1 over its full
//!   serialized form ([`sha1`]), so commit cost grows with data size
//!   ("compute SHA-1 hashes for each commit (proportional to data set
//!   size)");
//! * loose blob/tree/commit objects, compressed on disk ([`object`],
//!   [`compress`] — an LZSS substitute for zlib, see its module docs);
//! * packfiles with byte-level copy/insert delta chains and an explicit
//!   `repack` operation ([`delta`], [`pack`]) — "git exhaustively compares
//!   objects to find the best delta encoding to use";
//! * refs, branches, commits, and checkouts over a working directory
//!   ([`repo`]);
//! * the paper's four table layouts — one-file vs file-per-tuple, CSV vs
//!   binary encoding ([`table`]) — driven through a Decibel-like API.

pub mod compress;
pub mod delta;
pub mod object;
pub mod pack;
pub mod repo;
pub mod sha1;
pub mod table;

pub use repo::Repo;
pub use table::{GitTable, TableLayout};
