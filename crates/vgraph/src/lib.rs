//! The version graph.
//!
//! "The version-level provenance ... is maintained as a directed acyclic
//! graph, called a version graph" (§2.2.2). Every storage engine "depend\[s\]
//! on a version graph recording the relationships between the versions
//! being available in memory in all approaches (this graph is updated and
//! persisted on disk as a part of each branch or commit operation)" (§3).
//!
//! The graph tracks:
//! * **commits** — immutable point-in-time versions, with one or two parent
//!   edges (two for merges);
//! * **branches** — named working copies; each active branch has a *head*
//!   commit, "the (chronologically) latest version in a branch" (§2.2.2);
//! * **depths** — longest-path-from-root lengths, precomputed so lowest
//!   common ancestor queries (the anchor of every merge and three-way diff)
//!   are a heap walk rather than a full traversal.

use decibel_common::error::{DbError, Result};
use decibel_common::hash::{FxHashMap, FxHashSet};
use decibel_common::ids::{BranchId, CommitId};
use decibel_common::varint;

/// Metadata of one commit (version).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitMeta {
    /// The commit's id (dense: also its index in the graph).
    pub id: CommitId,
    /// Parent commits: one for ordinary commits, two for merges (first
    /// parent = the branch the commit landed on).
    pub parents: Vec<CommitId>,
    /// The branch this commit was made on.
    pub branch: BranchId,
    /// Longest path from the init commit (for LCA).
    pub depth: u32,
}

/// Metadata of one branch (working copy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchMeta {
    /// The branch's id (dense: also its index in the graph).
    pub id: BranchId,
    /// Human-readable name, unique among branches.
    pub name: String,
    /// The branch's head commit.
    pub head: CommitId,
    /// The commit this branch was created from.
    pub forked_at: CommitId,
    /// False once the branch is retired (the science workload stops
    /// updating branches after a fixed lifetime, §4.1).
    pub active: bool,
}

/// The DAG of commits and branches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionGraph {
    commits: Vec<CommitMeta>,
    branches: Vec<BranchMeta>,
    by_name: FxHashMap<String, BranchId>,
}

impl VersionGraph {
    /// Creates a graph holding only the `init` transaction's commit on a
    /// `master` branch (§2.2.3 Init).
    pub fn init() -> VersionGraph {
        let mut g = VersionGraph::default();
        g.commits.push(CommitMeta {
            id: CommitId::INIT,
            parents: Vec::new(),
            branch: BranchId::MASTER,
            depth: 0,
        });
        g.branches.push(BranchMeta {
            id: BranchId::MASTER,
            name: "master".to_string(),
            head: CommitId::INIT,
            forked_at: CommitId::INIT,
            active: true,
        });
        g.by_name.insert("master".to_string(), BranchId::MASTER);
        g
    }

    /// Number of commits.
    pub fn num_commits(&self) -> u64 {
        self.commits.len() as u64
    }

    /// Number of branches (active and retired).
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }

    /// Looks up a commit.
    pub fn commit(&self, id: CommitId) -> Result<&CommitMeta> {
        self.commits
            .get(id.index())
            .ok_or(DbError::UnknownCommit(id.raw()))
    }

    /// Looks up a branch by id.
    pub fn branch(&self, id: BranchId) -> Result<&BranchMeta> {
        self.branches
            .get(id.index())
            .ok_or_else(|| DbError::UnknownBranch(id.to_string()))
    }

    /// Looks up a branch by name.
    pub fn branch_by_name(&self, name: &str) -> Result<&BranchMeta> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| DbError::UnknownBranch(name.to_string()))?;
        self.branch(*id)
    }

    /// The head commit of `branch`.
    pub fn head(&self, branch: BranchId) -> Result<CommitId> {
        Ok(self.branch(branch)?.head)
    }

    /// True if `commit` is the head of the branch it belongs to — the
    /// benchmark's `HEAD()` predicate (Table 1, Query 4).
    pub fn is_head(&self, commit: CommitId) -> bool {
        self.commit(commit)
            .ok()
            .and_then(|c| self.branches.get(c.branch.index()))
            .is_some_and(|b| b.head == commit)
    }

    /// All `(branch, head commit)` pairs, optionally restricted to active
    /// branches.
    pub fn heads(&self, active_only: bool) -> Vec<(BranchId, CommitId)> {
        self.branches
            .iter()
            .filter(|b| !active_only || b.active)
            .map(|b| (b.id, b.head))
            .collect()
    }

    /// Iterates branch metadata.
    pub fn iter_branches(&self) -> impl Iterator<Item = &BranchMeta> {
        self.branches.iter()
    }

    /// Records a new commit on `branch` (which must exist); `extra_parents`
    /// adds merge edges. Returns the commit id and advances the head.
    pub fn add_commit(&mut self, branch: BranchId, extra_parents: &[CommitId]) -> Result<CommitId> {
        let head = self.head(branch)?;
        let mut parents = Vec::with_capacity(1 + extra_parents.len());
        parents.push(head);
        parents.extend_from_slice(extra_parents);
        for p in &parents {
            self.commit(*p)?;
        }
        let depth = parents
            .iter()
            .map(|p| self.commits[p.index()].depth)
            .max()
            .unwrap_or(0)
            + 1;
        let id = CommitId(self.commits.len() as u64);
        self.commits.push(CommitMeta {
            id,
            parents,
            branch,
            depth,
        });
        self.branches[branch.index()].head = id;
        Ok(id)
    }

    /// Fails if `name` is already taken. Engines call this before their
    /// first mutation, so a duplicate-name `create_branch` fails before the
    /// implicit parent commit — not after, which would leave a dangling
    /// commit behind the error.
    pub fn check_name_free(&self, name: &str) -> Result<()> {
        if self.by_name.contains_key(name) {
            return Err(DbError::Invalid(format!(
                "branch name {name:?} already exists"
            )));
        }
        Ok(())
    }

    /// Creates a branch named `name` rooted at `from` ("a new branch can be
    /// made from any commit", §2.2.3). The new branch's head is the fork
    /// commit itself until its first commit.
    pub fn create_branch(&mut self, name: &str, from: CommitId) -> Result<BranchId> {
        self.commit(from)?;
        self.check_name_free(name)?;
        let id = BranchId(self.branches.len() as u32);
        self.branches.push(BranchMeta {
            id,
            name: name.to_string(),
            head: from,
            forked_at: from,
            active: true,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Marks a branch inactive (no further updates expected).
    pub fn retire_branch(&mut self, branch: BranchId) -> Result<()> {
        self.branches
            .get_mut(branch.index())
            .ok_or_else(|| DbError::UnknownBranch(branch.to_string()))?
            .active = false;
        Ok(())
    }

    /// The set of commits reachable from `from` (inclusive).
    pub fn ancestors(&self, from: CommitId) -> FxHashSet<CommitId> {
        let mut seen = FxHashSet::default();
        let mut stack = vec![from];
        while let Some(c) = stack.pop() {
            if seen.insert(c) {
                stack.extend(self.commits[c.index()].parents.iter().copied());
            }
        }
        seen
    }

    /// The lowest common ancestor of two commits: the deepest commit
    /// reachable from both. Merges anchor their three-way conflict
    /// detection here ("the lca commit is restored", §3.2).
    pub fn lca(&self, a: CommitId, b: CommitId) -> Result<CommitId> {
        self.commit(a)?;
        self.commit(b)?;
        let ancestors_a = self.ancestors(a);
        // Walk from b in decreasing depth; the first commit in A's ancestor
        // set is the deepest common ancestor.
        let mut heap = std::collections::BinaryHeap::new();
        let mut pushed = FxHashSet::default();
        heap.push((self.commits[b.index()].depth, b));
        pushed.insert(b);
        while let Some((_, c)) = heap.pop() {
            if ancestors_a.contains(&c) {
                return Ok(c);
            }
            for &p in &self.commits[c.index()].parents {
                if pushed.insert(p) {
                    heap.push((self.commits[p.index()].depth, p));
                }
            }
        }
        // Unreachable in a graph with a single init root.
        Err(DbError::corrupt("commits share no common ancestor"))
    }

    /// The linear history of commits from `from` back to the init commit,
    /// following first parents only (a branch's "lineage or ancestry",
    /// §2.2.3), most recent first.
    pub fn first_parent_chain(&self, from: CommitId) -> Vec<CommitId> {
        let mut chain = vec![from];
        let mut cur = from;
        while let Some(&p) = self.commits[cur.index()].parents.first() {
            chain.push(p);
            cur = p;
        }
        chain
    }

    /// Topological order over all commits (parents before children).
    /// Commit ids are assigned in creation order, so the identity order is
    /// already topological; this is kept explicit for readers and tests.
    pub fn topo_order(&self) -> Vec<CommitId> {
        self.commits.iter().map(|c| c.id).collect()
    }

    // ------------------------------------------------------------------
    // Persistence ("this graph is updated and persisted on disk as a part
    // of each branch or commit operation", §3).
    // ------------------------------------------------------------------

    /// Serializes the graph to a byte buffer (varint-based binary format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"DVG1");
        varint::write_u64(&mut out, self.commits.len() as u64);
        for c in &self.commits {
            varint::write_u64(&mut out, c.branch.raw() as u64);
            varint::write_u64(&mut out, c.depth as u64);
            varint::write_u64(&mut out, c.parents.len() as u64);
            for p in &c.parents {
                varint::write_u64(&mut out, p.raw());
            }
        }
        varint::write_u64(&mut out, self.branches.len() as u64);
        for b in &self.branches {
            varint::write_u64(&mut out, b.name.len() as u64);
            out.extend_from_slice(b.name.as_bytes());
            varint::write_u64(&mut out, b.head.raw());
            varint::write_u64(&mut out, b.forked_at.raw());
            out.push(b.active as u8);
        }
        out
    }

    /// Deserializes a graph produced by [`VersionGraph::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<VersionGraph> {
        if bytes.len() < 4 || &bytes[..4] != b"DVG1" {
            return Err(DbError::corrupt("bad version graph magic"));
        }
        let mut pos = 4usize;
        let n_commits = varint::read_u64(bytes, &mut pos)? as usize;
        let mut commits = Vec::with_capacity(n_commits);
        for i in 0..n_commits {
            let branch = BranchId(varint::read_u64(bytes, &mut pos)? as u32);
            let depth = varint::read_u64(bytes, &mut pos)? as u32;
            let n_parents = varint::read_u64(bytes, &mut pos)? as usize;
            let mut parents = Vec::with_capacity(n_parents);
            for _ in 0..n_parents {
                parents.push(CommitId(varint::read_u64(bytes, &mut pos)?));
            }
            commits.push(CommitMeta {
                id: CommitId(i as u64),
                parents,
                branch,
                depth,
            });
        }
        let n_branches = varint::read_u64(bytes, &mut pos)? as usize;
        let mut branches = Vec::with_capacity(n_branches);
        let mut by_name = FxHashMap::default();
        for i in 0..n_branches {
            let name_len = varint::read_u64(bytes, &mut pos)? as usize;
            if pos + name_len > bytes.len() {
                return Err(DbError::corrupt("version graph truncated in branch name"));
            }
            let name = String::from_utf8(bytes[pos..pos + name_len].to_vec())
                .map_err(|_| DbError::corrupt("branch name is not UTF-8"))?;
            pos += name_len;
            let head = CommitId(varint::read_u64(bytes, &mut pos)?);
            let forked_at = CommitId(varint::read_u64(bytes, &mut pos)?);
            let active = *bytes
                .get(pos)
                .ok_or_else(|| DbError::corrupt("version graph truncated"))?
                != 0;
            pos += 1;
            by_name.insert(name.clone(), BranchId(i as u32));
            branches.push(BranchMeta {
                id: BranchId(i as u32),
                name,
                head,
                forked_at,
                active,
            });
        }
        Ok(VersionGraph {
            commits,
            branches,
            by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Figure 1(b) shape:
    /// master: A - B - D;  branch2 forks at A: C - E;  F merges D and E.
    fn figure_1b() -> (VersionGraph, [CommitId; 6], BranchId) {
        let mut g = VersionGraph::init();
        let a = CommitId::INIT;
        let b = g.add_commit(BranchId::MASTER, &[]).unwrap();
        let br2 = g.create_branch("branch2", a).unwrap();
        let c = g.add_commit(br2, &[]).unwrap();
        let d = g.add_commit(BranchId::MASTER, &[]).unwrap();
        let e = g.add_commit(br2, &[]).unwrap();
        let f = g.add_commit(BranchId::MASTER, &[e]).unwrap(); // merge into master
        (g, [a, b, c, d, e, f], br2)
    }

    #[test]
    fn init_graph_shape() {
        let g = VersionGraph::init();
        assert_eq!(g.num_commits(), 1);
        assert_eq!(g.num_branches(), 1);
        assert_eq!(g.head(BranchId::MASTER).unwrap(), CommitId::INIT);
        assert!(g.is_head(CommitId::INIT));
        assert_eq!(g.branch_by_name("master").unwrap().id, BranchId::MASTER);
    }

    #[test]
    fn commits_advance_heads() {
        let mut g = VersionGraph::init();
        let c1 = g.add_commit(BranchId::MASTER, &[]).unwrap();
        assert_eq!(g.head(BranchId::MASTER).unwrap(), c1);
        assert!(g.is_head(c1));
        assert!(!g.is_head(CommitId::INIT));
    }

    #[test]
    fn branch_from_historical_commit() {
        let mut g = VersionGraph::init();
        let c1 = g.add_commit(BranchId::MASTER, &[]).unwrap();
        let _c2 = g.add_commit(BranchId::MASTER, &[]).unwrap();
        let b = g.create_branch("old", c1).unwrap();
        assert_eq!(g.head(b).unwrap(), c1);
        let c3 = g.add_commit(b, &[]).unwrap();
        assert_eq!(g.commit(c3).unwrap().parents, vec![c1]);
    }

    #[test]
    fn duplicate_branch_name_rejected() {
        let mut g = VersionGraph::init();
        g.create_branch("dev", CommitId::INIT).unwrap();
        assert!(g.create_branch("dev", CommitId::INIT).is_err());
    }

    #[test]
    fn merge_commit_has_two_parents() {
        let (g, [_, _, _, d, e, f], _) = figure_1b();
        let meta = g.commit(f).unwrap();
        assert_eq!(meta.parents, vec![d, e]);
        assert!(g.is_head(f));
    }

    #[test]
    fn lca_linear_chain() {
        let mut g = VersionGraph::init();
        let c1 = g.add_commit(BranchId::MASTER, &[]).unwrap();
        let c2 = g.add_commit(BranchId::MASTER, &[]).unwrap();
        assert_eq!(g.lca(c1, c2).unwrap(), c1);
        assert_eq!(g.lca(c2, c1).unwrap(), c1);
        assert_eq!(g.lca(c2, c2).unwrap(), c2);
    }

    #[test]
    fn lca_across_fork() {
        let (g, [a, b, c, d, e, _], _) = figure_1b();
        assert_eq!(g.lca(d, e).unwrap(), a, "D and E fork at A");
        assert_eq!(g.lca(b, c).unwrap(), a);
    }

    #[test]
    fn lca_after_merge_is_merged_commit() {
        let (mut g, [_, _, _, _, e, f], br2) = figure_1b();
        // New work on both branches after the merge: LCA must be E (the
        // deepest common ancestor via the merge edge), not A.
        let e2 = g.add_commit(br2, &[]).unwrap();
        let f2 = g.add_commit(BranchId::MASTER, &[]).unwrap();
        let _ = f;
        assert_eq!(g.lca(f2, e2).unwrap(), e);
    }

    #[test]
    fn ancestors_include_merge_parents() {
        let (g, [a, b, c, d, e, f], _) = figure_1b();
        let anc = g.ancestors(f);
        for c_ in [a, b, c, d, e, f] {
            assert!(anc.contains(&c_));
        }
    }

    #[test]
    fn first_parent_chain_stays_on_branch() {
        let (g, [a, b, d0, _, _, f], _) = figure_1b();
        // chain from F: F, D, B, A following first parents.
        let chain = g.first_parent_chain(f);
        let _ = d0;
        assert_eq!(chain.first(), Some(&f));
        assert_eq!(chain.last(), Some(&a));
        assert!(chain.contains(&b));
        assert_eq!(chain.len(), 4);
    }

    #[test]
    fn heads_listing_and_retire() {
        let (mut g, _, br2) = figure_1b();
        assert_eq!(g.heads(true).len(), 2);
        g.retire_branch(br2).unwrap();
        assert_eq!(g.heads(true).len(), 1);
        assert_eq!(g.heads(false).len(), 2);
    }

    #[test]
    fn unknown_lookups_error() {
        let g = VersionGraph::init();
        assert!(g.commit(CommitId(99)).is_err());
        assert!(g.branch(BranchId(99)).is_err());
        assert!(g.branch_by_name("nope").is_err());
    }

    #[test]
    fn persistence_roundtrip() {
        let (g, _, _) = figure_1b();
        let bytes = g.to_bytes();
        let back = VersionGraph::from_bytes(&bytes).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(VersionGraph::from_bytes(b"nope").is_err());
        let (g, _, _) = figure_1b();
        let mut bytes = g.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(VersionGraph::from_bytes(&bytes).is_err());
    }

    #[test]
    fn topo_order_parents_first() {
        let (g, _, _) = figure_1b();
        let order = g.topo_order();
        let pos: FxHashMap<CommitId, usize> =
            order.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        for c in order {
            for p in &g.commit(c).unwrap().parents {
                assert!(pos[p] < pos[&c]);
            }
        }
    }
}
