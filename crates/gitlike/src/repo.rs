//! The repository: working directory, refs, commits, checkouts, repack.
//!
//! The paper's baseline "created a local git repository, and call\[s\] git
//! commands (e.g. branch) in place of Decibel API calls" (§5.7). This is
//! that repository: a working directory of table files, a `.gitlike`
//! directory holding loose objects / packfiles / refs, and the five
//! operations the benchmark drives (add+commit, branch, checkout, repack,
//! size accounting).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use decibel_common::error::{DbError, IoResultExt, Result};
use decibel_common::hash::FxHashMap;

use crate::object::{Commit, ObjKind, ObjectStore, Tree};
use crate::pack::{Pack, RepackStats};
use crate::sha1::Sha1;

/// A git-like repository over a working directory.
pub struct Repo {
    workdir: PathBuf,
    gitdir: PathBuf,
    objects: ObjectStore,
    packs: Vec<Pack>,
    refs: FxHashMap<String, Sha1>,
    head: String,
}

impl Repo {
    /// Initializes a repository whose working directory is `workdir`.
    pub fn init(workdir: impl AsRef<Path>) -> Result<Repo> {
        let workdir = workdir.as_ref().to_path_buf();
        fs::create_dir_all(&workdir).ctx("creating working directory")?;
        let gitdir = workdir.join(".gitlike");
        fs::create_dir_all(&gitdir).ctx("creating .gitlike")?;
        let objects = ObjectStore::new(gitdir.join("objects"))?;
        let mut repo = Repo {
            workdir,
            gitdir,
            objects,
            packs: Vec::new(),
            refs: FxHashMap::default(),
            head: "master".to_string(),
        };
        // Root commit over the (empty) working tree.
        let root = repo.commit("init")?;
        repo.refs.insert("master".to_string(), root);
        Ok(repo)
    }

    /// The working directory path.
    pub fn workdir(&self) -> &Path {
        &self.workdir
    }

    /// The head commit of a branch.
    pub fn branch_head(&self, name: &str) -> Result<Sha1> {
        self.refs
            .get(name)
            .copied()
            .ok_or_else(|| DbError::UnknownBranch(name.to_string()))
    }

    fn read_object(&self, id: Sha1) -> Result<(ObjKind, Vec<u8>)> {
        if self.objects.contains(id) {
            return self.objects.read(id);
        }
        for pack in &self.packs {
            if pack.contains(id) {
                let full = pack.read_full(id)?;
                return ObjectStore::parse(&full);
            }
        }
        Err(DbError::corrupt(format!(
            "object {} not found",
            id.to_hex()
        )))
    }

    /// Lists working-directory data files (sorted; `.gitlike` excluded).
    fn work_files(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.workdir).ctx("listing workdir")? {
            let entry = entry.ctx("listing workdir")?;
            let name = entry.file_name().to_string_lossy().to_string();
            if name == ".gitlike" {
                continue;
            }
            if entry.file_type().ctx("stat workdir entry")?.is_file() {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    /// `git add -A && git commit`: hashes every working file into a blob
    /// (cost proportional to the dataset, as §5.7 observes), snapshots the
    /// tree, and advances the current branch.
    pub fn commit(&mut self, message: &str) -> Result<Sha1> {
        let mut entries = Vec::new();
        for name in self.work_files()? {
            let content = fs::read(self.workdir.join(&name)).ctx("reading working file")?;
            let blob = self.objects.write(ObjKind::Blob, &content)?;
            entries.push((name, blob));
        }
        let tree = Tree { entries };
        let tree_id = self.objects.write(ObjKind::Tree, &tree.to_bytes())?;
        let parents = self.refs.get(&self.head).copied().into_iter().collect();
        let commit = Commit {
            tree: tree_id,
            parents,
            message: message.to_string(),
        };
        let commit_id = self.objects.write(ObjKind::Commit, &commit.to_bytes())?;
        self.refs.insert(self.head.clone(), commit_id);
        Ok(commit_id)
    }

    /// `git branch <name>`: a new ref at the current head.
    pub fn branch(&mut self, name: &str) -> Result<()> {
        if self.refs.contains_key(name) {
            return Err(DbError::Invalid(format!("branch {name:?} already exists")));
        }
        let head = self.branch_head(&self.head)?;
        self.refs.insert(name.to_string(), head);
        Ok(())
    }

    /// `git checkout <branch>`: materializes the branch head's tree into
    /// the working directory and switches HEAD.
    pub fn checkout_branch(&mut self, name: &str) -> Result<()> {
        let commit = self.branch_head(name)?;
        self.materialize(commit)?;
        self.head = name.to_string();
        Ok(())
    }

    /// `git checkout <commit>`: materializes a commit (detached HEAD stays
    /// on the current branch for subsequent commits).
    pub fn checkout_commit(&mut self, commit: Sha1) -> Result<()> {
        self.materialize(commit)
    }

    fn materialize(&self, commit: Sha1) -> Result<()> {
        let (kind, payload) = self.read_object(commit)?;
        if kind != ObjKind::Commit {
            return Err(DbError::corrupt("checkout target is not a commit"));
        }
        let commit = Commit::from_bytes(&payload)?;
        let (kind, payload) = self.read_object(commit.tree)?;
        if kind != ObjKind::Tree {
            return Err(DbError::corrupt("commit tree is not a tree"));
        }
        let tree = Tree::from_bytes(&payload)?;
        // Remove files not in the target tree.
        for name in self.work_files()? {
            if tree.get(&name).is_none() {
                fs::remove_file(self.workdir.join(&name)).ctx("removing stale file")?;
            }
        }
        // Write out every tree entry ("restoring binary objects is
        // inefficient": each blob may walk a delta chain).
        for (name, blob_id) in &tree.entries {
            let (kind, content) = self.read_object(*blob_id)?;
            if kind != ObjKind::Blob {
                return Err(DbError::corrupt("tree entry is not a blob"));
            }
            fs::write(self.workdir.join(name), content).ctx("writing working file")?;
        }
        Ok(())
    }

    /// Parents of a commit (for history walks).
    pub fn commit_parents(&self, id: Sha1) -> Result<Vec<Sha1>> {
        let (kind, payload) = self.read_object(id)?;
        if kind != ObjKind::Commit {
            return Err(DbError::corrupt("not a commit"));
        }
        Ok(Commit::from_bytes(&payload)?.parents)
    }

    /// `git repack -ad`: migrates all loose objects into a new packfile.
    /// Returns the wall-clock duration and delta statistics — the paper
    /// reports repack time as a headline cost (Table 6).
    pub fn repack(&mut self) -> Result<(Duration, RepackStats)> {
        let start = Instant::now();
        let pack_path = self.gitdir.join(format!("pack_{}.pack", self.packs.len()));
        let (pack, stats) = Pack::repack(&self.objects, pack_path)?;
        self.packs.push(pack);
        Ok((start.elapsed(), stats))
    }

    /// Total bytes under `.gitlike` (Table 6's "repo size").
    pub fn repo_size(&self) -> u64 {
        self.objects.disk_size() + self.packs.iter().map(|p| p.disk_size()).sum::<u64>()
    }

    /// Bytes of table data in the working directory (Table 6's
    /// "data size").
    pub fn data_size(&self) -> Result<u64> {
        let mut total = 0u64;
        for name in self.work_files()? {
            total += fs::metadata(self.workdir.join(name))
                .ctx("stat working file")?
                .len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo() -> (tempfile::TempDir, Repo) {
        let dir = tempfile::tempdir().unwrap();
        let repo = Repo::init(dir.path().join("wd")).unwrap();
        (dir, repo)
    }

    fn write_file(repo: &Repo, name: &str, content: &str) {
        fs::write(repo.workdir().join(name), content).unwrap();
    }

    fn read_file(repo: &Repo, name: &str) -> String {
        fs::read_to_string(repo.workdir().join(name)).unwrap()
    }

    #[test]
    fn commit_and_checkout_restores_content() {
        let (_d, mut repo) = repo();
        write_file(&repo, "t.csv", "1,a\n2,b\n");
        let c1 = repo.commit("v1").unwrap();
        write_file(&repo, "t.csv", "1,a\n2,b\n3,c\n");
        let _c2 = repo.commit("v2").unwrap();
        repo.checkout_commit(c1).unwrap();
        assert_eq!(read_file(&repo, "t.csv"), "1,a\n2,b\n");
    }

    #[test]
    fn branches_diverge_and_switch() {
        let (_d, mut repo) = repo();
        write_file(&repo, "t.csv", "base\n");
        repo.commit("base").unwrap();
        repo.branch("dev").unwrap();
        repo.checkout_branch("dev").unwrap();
        write_file(&repo, "t.csv", "dev version\n");
        repo.commit("dev change").unwrap();
        repo.checkout_branch("master").unwrap();
        assert_eq!(read_file(&repo, "t.csv"), "base\n");
        repo.checkout_branch("dev").unwrap();
        assert_eq!(read_file(&repo, "t.csv"), "dev version\n");
    }

    #[test]
    fn checkout_removes_stale_files() {
        let (_d, mut repo) = repo();
        write_file(&repo, "a", "1");
        let c1 = repo.commit("one file").unwrap();
        write_file(&repo, "b", "2");
        repo.commit("two files").unwrap();
        repo.checkout_commit(c1).unwrap();
        assert!(repo.workdir().join("a").exists());
        assert!(!repo.workdir().join("b").exists());
    }

    #[test]
    fn commit_history_via_parents() {
        let (_d, mut repo) = repo();
        write_file(&repo, "t", "1");
        let c1 = repo.commit("c1").unwrap();
        write_file(&repo, "t", "2");
        let c2 = repo.commit("c2").unwrap();
        assert_eq!(repo.commit_parents(c2).unwrap(), vec![c1]);
    }

    #[test]
    fn repack_then_read_through_pack() {
        let (_d, mut repo) = repo();
        for i in 0..10 {
            write_file(&repo, "t.csv", &format!("version {i}\n").repeat(100));
            repo.commit(&format!("v{i}")).unwrap();
        }
        let head = repo.branch_head("master").unwrap();
        let (elapsed, stats) = repo.repack().unwrap();
        assert!(stats.objects > 10);
        assert!(elapsed.as_nanos() > 0);
        assert!(repo.repo_size() > 0);
        // Checkout still works after repack.
        repo.checkout_commit(head).unwrap();
        assert!(read_file(&repo, "t.csv").starts_with("version 9"));
    }

    #[test]
    fn duplicate_branch_rejected() {
        let (_d, mut repo) = repo();
        repo.branch("dev").unwrap();
        assert!(repo.branch("dev").is_err());
        assert!(repo.checkout_branch("nope").is_err());
    }

    #[test]
    fn sizes_reported() {
        let (_d, mut repo) = repo();
        write_file(&repo, "t.csv", &"x".repeat(1000));
        repo.commit("data").unwrap();
        assert_eq!(repo.data_size().unwrap(), 1000);
        assert!(repo.repo_size() > 0);
    }
}
