//! On-disk checkpoint management: atomic writes, retention, and
//! fallback across corrupt files.
//!
//! A store is a directory of `ckpt-<epoch>.bin` files, each the encoded
//! [`Image`] of one state type. Writes are crash-consistent: the image is
//! written to a temporary name, synced, then atomically renamed into
//! place, so a crash mid-write can leave a stray temp file but never a
//! half-written checkpoint under the real name. Loads scan newest-first
//! and skip anything that fails the checksum, so one corrupt or
//! truncated file silently falls back to the previous good one.

use crate::checkpoint::{decode, encode, CheckpointError, Image};
use std::fs;
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// When (and how many) checkpoints to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write a checkpoint at every epoch boundary divisible by this
    /// (1 = every epoch). Must be nonzero.
    pub every_epochs: u64,
    /// Retain at most this many checkpoint files, pruning the oldest.
    /// Keeping at least 2 is what makes corrupt-fallback useful.
    pub keep_last: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy { every_epochs: 4, keep_last: 3 }
    }
}

impl CheckpointPolicy {
    /// Is a checkpoint due at the boundary *after* `completed_epoch`?
    /// Boundary `e` means epochs `0..=e` have run; the policy fires when
    /// `e + 1` is a multiple of `every_epochs`, so `every_epochs = 4`
    /// checkpoints after epochs 3, 7, 11, …
    pub fn due(&self, completed_epoch: u64) -> bool {
        self.every_epochs > 0 && (completed_epoch + 1).is_multiple_of(self.every_epochs)
    }
}

/// A directory of checkpoint files holding images of type `T`.
#[derive(Debug, Clone)]
pub struct CheckpointStore<T> {
    dir: PathBuf,
    image: PhantomData<fn() -> T>,
}

/// A store-level failure: IO wrapped with the path it concerned.
#[derive(Debug)]
pub enum StoreError {
    Io {
        path: PathBuf,
        error: std::io::Error,
    },
    /// No file in the directory decoded as a valid checkpoint.
    NoValidCheckpoint {
        dir: PathBuf,
        skipped: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            StoreError::NoValidCheckpoint { dir, skipped } => write!(
                f,
                "no valid checkpoint in {} ({skipped} corrupt/unreadable file(s) skipped)",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl<T> CheckpointStore<T> {
    /// Opens (creating if needed) a store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|error| StoreError::Io { path: dir.clone(), error })?;
        Ok(CheckpointStore { dir, image: PhantomData })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, epoch: u64) -> PathBuf {
        // Zero-padded so lexicographic file listings sort by epoch.
        self.dir.join(format!("ckpt-{epoch:010}.bin"))
    }

    /// Epochs with a checkpoint file present, ascending. Files that do
    /// not match the naming scheme are ignored (they may be temp files
    /// from an interrupted write).
    pub fn list(&self) -> Result<Vec<u64>, StoreError> {
        let entries = fs::read_dir(&self.dir)
            .map_err(|error| StoreError::Io { path: self.dir.clone(), error })?;
        let mut epochs = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|error| StoreError::Io { path: self.dir.clone(), error })?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name.strip_prefix("ckpt-").and_then(|s| s.strip_suffix(".bin")) {
                if let Ok(epoch) = num.parse::<u64>() {
                    epochs.push(epoch);
                }
            }
        }
        epochs.sort_unstable();
        Ok(epochs)
    }
}

impl<T: Image> CheckpointStore<T> {
    /// Atomically writes `image` under its `next_epoch`, then prunes to
    /// `keep_last` files. The write path is temp-file + `sync_all` +
    /// rename: a crash at any instant leaves either the old directory
    /// contents or the new file, never a torn one.
    pub fn save(&self, image: &T, keep_last: usize) -> Result<PathBuf, StoreError> {
        let bytes = encode(image);
        let epoch = image.next_epoch();
        let final_path = self.path_for(epoch);
        let tmp_path = self.dir.join(format!(".ckpt-{epoch:010}.tmp"));
        let io = |path: &Path, error| StoreError::Io { path: path.to_path_buf(), error };
        {
            let mut f = fs::File::create(&tmp_path).map_err(|e| io(&tmp_path, e))?;
            f.write_all(&bytes).map_err(|e| io(&tmp_path, e))?;
            // Data must be durable before the rename publishes the name,
            // or a crash could expose an empty file under the final path.
            f.sync_all().map_err(|e| io(&tmp_path, e))?;
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| io(&final_path, e))?;
        #[cfg(unix)]
        {
            // Persist the rename itself; without the directory fsync the
            // new name may not survive a power loss.
            if let Ok(d) = fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        self.prune(keep_last)?;
        Ok(final_path)
    }

    /// Deletes the oldest checkpoints until at most `keep_last` remain.
    pub fn prune(&self, keep_last: usize) -> Result<(), StoreError> {
        let epochs = self.list()?;
        if epochs.len() <= keep_last {
            return Ok(());
        }
        for &epoch in &epochs[..epochs.len() - keep_last] {
            let path = self.path_for(epoch);
            fs::remove_file(&path).map_err(|error| StoreError::Io { path, error })?;
        }
        Ok(())
    }

    /// Loads the checkpoint for exactly `epoch`.
    pub fn load(&self, epoch: u64) -> Result<T, CheckpointError> {
        let path = self.path_for(epoch);
        let bytes = fs::read(&path)
            .map_err(|e| CheckpointError::Invalid(format!("{}: {e}", path.display())))?;
        decode(&bytes)
    }

    /// Loads the newest checkpoint that passes validation, skipping (and
    /// reporting) corrupt, truncated or unreadable files. This is the
    /// crash-recovery entry point: a half-written or bit-flipped latest
    /// file falls back to the previous good one instead of failing the
    /// resume.
    pub fn latest_valid(&self) -> Result<(T, Vec<(u64, CheckpointError)>), StoreError> {
        let mut skipped = Vec::new();
        for epoch in self.list()?.into_iter().rev() {
            match self.load(epoch) {
                Ok(ckpt) => return Ok((ckpt, skipped)),
                Err(e) => skipped.push((epoch, e)),
            }
        }
        Err(StoreError::NoValidCheckpoint { dir: self.dir.clone(), skipped: skipped.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_due_fires_on_multiples() {
        let p = CheckpointPolicy { every_epochs: 4, keep_last: 2 };
        let due: Vec<u64> = (0..12).filter(|&e| p.due(e)).collect();
        assert_eq!(due, vec![3, 7, 11]);
        let every = CheckpointPolicy { every_epochs: 1, keep_last: 2 };
        assert!((0..5).all(|e| every.due(e)));
        let never = CheckpointPolicy { every_epochs: 0, keep_last: 2 };
        assert!(!(0..5).any(|e| never.due(e)));
    }

    #[test]
    fn filenames_sort_by_epoch() {
        let s = CheckpointStore::<()> { dir: PathBuf::from("/x"), image: PhantomData };
        let a = s.path_for(9);
        let b = s.path_for(10);
        let c = s.path_for(100);
        assert!(a < b && b < c, "{a:?} {b:?} {c:?}");
    }
}
