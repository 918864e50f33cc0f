//! Where and on what a result was measured.

use std::path::{Path, PathBuf};

use crate::workload::Hasher;

pub struct Provenance {
    pub commit: String,
    pub source_fp: u64,
    pub cpu: String,
    pub nproc: usize,
    pub rustc: &'static str,
}

impl Provenance {
    /// Reads the commit (when the working directory is a git checkout),
    /// fingerprints the sources the benchmark builds from, and reads the
    /// CPU model.
    pub fn collect() -> Self {
        Provenance {
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "none".to_string()),
            source_fp: source_fingerprint(),
            cpu: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("FLEETBENCH_RUSTC"),
        }
    }
}

fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV hash over the paths and contents of the files the benchmark builds
/// from: the workspace crates, the vendored dependencies, the root manifest
/// and lock file, and the benchmark's own sources. It identifies the code
/// measured even where the checkout carries no git metadata.
fn source_fingerprint() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "fleetbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    for file in [
        "Cargo.toml",
        "Cargo.lock",
        "fleetbench/Cargo.toml",
        "fleetbench/build.rs",
    ] {
        files.push(PathBuf::from(file));
    }
    files.sort();
    let mut h = Hasher::new();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            h.bytes(file.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    h.finish()
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if entry.file_name() != "target" {
                collect_files(&path, out);
            }
        } else if kind.is_file() {
            out.push(path);
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
