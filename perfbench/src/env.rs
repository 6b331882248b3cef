//! The environment block every result carries: which source was measured,
//! on how many cores, built how.

use std::path::{Path, PathBuf};

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

/// Available parallelism (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `target-cpu` the crates were built for, from the rustflags the
/// build used (the repository sets it in `.cargo/config.toml`).
pub fn target_cpu() -> String {
    let flags = env!("PERFBENCH_RUSTFLAGS");
    flags
        .split_whitespace()
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default")
        .to_string()
}

/// The git commit at `root`, read from `.git` without running git; `None`
/// in a checkout that is not a repository.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// FNV-1a-64 over the paths and contents of the workspace sources
/// (`crates/`, the root manifest, `.cargo/config.toml`):
/// identifies the measured code even where no commit id is available.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    for extra in ["Cargo.toml", ".cargo/config.toml"] {
        files.push(root.join(extra));
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        if let Ok(content) = std::fs::read(file) {
            bytes.extend_from_slice(
                file.strip_prefix(root)
                    .unwrap_or(file)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.push(0);
            bytes.extend_from_slice(&content);
        }
    }
    format!("{:016x}", falcc::io::fnv1a64(&bytes))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
