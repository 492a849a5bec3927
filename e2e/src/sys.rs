//! What the benchmark reads from the operating system: CPU time, peak
//! resident memory, core count — and the scratch directory it owns.

use std::path::{Path, PathBuf};

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every mainstream Linux; the standard library offers no
/// `sysconf`, and a constant keeps the crate free of foreign calls.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far, including
/// every child it has reaped. Resolution is one clock tick, so callers
/// sum it over many passes.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime, stime, cutime, cstime are
    // fields 14-17, i.e. 11-14 after it.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    rest.split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum::<f64>()
        / TICKS_PER_S
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine and kernel threads of the batch workloads: `min(nproc, 2)`.
pub fn batch_threads() -> usize {
    nproc().min(2)
}

/// `git rev-parse HEAD` of the working directory, or `"unknown"` where
/// there is no repository (the driver's checkout is not one).
pub fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The directory build outputs live in: the parent of the profile
/// directory (`release`/`debug`) the running executable sits in. Test
/// executables sit one level further down, in `deps/`.
pub fn target_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let mut dir = exe.parent().map(Path::to_path_buf).unwrap_or_default();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    dir.pop();
    Ok(dir)
}

/// The scratch directory `<target>/e2e-tmp/<pid>/`, removed when the
/// guard drops — on a normal return and on an unwinding panic alike.
pub struct TmpDir {
    path: PathBuf,
}

impl TmpDir {
    /// Creates the directory, empty.
    pub fn create() -> std::io::Result<Self> {
        let path = target_dir()?
            .join("e2e-tmp")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
