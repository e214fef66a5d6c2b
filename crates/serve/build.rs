//! Bake the repository's `git describe` into the crate so `/healthz` and the
//! `holistix_build_info` Prometheus gauge can report exactly which source
//! built the running server. When git (or the repository) is unavailable —
//! e.g. building from a source tarball — no env var is emitted and
//! `option_env!` in `metrics::build_info` falls back to `"unknown"`.

use std::path::Path;
use std::process::Command;

/// Trimmed stdout of a successful `git` run, or `None`.
fn git(args: &[&str]) -> Option<String> {
    let output = Command::new("git").args(args).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout).trim().to_string();
    (output.status.success() && !stdout.is_empty()).then_some(stdout)
}

fn main() {
    // Re-run when HEAD moves to another branch or commit so the describe
    // string stays current.
    println!("cargo:rerun-if-changed=../../.git/HEAD");
    // A commit on the checked-out branch moves the branch's ref, not HEAD,
    // and a ref can live in `packed-refs` instead of its own file. Watch
    // each only when it exists: cargo re-runs the script on every build
    // for a watched path that is missing.
    let branch = git(&["symbolic-ref", "-q", "HEAD"]);
    for name in branch.as_deref().into_iter().chain(["packed-refs"]) {
        if let Some(path) = git(&["rev-parse", "--git-path", name]) {
            if Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
    if let Some(describe) = git(&["describe", "--always", "--dirty", "--tags"]) {
        println!("cargo:rustc-env=HOLISTIX_GIT_DESCRIBE={describe}");
    }
}
