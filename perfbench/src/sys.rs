//! Process measurements (CPU time, peak RSS) and the machine
//! fingerprint stamped on every result record. Linux only: reads
//! `/proc` and calls `getrusage`.

#![allow(unsafe_code)]

use std::path::Path;
use std::process::Command;

use crate::digest::Fnv;

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds of the whole process so far, threads that
/// have exited included.
pub fn cpu_s() -> f64 {
    let mut u = RUsage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: `u` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (two `timeval`s then fourteen `long`s), and
    // RUSAGE_SELF is a valid `who`; getrusage writes only into `u`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 / 1e6;
    tv(u.utime) + tv(u.stime)
}

/// Peak resident set (`VmHWM`) since start or the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Resets `VmHWM` to the current RSS, so the next reading covers one
/// workload only.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset peak RSS via /proc/self/clear_refs: {e}"))
}

/// What a result was measured on. Walls from different fingerprints
/// are not one series.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a over the workspace sources (`Cargo.toml`, `Cargo.lock`,
    /// `crates/`), which identifies the code when there is no git rev.
    pub source_digest: String,
    /// Runner threads the sweeps use.
    pub threads: usize,
}

impl Fingerprint {
    /// Collects the fingerprint for a checkout rooted at `root`.
    pub fn collect(root: &Path, threads: usize) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string());
        let git_rev = if root.join(".git").exists() {
            command_line(Command::new("git").arg("-C").arg(root).args(["rev-parse", "HEAD"]))
        } else {
            "none".to_string()
        };
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line(Command::new("rustc").arg("-V")),
            git_rev,
            source_digest: format!("{:016x}", source_digest(root)),
            threads,
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_rev\":{},\"source_digest\":\"{}\",\"threads\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_rev),
            self.source_digest,
            self.threads
        )
    }
}

/// First stdout line of a finished command, or `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write_str(&f.strip_prefix(root).unwrap_or(&f).to_string_lossy());
            h.write_u64(bytes.len() as u64);
            h.write(&bytes);
        }
    }
    h.finish()
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_is_monotone_and_counts_work() {
        let a = cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s() > a);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
