//! What the process and the host report about themselves: peak memory,
//! CPU time, and the provenance every result carries.

use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib / 1024.0)
}

/// User plus system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The vector features this binary was compiled for (the repository's
/// build configuration asks for `target-cpu=native`).
fn vector_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    macro_rules! probe {
        ($($feature:tt),*) => {$(
            if cfg!(target_feature = $feature) {
                features.push($feature);
            }
        )*};
    }
    probe!(
        "sse4.2",
        "avx",
        "avx2",
        "fma",
        "bmi2",
        "avx512f",
        "avx512dq",
        "avx512bw",
        "avx512vl",
        "avx512ifma",
        "avx512vbmi",
        "neon",
        "sve"
    );
    features
}

/// The largest cache the kernel lists for CPU 0, as its `size` string.
fn last_level_cache() -> String {
    let mut best: Option<(u32, String)> = None;
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{base}/{file}")).ok();
        if let (Some(level), Some(size)) = (read("level"), read("size")) {
            let level: u32 = level.trim().parse().unwrap_or(0);
            if best.as_ref().is_none_or(|(l, _)| level > *l) {
                best = Some((level, size.trim().to_string()));
            }
        }
    }
    best.map_or_else(
        || "unknown".to_string(),
        |(level, size)| format!("L{level} {size}"),
    )
}

/// The type of the filesystem holding `path`: the mount with the longest
/// mount point that prefixes the path's canonical form.
fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount_point = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fs_type = *fields.get(dash + 1)?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn json_string(value: &str) -> String {
    format!("\"{}\"", value.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Provenance as one JSON object.
pub fn provenance(scratch: &Path) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"vector_features\": {}, \"last_level_cache\": {}, \"rustc\": {}, \"git_revision\": {}, \"scratch_filesystem\": {}}}",
        nproc(),
        json_string(&cpu_model()),
        json_string(&vector_features().join(",")),
        json_string(&last_level_cache()),
        json_string(&command_line("rustc", &["--version"])),
        json_string(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        json_string(&filesystem_type(scratch)),
    )
}
