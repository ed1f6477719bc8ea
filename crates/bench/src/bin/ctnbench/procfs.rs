//! Process and machine facts read from `/proc` (Linux only, like the
//! rest of the benchmark's resource accounting).

use std::path::Path;
use std::time::UNIX_EPOCH;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux
/// has reported 100 to user space on every architecture since 2.6.
const TICKS_PER_SEC: f64 = 100.0;

/// `"self"` or a pid.
pub type Pid<'a> = &'a str;

/// User + system CPU seconds consumed so far by the process, all threads
/// (reaped children not included).
pub fn cpu_secs(pid: Pid<'_>) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_stat_cpu(&stat).ok_or_else(|| format!("{path}: unexpected format"))
}

fn parse_stat_cpu(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; fields
    // are positional only after its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of the process in megabytes (10⁶ bytes).
pub fn peak_rss_mb(pid: Pid<'_>) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// The CPUs this process may be scheduled on (`Cpus_allowed_list`), in
/// ascending order. Empty when `/proc` does not say.
pub fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .and_then(|list| parse_cpu_list(list.trim()))
        })
        .unwrap_or_default()
}

/// `"0-1,4,6-7"` → `[0, 1, 4, 6, 7]`; `None` on anything else.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        let (first, last): (usize, usize) = (first.parse().ok()?, last.parse().ok()?);
        // A kernel never prints more CPUs than it has; a line that claims
        // millions is not a CPU list.
        if first > last || last - first > 1 << 16 {
            return None;
        }
        cpus.extend(first..=last);
    }
    Some(cpus)
}

/// Size and age of a binary under test, and whether it predates the
/// benchmark binary itself (then it was not built by the same
/// `cargo build` and the numbers describe some other commit).
#[derive(Debug)]
pub struct BinaryInfo {
    pub name: String,
    pub bytes: u64,
    pub mtime_unix: u64,
    pub stale: bool,
}

pub fn binary_info(path: &Path) -> Result<BinaryInfo, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mtime = |m: &std::fs::Metadata| {
        m.modified()
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_secs())
    };
    let own = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| mtime(&m))
        .unwrap_or(0);
    // The workspace links its binaries within one build, a few seconds
    // apart in either order; five minutes of slack tell that from a leftover.
    let stale = mtime(&meta) + 300 < own;
    Ok(BinaryInfo {
        name: path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default(),
        bytes: meta.len(),
        mtime_unix: mtime(&meta),
        stale,
    })
}

/// What the numbers were measured on.
#[derive(Debug)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
}

pub fn machine() -> Machine {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Machine {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        kernel,
        rustc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_stat_cpu(stat), Some(3.0));
        assert_eq!(parse_stat_cpu("42 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status = "Name:\tctnd\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tctnd\n"), None);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(parse_cpu_list("0-1,4,6-7"), Some(vec![0, 1, 4, 6, 7]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("2-1"), None);
        assert_eq!(parse_cpu_list("0-99999999"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_secs("self").unwrap() >= 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(!allowed_cpus().is_empty());
    }
}
