//! Host resource readings from Linux procfs.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every supported architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds the whole process has used so far, counting
/// threads that have already exited.
///
/// # Panics
///
/// Panics without procfs: the benchmark runs on Linux only.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("the benchmark needs procfs");
    parse_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime")
}

/// Fields after the parenthesized command name start at `state` (field 3);
/// `utime` and `stime` are fields 14 and 15.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The process's peak resident set size (`VmHWM`) in MiB.
///
/// # Panics
///
/// Panics without procfs: the benchmark runs on Linux only.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("the benchmark needs procfs");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has VmHWM");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_follow_the_command_name() {
        let stat = "42 (a) b) S 1 42 42 0 -1 4194304 100 0 0 0 250 31 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Some(2.81));
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
