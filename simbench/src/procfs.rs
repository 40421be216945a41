//! Process CPU time and peak resident memory from Linux `/proc`.
//!
//! CPU time is measured instead of only wall time because a descheduled
//! process accrues wall time but not CPU time, and because on the sharded
//! workload CPU time shows the parallel cost that wall time hides.

use std::fs;

/// Kernel clock ticks per second of the `utime`/`stime` fields. Linux
/// exports these in `USER_HZ`, which is 100 on every architecture the
/// kernel supports, independent of the kernel's own `HZ`.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Parses `utime + stime` (clock ticks) out of a `/proc/<pid>/stat` line.
///
/// The second field, `comm`, is the executable name in parentheses and may
/// itself contain spaces and `)`, so the fields are counted from the *last*
/// `)` of the line: after it come `state` (field 3) and so on, which puts
/// `utime` (field 14) and `stime` (field 15) at offsets 11 and 12.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in
/// KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// CPU seconds (user + system, all threads, live and exited) this process
/// has used so far.
pub fn process_cpu_secs() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("/proc/self/stat: no utime/stime fields")?;
    Ok(ticks as f64 / CLOCK_TICKS_PER_SEC)
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("/proc/self/status: no VmHWM line")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real `stat` line with utime = 1234 and stime = 56.
    const STAT: &str = "4242 (simbench) R 1 4242 4242 0 -1 4194304 5000 0 0 0 \
                        1234 56 0 0 20 0 3 0 100 1000000 2000 18446744073709551615";

    #[test]
    fn stat_parser_sums_user_and_system_ticks() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(1290));
    }

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_comm() {
        let tricky = STAT.replace("(simbench)", "(a b) c) R 9 ( x)");
        assert_eq!(parse_stat_cpu_ticks(&tricky), Some(1290));
    }

    #[test]
    fn stat_parser_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu_ticks("4242 (simbench) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn vm_hwm_reader_finds_the_peak_line() {
        let status =
            "Name:\tsimbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51_200));
    }

    #[test]
    fn vm_hwm_reader_rejects_missing_or_unitless_lines() {
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 10\n"), None);
    }

    #[test]
    fn this_process_reports_cpu_and_memory() {
        assert!(process_cpu_secs().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
