//! The process's own counters, read from `/proc/self`: CPU time, page
//! faults, resident and peak-resident memory, and which filesystem a
//! directory sits on. Parsers take the file's text so they can be tested
//! on fixtures; the `read_*` functions apply them to the live files.

use std::path::Path;

/// `/proc/self/stat` counts CPU time in clock ticks. `USER_HZ` is 100 on
/// every Linux this runs on, so one tick is 10 ms: fine for the
/// multi-second sections it is read around, useless below ~0.5 s.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// The `/proc/self/stat` fields the benchmark reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults so far (field 10).
    pub minflt: u64,
    /// Major page faults so far (field 12).
    pub majflt: u64,
    /// User-mode CPU ticks so far (field 14).
    pub utime_ticks: u64,
    /// Kernel-mode CPU ticks so far (field 15).
    pub stime_ticks: u64,
}

impl ProcStat {
    /// User CPU seconds accumulated since `earlier`.
    pub fn user_s_since(&self, earlier: &ProcStat) -> f64 {
        self.utime_ticks.saturating_sub(earlier.utime_ticks) as f64 / TICKS_PER_SECOND
    }

    /// Kernel CPU seconds accumulated since `earlier`.
    pub fn sys_s_since(&self, earlier: &ProcStat) -> f64 {
        self.stime_ticks.saturating_sub(earlier.stime_ticks) as f64 / TICKS_PER_SECOND
    }

    /// Minor faults taken since `earlier`.
    pub fn minflt_since(&self, earlier: &ProcStat) -> u64 {
        self.minflt.saturating_sub(earlier.minflt)
    }
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let after_comm = &text[text.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let fields: Vec<&str> = after_comm.split_ascii_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: field(10)?,
        majflt: field(12)?,
        utime_ticks: field(14)?,
        stime_ticks: field(15)?,
    })
}

/// Resident-set sizes from `/proc/self/status`, in bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStatus {
    /// `VmHWM`: the peak resident set over the process's life.
    pub vm_hwm_bytes: u64,
    /// `VmRSS`: the resident set now.
    pub vm_rss_bytes: u64,
}

/// Parse `/proc/<pid>/status` (values are printed in kB).
pub fn parse_status(text: &str) -> Option<ProcStatus> {
    let kb = |key: &str| {
        let line = text.lines().find(|l| l.starts_with(key))?;
        let value = line[key.len()..].trim().strip_suffix("kB")?.trim();
        value.parse::<u64>().ok().map(|kb| kb * 1024)
    };
    Some(ProcStatus {
        vm_hwm_bytes: kb("VmHWM:")?,
        vm_rss_bytes: kb("VmRSS:")?,
    })
}

/// The mount a path sits on: `(mount point, filesystem type, device)`.
/// `mounts` is the text of `/proc/self/mounts`; the longest mount point
/// that is a path-prefix of `path` wins, later lines winning ties (a later
/// mount shadows an earlier one).
pub fn mount_of(mounts: &str, path: &Path) -> Option<(String, String, String)> {
    let mut best: Option<(String, String, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_ascii_whitespace();
        let (Some(device), Some(point), Some(fstype)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        // Mount points escape space, tab, newline and backslash as octal.
        let point = point
            .replace("\\040", " ")
            .replace("\\011", "\t")
            .replace("\\012", "\n")
            .replace("\\134", "\\");
        if path.starts_with(&point)
            && best
                .as_ref()
                .map_or(true, |(b, _, _)| point.len() >= b.len())
        {
            best = Some((point, fstype.to_string(), device.to_string()));
        }
    }
    best
}

/// This process's CPU and fault counters now.
pub fn read_stat() -> ProcStat {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// This process's resident and peak-resident sizes now.
pub fn read_status() -> ProcStatus {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status(&t))
        .expect("/proc/self/status is readable and well-formed on Linux")
}

/// A one-line description of the filesystem under `path`, for the output:
/// fsync cost belongs to that filesystem (in a sandbox, to the sandbox),
/// not to a storage device.
pub fn describe_filesystem(path: &Path) -> String {
    let absolute = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|m| mount_of(&m, &absolute))
        .map(|(point, fstype, device)| format!("{fstype} on {point} ({device})"))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bench (v2) x) R 1 4242 4242 34816 4242 4194304 \
        222715 0 7 0 271 1683 0 0 20 0 3 0 123456 900000000 216470 \
        18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let s = parse_stat(STAT).expect("parses");
        assert_eq!(
            s,
            ProcStat {
                minflt: 222_715,
                majflt: 7,
                utime_ticks: 271,
                stime_ticks: 1683
            }
        );
    }

    #[test]
    fn stat_deltas_convert_ticks_to_seconds() {
        let a = ProcStat {
            minflt: 10,
            majflt: 0,
            utime_ticks: 100,
            stime_ticks: 50,
        };
        let b = ProcStat {
            minflt: 25,
            majflt: 0,
            utime_ticks: 371,
            stime_ticks: 60,
        };
        assert_eq!(b.user_s_since(&a), 2.71);
        assert_eq!(b.sys_s_since(&a), 0.1);
        assert_eq!(b.minflt_since(&a), 15);
        // A counter never runs backwards; a stale "earlier" reads as 0.
        assert_eq!(a.minflt_since(&b), 0);
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis here"), None);
    }

    #[test]
    fn status_reads_hwm_and_rss_in_bytes() {
        let text = "Name:\tbenchmark\nVmPeak:\t 1200000 kB\nVmHWM:\t  865880 kB\n\
                    VmRSS:\t  512000 kB\nThreads:\t3\n";
        assert_eq!(
            parse_status(text),
            Some(ProcStatus {
                vm_hwm_bytes: 865_880 * 1024,
                vm_rss_bytes: 512_000 * 1024
            })
        );
        assert_eq!(parse_status("Name:\tx\nVmRSS:\t 1 kB\n"), None);
    }

    #[test]
    fn the_longest_mount_prefix_wins() {
        let mounts = "/dev/vda / ext4 rw 0 0\n\
                      tmpfs /tmp tmpfs rw 0 0\n\
                      /dev/vdb /tmp/with\\040space xfs rw 0 0\n";
        let at = |p: &str| mount_of(mounts, Path::new(p)).map(|(_, fs, _)| fs);
        assert_eq!(at("/root/repo/benchmark/out"), Some("ext4".to_string()));
        assert_eq!(at("/tmp/ckpt"), Some("tmpfs".to_string()));
        assert_eq!(at("/tmp/with space/ckpt"), Some("xfs".to_string()));
        // `/tmpfoo` is not under `/tmp`: prefixes are whole path components.
        assert_eq!(at("/tmpfoo"), Some("ext4".to_string()));
        assert_eq!(mount_of("", Path::new("/x")), None);
    }
}
