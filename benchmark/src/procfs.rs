//! Process accounting read from outside the program under test:
//! `/proc/<pid>/stat` CPU ticks, `VmHWM`, and `getrusage(2)`.

use std::time::Duration;

/// Kernel `USER_HZ`: the unit of `/proc/<pid>/stat` times. Fixed at 100
/// on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds.
///
/// The second field is the command name in parentheses and may itself
/// hold spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Result<f64, String> {
    let tail = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("stat line has no command field")?;
    // After the command: state is field 3, utime 14, stime 15.
    let mut fields = tail.split_ascii_whitespace().skip(11);
    let mut tick = || -> Result<f64, String> {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "stat line is short or not numeric".to_string())
    };
    Ok((tick()? + tick()?) / TICKS_PER_S)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Result<u64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .ok_or_else(|| "status has no VmHWM line".to_string())
}

/// CPU seconds (`utime + stime`) a live process has used.
pub fn cpu_of(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    parse_stat_cpu(&std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?)
}

/// Peak resident set of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    parse_vm_hwm_kb(&std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?)
}

/// Reset this process's peak-RSS mark to its current RSS, so a workload
/// reports its own peak and not set-up's.
pub fn reset_own_hwm() {
    // First hand back what set-up freed. Set-up solves on two threads
    // that share out destinations as they go, so how much freed memory
    // each thread's arena keeps differs from run to run: `packet_burst`
    // read 14.8 or 16.9 MB at one seed.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases free
        // heap pages; it is safe to call at any time.
        unsafe { malloc_trim(0) };
    }
    // Kernels without the "5" command just keep the old mark.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Is `pid` alive with `needle` among its command-line arguments?
pub fn cmdline_contains(pid: u32, needle: &str) -> bool {
    std::fs::read(format!("/proc/{pid}/cmdline"))
        .map(|raw| raw.split(|&b| b == 0).any(|arg| arg == needle.as_bytes()))
        .unwrap_or(false)
}

/// SIGKILL a process that is not this one's child (a child is killed
/// through its `std::process::Child`).
#[cfg(unix)]
pub fn kill_hard(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    if let Ok(pid) = i32::try_from(pid) {
        if pid > 1 {
            // SAFETY: kill(2) takes two integers and touches no memory of
            // this process; `pid > 1` rules out the "every process" and
            // "process group" meanings of 0 and negative values, and init.
            unsafe {
                kill(pid, SIGKILL);
            }
        }
    }
}

#[cfg(not(unix))]
pub fn kill_hard(_pid: u32) {}

#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU time.
    pub cpu: Duration,
    /// Peak resident set in KiB.
    pub max_rss_kb: u64,
}

#[derive(Clone, Copy)]
pub enum Who {
    /// This process, all threads.
    Me = 0,
    /// Every child this process has waited for.
    ReapedChildren = -1,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage(who: Who) -> Usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` of the 64-bit Linux ABI: two timevals, then
    /// fourteen longs of which `ru_maxrss` is the first.
    #[repr(C)]
    struct RUsage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut ru = std::mem::MaybeUninit::<RUsage>::zeroed();
    // SAFETY: `ru` is a writable, correctly sized and aligned `struct
    // rusage` for this ABI (the cfg above pins it); getrusage only
    // writes into it, and an all-zero value is valid if the call fails.
    let ru = unsafe {
        getrusage(who as i32, ru.as_mut_ptr());
        ru.assume_init()
    };
    let t = |tv: &Timeval| {
        Duration::new(
            tv.sec.max(0) as u64,
            tv.usec.clamp(0, 999_999) as u32 * 1000,
        )
    };
    Usage {
        cpu: t(&ru.utime) + t(&ru.stime),
        max_rss_kb: ru.maxrss.max(0) as u64,
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage(_who: Who) -> Usage {
    Usage::default()
}

/// CPU seconds of this process plus every child it has reaped.
pub fn cpu_me_and_children() -> f64 {
    (usage(Who::Me).cpu + usage(Who::ReapedChildren).cpu).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let line = "4242 (miro) serve) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    150 50 7 3 20 0 3 0 123456 1000000 2000 18446744073709551615 0 0";
        assert_eq!(parse_stat_cpu(line).unwrap(), 2.0);
        assert!(parse_stat_cpu("1 (x) S 1 2").is_err());
        assert!(parse_stat_cpu("garbage").is_err());
    }

    #[test]
    fn vm_hwm_is_found_among_status_lines() {
        let status = "Name:\tmiro\nVmPeak:\t  999999 kB\nVmHWM:\t  153724 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status).unwrap(), 153_724);
        assert!(parse_vm_hwm_kb("Name:\tzombie\n").is_err());
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(cpu_of(me).unwrap() >= 0.0);
        assert!(vm_hwm_kb(me).unwrap() > 0);
        assert!(!cmdline_contains(me, "no-such-argument-anywhere"));
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let u = usage(Who::Me);
        assert!(u.max_rss_kb > 0 && u.cpu > Duration::ZERO);
    }
}
