//! What the host tells us: cores, process CPU time, peak resident set,
//! and a fixed calibration kernel timed beside every workload so a slow
//! container can be told apart from slow code.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported `USER_HZ = 100` to user space on every architecture for
/// decades; reading it properly needs `sysconf`, i.e. libc.
const TICKS_PER_SEC: f64 = 100.0;

/// Extracts `VmHWM` (peak resident set, KiB) from `/proc/self/status`
/// text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// Extracts `utime + stime` (clock ticks, all threads) from
/// `/proc/self/stat` text. The command name may contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// User + system CPU seconds this process has consumed so far, or 0 if
/// `/proc` is unreadable.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SEC)
}

/// Peak resident set of this process in MiB, or 0 if `/proc` is
/// unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Cores available to this process; every thread and connection count
/// in the suite derives from it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One pass of the calibration kernel: a dependent walk over a 256 KiB
/// permutation with an integer mix per step, so it exercises the same
/// two things the engine leans on (integer ALU, cache-resident array
/// reads) and cannot be vectorized or hoisted away.
fn calib_pass(next: &[u32], steps: usize) -> u64 {
    let mut at = 0usize;
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..steps {
        at = next[at] as usize;
        acc = (acc ^ at as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// Nanoseconds per step of the calibration kernel (median of 15 passes
/// of 2^18 steps, ~1 ms each).
pub fn calib_ns() -> f64 {
    const LEN: usize = 1 << 16;
    const STEPS: usize = 1 << 18;
    // A single-cycle permutation (i -> i * 5 + 1 mod 2^16 is full
    // period), fixed so every run walks the same chain.
    let next: Vec<u32> = (0..LEN).map(|i| ((i * 5 + 1) % LEN) as u32).collect();
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(calib_pass(std::hint::black_box(&next), STEPS));
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .collect();
    crate::stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tbenchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  263020 kB\nVmSize:\t  197484 kB\nVmHWM:\t   74512 kB\nVmRSS:\t   61000 kB\n";

    // comm contains a space and a ')' on purpose.
    const STAT: &str = "4242 (bench) mark) R 1 4242 4242 0 -1 4194304 1811 0 0 0 \
        1234 56 0 0 20 0 3 0 1234567 202240000 15250 18446744073709551615 1 1 0 0 0 0 0";

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(74_512));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        assert_eq!(parse_cpu_ticks(STAT), Some(1234 + 56));
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn live_readings_are_sane_on_linux() {
        assert!(cores() >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(calib_ns() > 0.0);
    }
}
