//! Readers for the process's own `/proc` entries: CPU time and peak
//! resident memory.

use std::time::Duration;

/// `AT_CLKTCK` in the auxiliary vector: the unit of `/proc/*/stat` times.
const AT_CLKTCK: u64 = 17;

/// User and system CPU time (clock ticks) from the text of
/// `/proc/<pid>/stat`: fields 14 and 15, counted after the command name,
/// which sits in parentheses and may itself hold spaces or `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The value in kB of `key` (e.g. `VmHWM`) in the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// `AT_CLKTCK` from the raw bytes of `/proc/<pid>/auxv` (native-endian
/// `u64` key/value pairs).
pub fn parse_auxv_clktck(auxv: &[u8]) -> Option<u64> {
    auxv.chunks_exact(16).find_map(|pair| {
        let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
        let value = u64::from_ne_bytes(pair[8..].try_into().ok()?);
        (key == AT_CLKTCK && value > 0).then_some(value)
    })
}

/// Process CPU time (user + system, all threads) so far.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (user, sys) = parse_stat_ticks(&stat).expect("parse /proc/self/stat");
    let hz =
        std::fs::read("/proc/self/auxv").ok().and_then(|a| parse_auxv_clktck(&a)).unwrap_or(100);
    Duration::from_secs_f64((user + sys) as f64 / hz as f64)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (my (odd) prog) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    731 58 0 0 20 0 5 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some((731, 58)));
        assert_eq!(parse_stat_ticks("12 (x) S 1 2"), None, "truncated line");
        assert_eq!(parse_stat_ticks("no parens at all"), None);
    }

    #[test]
    fn status_kb_finds_the_exact_key() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kb(status, "VmH"), None, "prefix of a key is not the key");
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn auxv_clktck_reads_native_pairs() {
        let mut auxv = Vec::new();
        for (k, v) in [(6u64, 4096u64), (AT_CLKTCK, 250), (0, 0)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(parse_auxv_clktck(&auxv), Some(250));
        assert_eq!(parse_auxv_clktck(&auxv[..16]), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(spin.elapsed());
        }
        assert!(process_cpu() > Duration::ZERO);
    }
}
