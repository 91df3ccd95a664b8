//! The host side of a run: scrub the environment, pin the process to one
//! CPU, and read peak memory.

/// Remove every `VIAMPI_*` variable, so the benchmark measures what
/// `Universe::new(..)` gives a user who set no knobs. Returns the names
/// removed. Call before any thread is started.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("VIAMPI_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Words of a CPU mask: room for 1024 CPUs, the kernel's usual `cpu_set_t`.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod affinity {
    use super::MASK_WORDS;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<[u64; MASK_WORDS]> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &[u64; MASK_WORDS]) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the byte length
        // passed and is only read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

/// Pin the calling thread — and every thread it starts later, which
/// inherit the mask — to the last CPU of the allowed set. Returns that CPU,
/// or `None` when pinning is impossible here; host timings taken unpinned
/// are bimodal on this program's default engine (see README.md), so the
/// caller must then report them as unresolved.
#[cfg(target_os = "linux")]
pub fn pin_to_last_cpu() -> Option<usize> {
    let allowed = affinity::get()?;
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    affinity::set(&one).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_last_cpu() -> Option<usize> {
    None
}

/// CPUs the process could use before pinning.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`), `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   46080 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(46080.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
