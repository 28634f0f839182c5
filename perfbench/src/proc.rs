//! Process memory, read from `/proc/self/status`.

fn status_kib(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(key)).and_then(|l| {
                l[key.len()..].trim().trim_end_matches("kB").trim().parse::<u64>().ok()
            })
        })
        .unwrap_or(0)
}

/// Resident set size now, bytes (0 where `/proc` is unavailable).
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// High-water resident set size of the process, bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}

/// Return the allocator's free memory to the kernel, then reset the
/// high-water mark to the current RSS (Linux ≥ 4.0); where that is
/// unavailable the mark keeps counting from process start.
///
/// Without the trim the mark starts from whatever freed memory glibc keeps
/// resident, and that depends on which arenas a run's threads happened to
/// draw from: about one run in five kept ~12 MB more on `fig4` for every
/// repeat, so the peak measured the allocator's history, not the repeat.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and locks each arena it
        // trims; no other thread is allocating between repeats.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
