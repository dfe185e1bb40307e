//! Host facilities that use no repository code: a private in-memory
//! filesystem for the stores, two calibration loops, the process's peak
//! resident set, and the filesystem a path lives on.

use std::ffi::CString;
use std::hint::black_box;
use std::os::unix::ffi::OsStrExt as _;
use std::path::Path;
use std::time::Instant;

mod sys {
    use std::ffi::{c_char, c_int, c_ulong, c_void};

    pub const CLONE_NEWNS: c_int = 0x0002_0000;
    pub const CLONE_NEWUSER: c_int = 0x1000_0000;
    pub const MS_NOSUID: c_ulong = 2;
    pub const MS_NODEV: c_ulong = 4;
    pub const MS_REC: c_ulong = 16_384;
    pub const MS_PRIVATE: c_ulong = 1 << 18;

    extern "C" {
        pub fn unshare(flags: c_int) -> c_int;
        pub fn mount(
            source: *const c_char,
            target: *const c_char,
            fstype: *const c_char,
            flags: c_ulong,
            data: *const c_void,
        ) -> c_int;
        pub fn getuid() -> u32;
        pub fn getgid() -> u32;
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
}

/// Pins the process to the lowest-numbered CPU it may run on and returns
/// that CPU. Threads started later inherit the pin, so the benchmark's
/// client and `rr-serve` threads hand requests to each other on one CPU
/// instead of waking a second, possibly idle, virtual CPU for every
/// round trip.
///
/// Must be called before the process starts any thread.
///
/// # Errors
///
/// The failing system call.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("empty CPU mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Mounts a tmpfs over `dir` that only this process sees: the process
/// moves into a new user and mount namespace, so the mount needs no
/// privilege, never appears to other processes and vanishes when the
/// process exits. Everything the benchmark writes then lives in memory
/// yet under its own directory of the checkout, so save timings measure
/// the program rather than disk writeback.
///
/// Must be called while the process has a single thread (the kernel
/// refuses `unshare(CLONE_NEWUSER)` otherwise).
///
/// # Errors
///
/// The failing step, when the kernel or its configuration does not allow
/// unprivileged namespaces; the caller then writes to `dir` itself.
pub fn private_tmpfs(dir: &Path) -> Result<(), String> {
    let last_os_error = |what: &str| format!("{what}: {}", std::io::Error::last_os_error());
    // SAFETY: plain system calls without pointers.
    let (uid, gid) = unsafe { (sys::getuid(), sys::getgid()) };
    // SAFETY: `unshare` takes only flags; it fails cleanly (EINVAL) if
    // the process is multi-threaded.
    if unsafe { sys::unshare(sys::CLONE_NEWUSER | sys::CLONE_NEWNS) } != 0 {
        return Err(last_os_error("unshare"));
    }
    // Map the caller to root inside the new user namespace, which grants
    // the mount capability there and nowhere else.
    std::fs::write("/proc/self/setgroups", "deny").map_err(|e| format!("setgroups: {e}"))?;
    std::fs::write("/proc/self/uid_map", format!("0 {uid} 1"))
        .map_err(|e| format!("uid_map: {e}"))?;
    std::fs::write("/proc/self/gid_map", format!("0 {gid} 1"))
        .map_err(|e| format!("gid_map: {e}"))?;
    let root = CString::new("/").expect("no interior NUL");
    let target =
        CString::new(dir.as_os_str().as_bytes()).map_err(|_| "path holds a NUL".to_string())?;
    let fstype = CString::new("tmpfs").expect("no interior NUL");
    let data = CString::new("size=512m,mode=0700").expect("no interior NUL");
    // SAFETY: every pointer is a valid NUL-terminated string that outlives
    // the call, or null where `mount` allows it. Making every mount
    // private keeps the new mount from propagating to other namespaces.
    unsafe {
        if sys::mount(
            std::ptr::null(),
            root.as_ptr(),
            std::ptr::null(),
            sys::MS_REC | sys::MS_PRIVATE,
            std::ptr::null(),
        ) != 0
        {
            return Err(last_os_error("make mounts private"));
        }
        if sys::mount(
            fstype.as_ptr(),
            target.as_ptr(),
            fstype.as_ptr(),
            sys::MS_NOSUID | sys::MS_NODEV,
            data.as_ptr().cast(),
        ) != 0
        {
            return Err(last_os_error("mount tmpfs"));
        }
    }
    Ok(())
}

/// Iterations of the L1-resident loop.
const L1_ITERS: u64 = 60_000_000;
/// Words in the L1-resident table (16 KiB).
const L1_WORDS: usize = 2 * 1024;
/// Iterations of the random-access loop.
const LLC_ITERS: u64 = 2_000_000;
/// Words in the random-access table (16 MiB, larger than the last-level
/// cache of a small cloud host, so the loop measures memory contention).
const LLC_WORDS: usize = 2 * 1024 * 1024;

/// One reading of both calibration loops, in million iterations per
/// second of host time.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Dependent adds over a 16 KiB table.
    pub l1_mops: f64,
    /// Dependent random reads over a 16 MiB table.
    pub llc_mops: f64,
}

/// Times both calibration loops once.
#[must_use]
pub fn calibrate() -> Calibration {
    Calibration {
        l1_mops: walk(L1_WORDS, L1_ITERS),
        llc_mops: walk(LLC_WORDS, LLC_ITERS),
    }
}

/// A dependent pseudo-random walk over a table of `words` entries: each
/// index depends on the value loaded by the previous step, so the loop
/// runs at the latency of the level of the memory hierarchy holding the
/// table.
fn walk(words: usize, iters: u64) -> f64 {
    let mask = words - 1;
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let table: Vec<u64> = (0..words)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    let table = black_box(table);
    let start = Instant::now();
    let mut idx = 0usize;
    let mut acc = 0u64;
    for i in 0..iters {
        let v = table[idx];
        acc = acc.wrapping_add(v ^ i);
        idx = (v as usize ^ acc as usize) & mask;
    }
    black_box(acc);
    iters as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Resets the process's high-water resident set to its current resident
/// set (`echo 5 > /proc/self/clear_refs`), so that a later
/// [`peak_rss_mb`] excludes memory freed before this call, such as the
/// calibration tables.
///
/// # Errors
///
/// The failed write, where the kernel does not offer the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}

/// The process's high-water resident set in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`; `None` where that file is absent.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// The type of the filesystem holding `path` (`ext4`, `tmpfs`, …), from
/// the longest matching mount point in `/proc/self/mounts`.
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}
