//! A memory-backed state directory *inside* the checkout.
//!
//! `sweepd` journals every accepted request with a `sync_all`, so with its
//! state on the checkout's disk the service workloads measure the disk:
//! the same code read 222 and 2 084 req/s on `service_hits` minutes apart
//! on this box's virtio disk. The issue asks for the state on tmpfs; the
//! driver lets the benchmark write only inside its checkout. Both hold if
//! the benchmark enters a private mount namespace and mounts a tmpfs on a
//! directory of its own scratch tree: the mount is visible to this process
//! and its children (the daemon) only, and disappears with them — nothing
//! to unmount, nothing left behind even after a kill.
//!
//! This needs `CAP_SYS_ADMIN`. Where it is refused the directory stays a
//! plain one on the checkout's filesystem, and the machine line every run
//! prints says which it was (`state_fs=`).

use std::ffi::{c_char, c_int, c_ulong, c_void, CString};
use std::io;
use std::os::unix::ffi::OsStrExt;
use std::path::Path;

extern "C" {
    fn unshare(flags: c_int) -> c_int;
    fn mount(
        source: *const c_char,
        target: *const c_char,
        fstype: *const c_char,
        flags: c_ulong,
        data: *const c_void,
    ) -> c_int;
}

const CLONE_NEWNS: c_int = 0x0002_0000;
const MS_REC: c_ulong = 0x4000;
const MS_PRIVATE: c_ulong = 0x4_0000;

fn check(ret: c_int) -> io::Result<()> {
    if ret == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Creates `dir` and mounts a fresh tmpfs on it in a mount namespace
/// private to this process. Call before any thread is started: a new
/// thread shares the namespace of the thread that creates it, and
/// `unshare` moves only the calling thread.
///
/// # Errors
///
/// Returns the OS error when the namespace or the mount is refused; `dir`
/// is then an ordinary (empty or stale) directory.
pub fn mount_private_tmpfs(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let target = CString::new(dir.as_os_str().as_bytes()).map_err(io::Error::other)?;
    // SAFETY: `unshare` takes no pointers. Every pointer passed to `mount`
    // is null (allowed for `source`/`fstype`/`data` with these flags) or
    // points into a NUL-terminated string that outlives the call.
    unsafe {
        check(unshare(CLONE_NEWNS))?;
        // Stop mount events propagating back to the parent namespace.
        check(mount(
            std::ptr::null(),
            c"/".as_ptr(),
            std::ptr::null(),
            MS_REC | MS_PRIVATE,
            std::ptr::null(),
        ))?;
        check(mount(
            c"tmpfs".as_ptr(),
            target.as_ptr(),
            c"tmpfs".as_ptr(),
            0,
            std::ptr::null(),
        ))
    }
}
