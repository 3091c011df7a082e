//! What every `*_campaign` / `*_report` binary needs besides its cells:
//! where the workspace is, a wall-clock watchdog, and the indexed stream
//! payload the exactly-once oracles read back.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vorx::hpcnet::Payload;

/// The nearest ancestor of the current directory holding a `Cargo.lock`
/// (binaries may be run from the package directory), or the current
/// directory when there is none. `BENCH_*.json` reports land here.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return cwd,
        }
    }
}

/// Run `f` with a wall-clock watchdog: if it has not returned after `secs`,
/// say so, run `on_expiry` (a state dump, for campaigns that have one) and
/// abort loudly instead of hanging CI. This is the "run-to-idle terminates"
/// gate in executable form.
pub fn with_watchdog<T>(
    campaign: &'static str,
    secs: u64,
    on_expiry: Option<Box<dyn FnOnce() + Send>>,
    f: impl FnOnce() -> T,
) -> T {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while Instant::now() < deadline {
            if flag.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("{campaign} campaign: watchdog expired after {secs}s — the run hung");
        if let Some(dump) = on_expiry {
            dump();
        }
        std::process::abort();
    });
    let r = f();
    done.store(true, Ordering::Relaxed);
    r
}

/// A `len`-byte payload carrying its stream index in the first four bytes.
pub fn msg_payload(idx: u32, len: usize) -> Payload {
    let mut buf = vec![0u8; len];
    buf[..4].copy_from_slice(&idx.to_le_bytes());
    Payload::copy_from(&buf)
}

/// Recover the stream index from a [`msg_payload`].
pub fn index_of(p: &Payload) -> u32 {
    let b = p.bytes().expect("data payload");
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}
