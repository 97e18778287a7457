//! `rrf-serve` — run the placement daemon.
//!
//! ```text
//! rrf-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!           [--deadline-ms MS] [--cache N] [--cache-shards N]
//!           [--cache-persist PATH] [--no-coalesce]
//!           [--journal PATH] [--journal-fsync-every N]
//!           [--trace PATH]
//!           [--max-conns N] [--max-line-bytes N] [--write-timeout-ms MS]
//!           [--shutdown-grace-ms MS] [--no-admission]
//!           [--breaker-threshold N] [--breaker-cooldown-ms MS]
//!           [--backend-id NAME]
//! ```
//!
//! Speaks newline-delimited JSON (see `rrf_server::protocol`); try it with
//! `printf '{"type":"ping","id":1}\n' | nc HOST PORT`.
//!
//! With `--journal PATH`, sessions are durable: every state-changing
//! operation is logged before it is answered, an existing journal is
//! replayed at startup (crash recovery), and SIGINT/SIGTERM trigger a
//! graceful shutdown that compacts the journal to a single snapshot line.
//!
//! With `--trace PATH`, every `place` request appends structured NDJSON
//! trace records (spans, counters, wall timings) to PATH; render the file
//! with the `rrf-trace` CLI (`rrf-trace --phases --props PATH`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rrf_server::{start, ServerConfig};

/// Set by the signal handler; the main loop polls it. (Only
/// async-signal-safe work happens in the handler itself.)
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install `on_signal` for SIGINT and SIGTERM via the libc `signal(2)`
/// entry point (declared directly — no bindings crate needed).
///
/// The workspace denies `unsafe_code`, and this is its one `allow`: every
/// other crate root carries `#![forbid(unsafe_code)]`, under which rustc
/// rejects an `allow`.
#[allow(
    unsafe_code,
    reason = "calling (and declaring) a foreign function cannot be checked by the compiler; \
              the handler it installs only stores to an atomic, which is async-signal-safe"
)]
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `signal` takes a signal number and a handler with the C ABI
    // and signature it declares; `on_signal` is one, and it only stores to
    // an atomic.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

const USAGE: &str = "usage: rrf-serve [--addr HOST:PORT] [--workers N] [--queue N] \
                     [--deadline-ms MS] [--cache N] [--cache-shards N] \
                     [--cache-persist PATH] [--no-coalesce] [--journal PATH] \
                     [--journal-fsync-every N] [--trace PATH] [--max-conns N] \
                     [--max-line-bytes N] [--write-timeout-ms MS] \
                     [--shutdown-grace-ms MS] [--no-admission] \
                     [--breaker-threshold N] [--breaker-cooldown-ms MS] \
                     [--backend-id NAME] [--help] [--version]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--version" | "-V" => {
                println!("rrf-serve {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "--addr" => config.addr = value(),
            "--workers" => config.workers = value().parse().unwrap_or_else(|_| usage()),
            "--queue" => config.queue_depth = value().parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                config.default_deadline_ms = value().parse().unwrap_or_else(|_| usage())
            }
            "--cache" => config.cache_capacity = value().parse().unwrap_or_else(|_| usage()),
            "--cache-shards" => config.cache_shards = value().parse().unwrap_or_else(|_| usage()),
            "--cache-persist" => config.cache_persist_path = Some(value()),
            "--no-coalesce" => config.coalesce = false,
            "--journal" => config.journal_path = Some(value()),
            "--trace" => config.trace_path = Some(value()),
            "--journal-fsync-every" => {
                config.journal_fsync_every = value().parse().unwrap_or_else(|_| usage())
            }
            "--max-conns" => config.max_conns = value().parse().unwrap_or_else(|_| usage()),
            "--max-line-bytes" => {
                config.max_line_bytes = value().parse().unwrap_or_else(|_| usage())
            }
            "--write-timeout-ms" => {
                config.write_timeout_ms = value().parse().unwrap_or_else(|_| usage())
            }
            "--shutdown-grace-ms" => {
                config.shutdown_grace_ms = value().parse().unwrap_or_else(|_| usage())
            }
            "--no-admission" => config.admission_control = false,
            "--breaker-threshold" => {
                config.breaker_threshold = value().parse().unwrap_or_else(|_| usage())
            }
            "--breaker-cooldown-ms" => {
                config.breaker_cooldown_ms = value().parse().unwrap_or_else(|_| usage())
            }
            "--backend-id" => config.backend_id = value(),
            _ => usage(),
        }
    }

    install_signal_handlers();
    match start(config) {
        Ok(handle) => {
            println!("rrf-serve listening on {}", handle.addr());
            // Serve until signalled; then shut down gracefully — joining
            // the pool and (when journaling) snapshotting session state.
            while !SHUTDOWN.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
            }
            eprintln!("rrf-serve: shutting down");
            handle.shutdown();
        }
        Err(e) => {
            eprintln!("rrf-serve: failed to start: {e}");
            std::process::exit(1);
        }
    }
}
