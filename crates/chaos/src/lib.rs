//! # rrf-chaos — a deterministic TCP chaos proxy
//!
//! Sits between a client and an `rrf-serve` daemon and injects transport
//! faults — abrupt disconnects, byte corruption, torn writes at
//! arbitrary offsets, stalls, and reorder-free delays — from a seeded
//! RNG, so a soak run that found a bug can be replayed byte-for-byte.
//!
//! Determinism model: connections are numbered in accept order, and each
//! connection derives its own `ChaCha8Rng` from `seed ^ mix(conn_id)` —
//! two pumps per connection (client→server and server→client) split that
//! stream by direction. Fault decisions are drawn per forwarded chunk.
//! The *sequence* of decisions is therefore reproducible for a given
//! seed and connection order; wall-clock timing of the endpoints is not
//! (that is exactly the nondeterminism a soak test wants to survive).
//!
//! Direction policy: **corruption is injected only client→server.**
//! The daemon must survive arbitrary garbage, but a corrupted
//! server→client response would make an honest placement look wrong and
//! poison invariant checks ("every accepted placement verifies") with
//! false failures. Disconnects, torn writes, stalls, and delays apply in
//! both directions — they reorder nothing and never forge bytes.

#![forbid(unsafe_code)]

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Fault-injection probabilities and magnitudes. All probabilities are
/// per forwarded chunk (a chunk is one upstream `read`, ≤ 8 KiB).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Proxy listen address; port 0 picks a free port.
    pub listen: String,
    /// Upstream daemon address.
    pub upstream: String,
    /// Seed for every per-connection RNG derivation.
    pub seed: u64,
    /// Probability of dropping the connection instead of forwarding a
    /// chunk (both directions).
    pub disconnect_prob: f64,
    /// Probability of flipping one byte of a chunk (client→server only;
    /// see the module docs for why).
    pub corrupt_prob: f64,
    /// Probability of tearing a chunk: write a prefix of random length,
    /// pause, then write the rest (both directions).
    pub torn_write_prob: f64,
    /// Probability of stalling for `stall_ms` before forwarding (both
    /// directions) — exercises read/write timeouts.
    pub stall_prob: f64,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
    /// Probability of a short reorder-free delay before forwarding.
    pub delay_prob: f64,
    /// Maximum delay, milliseconds (uniform draw in `1..=max`).
    pub delay_ms_max: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            listen: "127.0.0.1:0".to_string(),
            upstream: "127.0.0.1:7171".to_string(),
            seed: 1,
            disconnect_prob: 0.01,
            corrupt_prob: 0.02,
            torn_write_prob: 0.05,
            stall_prob: 0.02,
            stall_ms: 150,
            delay_prob: 0.10,
            delay_ms_max: 10,
        }
    }
}

/// Injection counters, all monotone.
#[derive(Debug, Default, Clone)]
pub struct ChaosStats {
    pub conns: u64,
    pub disconnects: u64,
    pub corrupted_bytes: u64,
    pub torn_writes: u64,
    pub stalls: u64,
    pub delays: u64,
    pub bytes_forwarded: u64,
    /// Partition onsets ([`ChaosProxy::set_partitioned`] false→true).
    pub partitions: u64,
}

#[derive(Default)]
struct Counters {
    conns: AtomicU64,
    disconnects: AtomicU64,
    corrupted_bytes: AtomicU64,
    torn_writes: AtomicU64,
    stalls: AtomicU64,
    delays: AtomicU64,
    bytes_forwarded: AtomicU64,
    partitions: AtomicU64,
}

/// A running proxy. Dropping the handle (or calling [`ChaosProxy::stop`])
/// shuts the listener down; live pumps notice within their poll interval.
pub struct ChaosProxy {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    partitioned: Arc<AtomicBool>,
    counters: Arc<Counters>,
    accept_thread: Option<JoinHandle<()>>,
}

const POLL: Duration = Duration::from_millis(20);

/// SplitMix64 finalizer — decorrelates consecutive connection ids into
/// well-separated RNG seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

pub fn start(config: ChaosConfig) -> std::io::Result<ChaosProxy> {
    let listener = TcpListener::bind(&config.listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let partitioned = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let partitioned = Arc::clone(&partitioned);
        let counters = Arc::clone(&counters);
        std::thread::spawn(move || {
            accept_loop(&listener, &config, &shutdown, &partitioned, &counters)
        })
    };
    Ok(ChaosProxy {
        addr,
        shutdown,
        partitioned,
        counters,
        accept_thread: Some(accept_thread),
    })
}

impl ChaosProxy {
    /// The address clients should connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> ChaosStats {
        let c = &self.counters;
        ChaosStats {
            conns: c.conns.load(Ordering::SeqCst),
            disconnects: c.disconnects.load(Ordering::SeqCst),
            corrupted_bytes: c.corrupted_bytes.load(Ordering::SeqCst),
            torn_writes: c.torn_writes.load(Ordering::SeqCst),
            stalls: c.stalls.load(Ordering::SeqCst),
            delays: c.delays.load(Ordering::SeqCst),
            bytes_forwarded: c.bytes_forwarded.load(Ordering::SeqCst),
            partitions: c.partitions.load(Ordering::SeqCst),
        }
    }

    /// Simulate a network partition between proxy and upstream: while
    /// set, new connections are refused at accept and live pumps cut
    /// both directions at their next chunk — from the client's view the
    /// backend just vanished, exactly like a pulled cable. Clearing the
    /// flag heals the partition (new connections flow again; the cut
    /// ones stay dead, as real TCP sessions would).
    pub fn set_partitioned(&self, on: bool) {
        let was = self.partitioned.swap(on, Ordering::SeqCst);
        if on && !was {
            self.counters.partitions.fetch_add(1, Ordering::SeqCst);
        }
    }

    pub fn is_partitioned(&self) -> bool {
        self.partitioned.load(Ordering::SeqCst)
    }

    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    config: &ChaosConfig,
    shutdown: &Arc<AtomicBool>,
    partitioned: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
) {
    let mut conn_id = 0u64;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                conn_id += 1;
                counters.conns.fetch_add(1, Ordering::SeqCst);
                if partitioned.load(Ordering::SeqCst) {
                    // Partitioned: the upstream is unreachable, so the
                    // client sees an immediate close on connect.
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let upstream = match TcpStream::connect(&config.upstream) {
                    Ok(upstream) => upstream,
                    Err(_) => {
                        // Upstream down: the client sees an immediate
                        // close — indistinguishable from an injected
                        // disconnect, which is fine.
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                };
                let conn_seed = config.seed ^ mix(conn_id);
                spawn_pump(
                    client.try_clone(),
                    upstream.try_clone(),
                    Direction::ClientToServer,
                    ChaCha8Rng::seed_from_u64(mix(conn_seed)),
                    config.clone(),
                    Arc::clone(shutdown),
                    Arc::clone(partitioned),
                    Arc::clone(counters),
                );
                spawn_pump(
                    Ok(upstream),
                    Ok(client),
                    Direction::ServerToClient,
                    ChaCha8Rng::seed_from_u64(mix(conn_seed ^ 1)),
                    config.clone(),
                    Arc::clone(shutdown),
                    Arc::clone(partitioned),
                    Arc::clone(counters),
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => break,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    ClientToServer,
    ServerToClient,
}

#[allow(
    clippy::too_many_arguments,
    reason = "a pump's two streams, seeded RNG, settings and shared flags; a struct would \
              only rename them"
)]
fn spawn_pump(
    from: std::io::Result<TcpStream>,
    to: std::io::Result<TcpStream>,
    direction: Direction,
    rng: ChaCha8Rng,
    config: ChaosConfig,
    shutdown: Arc<AtomicBool>,
    partitioned: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    let (Ok(from), Ok(to)) = (from, to) else {
        return;
    };
    std::thread::spawn(move || {
        let _ = pump(
            from,
            to,
            direction,
            rng,
            &config,
            &shutdown,
            &partitioned,
            &counters,
        );
    });
}

/// What to do with one forwarded chunk — the injector's deterministic
/// verdict, separated from the socket plumbing so it can be tested (and
/// replayed) without live TCP timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Cut both directions instead of forwarding.
    pub disconnect: bool,
    /// Sleep this long before forwarding (stall + reorder-free delay).
    pub pre_delay: Duration,
    /// Flip bit 0x10 of the byte at this offset (client→server only).
    pub corrupt_at: Option<usize>,
    /// Tear the write at this offset, with this pause between halves.
    pub tear: Option<(usize, Duration)>,
}

/// The seeded per-pump decision stream. For a given config, seed, and
/// sequence of chunk lengths, the emitted [`Decision`]s are identical on
/// every run — this is the proxy's replayability contract.
pub struct Injector {
    direction_corrupts: bool,
    config: ChaosConfig,
    rng: ChaCha8Rng,
}

impl Injector {
    pub fn new(config: ChaosConfig, seed: u64, corrupts: bool) -> Injector {
        Injector {
            direction_corrupts: corrupts,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Decide the fate of the next chunk of `len` bytes. Draws are gated
    /// on non-zero probabilities, so disabling an injection removes its
    /// draws from the stream entirely (a zeroed knob cannot shift the
    /// decisions of the others).
    pub fn decide(&mut self, len: usize) -> Decision {
        let config = &self.config;
        let rng = &mut self.rng;
        let mut decision = Decision {
            disconnect: false,
            pre_delay: Duration::ZERO,
            corrupt_at: None,
            tear: None,
        };
        if config.disconnect_prob > 0.0 && rng.gen_bool(config.disconnect_prob) {
            decision.disconnect = true;
            return decision;
        }
        if config.stall_prob > 0.0 && rng.gen_bool(config.stall_prob) {
            decision.pre_delay += Duration::from_millis(config.stall_ms);
        }
        if config.delay_prob > 0.0 && rng.gen_bool(config.delay_prob) {
            decision.pre_delay +=
                Duration::from_millis(rng.gen_range(1..=config.delay_ms_max.max(1)));
        }
        if self.direction_corrupts && config.corrupt_prob > 0.0 && rng.gen_bool(config.corrupt_prob)
        {
            decision.corrupt_at = Some(rng.gen_range(0..len.max(1)));
        }
        if config.torn_write_prob > 0.0 && len >= 2 && rng.gen_bool(config.torn_write_prob) {
            decision.tear = Some((
                rng.gen_range(1..len),
                Duration::from_millis(rng.gen_range(1..=5)),
            ));
        }
        decision
    }
}

/// Forward bytes `from` → `to`, injecting faults per chunk. Returns when
/// either side closes, a disconnect is injected, or the proxy shuts down.
#[allow(
    clippy::too_many_arguments,
    reason = "a pump's two streams, seeded RNG, settings and shared flags; a struct would \
              only rename them"
)]
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    direction: Direction,
    rng: ChaCha8Rng,
    config: &ChaosConfig,
    shutdown: &AtomicBool,
    partitioned: &AtomicBool,
    counters: &Counters,
) -> std::io::Result<()> {
    from.set_read_timeout(Some(POLL))?;
    let stall_prob = config.stall_prob;
    let mut injector = Injector {
        direction_corrupts: direction == Direction::ClientToServer,
        config: config.clone(),
        rng,
    };
    let mut buf = [0u8; 8192];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let read = from.read(&mut buf);
        if partitioned.load(Ordering::SeqCst) {
            // The cable is pulled: cut both directions mid-stream. Checked
            // after the read, so bytes that arrived while the read waited
            // are dropped rather than forwarded across the partition.
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return Ok(());
        }
        let n = match read {
            Ok(0) => {
                // Propagate the half-close so the other end's read sees
                // EOF rather than hanging.
                let _ = to.shutdown(Shutdown::Write);
                return Ok(());
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                let _ = to.shutdown(Shutdown::Both);
                return Ok(());
            }
        };
        let chunk = &mut buf[..n];
        let decision = injector.decide(n);

        if decision.disconnect {
            counters.disconnects.fetch_add(1, Ordering::SeqCst);
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return Ok(());
        }
        if !decision.pre_delay.is_zero() {
            // Counter attribution is approximate (a stall and a delay in
            // the same decision count once each when both knobs are on).
            if stall_prob > 0.0 && decision.pre_delay >= Duration::from_millis(config.stall_ms) {
                counters.stalls.fetch_add(1, Ordering::SeqCst);
            } else {
                counters.delays.fetch_add(1, Ordering::SeqCst);
            }
            std::thread::sleep(decision.pre_delay);
        }
        if let Some(at) = decision.corrupt_at {
            // Flip a middle bit — guaranteed to change the byte, and can
            // turn printable JSON into control bytes and vice versa.
            chunk[at.min(chunk.len() - 1)] ^= 0x10;
            counters.corrupted_bytes.fetch_add(1, Ordering::SeqCst);
        }
        if let Some((split, pause)) = decision.tear {
            counters.torn_writes.fetch_add(1, Ordering::SeqCst);
            to.write_all(&chunk[..split])?;
            to.flush()?;
            std::thread::sleep(pause);
            to.write_all(&chunk[split..])?;
        } else {
            to.write_all(chunk)?;
        }
        counters
            .bytes_forwarded
            .fetch_add(n as u64, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A trivial line-echo upstream for proxy tests.
    fn echo_server() -> (std::net::SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    while let Ok(n) = reader.read_line(&mut line) {
                        if n == 0 {
                            break;
                        }
                        if writer.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn clean_config_forwards_bytes_unmodified() {
        let (upstream, _handle) = echo_server();
        let mut proxy = start(ChaosConfig {
            upstream: upstream.to_string(),
            disconnect_prob: 0.0,
            corrupt_prob: 0.0,
            torn_write_prob: 0.0,
            stall_prob: 0.0,
            delay_prob: 0.0,
            ..ChaosConfig::default()
        })
        .unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"hello through the proxy\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "hello through the proxy\n");
        proxy.stop();
        assert_eq!(proxy.stats().conns, 1);
        assert!(proxy.stats().bytes_forwarded >= 2 * reply.len() as u64);
    }

    #[test]
    fn torn_writes_still_deliver_every_byte_in_order() {
        let (upstream, _handle) = echo_server();
        let mut proxy = start(ChaosConfig {
            upstream: upstream.to_string(),
            seed: 7,
            disconnect_prob: 0.0,
            corrupt_prob: 0.0,
            torn_write_prob: 1.0, // tear every chunk
            stall_prob: 0.0,
            delay_prob: 0.0,
            ..ChaosConfig::default()
        })
        .unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for i in 0..20 {
            let msg = format!("line {i} with some padding to tear\n");
            conn.write_all(msg.as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(reply, msg, "torn writes must not lose or reorder bytes");
        }
        proxy.stop();
        assert!(proxy.stats().torn_writes > 0);
    }

    #[test]
    fn same_seed_same_injection_sequence() {
        // The replayability contract lives in the Injector: for a fixed
        // seed, config, and chunk-length sequence, the decision stream
        // is identical — chunk by chunk, field by field.
        let config = ChaosConfig {
            seed: 99,
            disconnect_prob: 0.05,
            corrupt_prob: 0.4,
            torn_write_prob: 0.4,
            stall_prob: 0.1,
            delay_prob: 0.3,
            ..ChaosConfig::default()
        };
        let lens: Vec<usize> = (0..200).map(|i| 3 + (i * 37) % 800).collect();
        let run = || {
            let mut injector = Injector::new(config.clone(), mix(config.seed), true);
            lens.iter().map(|&n| injector.decide(n)).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must inject identically");
        assert!(
            a.iter().any(|d| d.corrupt_at.is_some()) && a.iter().any(|d| d.tear.is_some()),
            "probabilities this high must fire over 200 chunks"
        );
        // A different seed diverges (not a fixed decision table).
        let mut other = Injector::new(config.clone(), mix(config.seed ^ 1), true);
        let c: Vec<_> = lens.iter().map(|&n| other.decide(n)).collect();
        assert_ne!(a, c, "different seeds must diverge");
        // Zeroing one knob must not shift the others' draw stream: with
        // corruption disabled, tear decisions keep their positions in
        // the stream for chunks where neither fired... (gated draws).
        let mut no_corrupt = Injector::new(
            ChaosConfig {
                corrupt_prob: 0.0,
                ..config.clone()
            },
            mix(config.seed),
            true,
        );
        let d: Vec<_> = lens.iter().map(|&n| no_corrupt.decide(n)).collect();
        assert!(d.iter().all(|dec| dec.corrupt_at.is_none()));
    }

    #[test]
    fn partition_cuts_live_and_new_connections_until_healed() {
        let (upstream, _handle) = echo_server();
        let mut proxy = start(ChaosConfig {
            upstream: upstream.to_string(),
            disconnect_prob: 0.0,
            corrupt_prob: 0.0,
            torn_write_prob: 0.0,
            stall_prob: 0.0,
            delay_prob: 0.0,
            ..ChaosConfig::default()
        })
        .unwrap();

        // A live connection works, then dies when the cable is pulled.
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"before partition\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "before partition\n");

        proxy.set_partitioned(true);
        assert!(proxy.is_partitioned());
        let _ = conn.write_all(b"into the void\n");
        reply.clear();
        // The pump cuts at its next poll tick (≤ POLL): the read sees
        // EOF or a reset, never an echo.
        match reader.read_line(&mut reply) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("echo must not cross a partition: {reply:?}"),
        }

        // New connections during the partition die without an echo too.
        let mut cut = TcpStream::connect(proxy.addr()).unwrap();
        let _ = cut.write_all(b"also doomed\n");
        let mut cut_reader = BufReader::new(cut);
        reply.clear();
        match cut_reader.read_line(&mut reply) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("new connections must not cross a partition"),
        }

        // Healing restores service for fresh connections.
        proxy.set_partitioned(false);
        let mut healed = TcpStream::connect(proxy.addr()).unwrap();
        healed.write_all(b"after heal\n").unwrap();
        let mut healed_reader = BufReader::new(healed.try_clone().unwrap());
        reply.clear();
        healed_reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "after heal\n");

        proxy.stop();
        assert_eq!(proxy.stats().partitions, 1);
    }

    #[test]
    fn disconnect_injection_closes_the_client() {
        let (upstream, _handle) = echo_server();
        let mut proxy = start(ChaosConfig {
            upstream: upstream.to_string(),
            seed: 3,
            disconnect_prob: 1.0, // first chunk dies
            ..ChaosConfig::default()
        })
        .unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        let _ = conn.write_all(b"doomed\n");
        let mut reader = BufReader::new(conn);
        let mut reply = String::new();
        // Either a clean EOF or a reset — never a successful echo.
        match reader.read_line(&mut reply) {
            Ok(0) => {}
            Ok(_) => panic!("echo must not survive a forced disconnect"),
            Err(_) => {}
        }
        proxy.stop();
        assert!(proxy.stats().disconnects >= 1);
    }
}
