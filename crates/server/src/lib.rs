//! # rrf-server — a concurrent placement service
//!
//! The paper's placer is meant to live inside a runtime reconfigurable
//! system manager (the ReCoBus-Builder flow, Fig. 2). This crate wraps the
//! whole stack — CP placer, LNS improver, greedy baseline, online
//! first-fit, verifier — into a long-running daemon speaking
//! newline-delimited JSON over TCP:
//!
//! * **Deadlines.** Every `place` request has a wall-clock deadline
//!   (queue wait included), enforced twice: as the solver's time limit
//!   and as a stop flag tripped by a watchdog thread, so an in-flight
//!   search aborts mid-branch.
//! * **Graceful degradation.** The handler walks a ladder — optimal CP
//!   within the deadline, then LNS over a `bottom_left` greedy seed, then
//!   the raw seed — and always returns a floorplan that passed
//!   [`rrf_core::verify`], tagged with the [`protocol::PlaceMethod`] that
//!   produced it. A tight deadline degrades the answer, never the
//!   contract.
//! * **Caching.** Results are cached under a canonical key — shapes and
//!   modules sorted before hashing — so logically identical requests hit
//!   regardless of JSON element order ([`cache`]). Entries remember the
//!   solve budget that produced them: proven results (optimal, or proven
//!   infeasible) are served to anyone, but a deadline-degraded result is
//!   only served to requests at least as deadline-starved — a roomier
//!   request recomputes and upgrades the entry instead of inheriting a
//!   possibly-wrong degraded answer.
//! * **Online sessions.** A session owns a live region backed by
//!   [`rrf_core::OnlinePlacer`]: insert, remove, and no-break defrag
//!   against accumulated fragmentation.
//! * **Fault tolerance.** `inject_fault` marks fabric tiles defective
//!   (they become resource-typed forbidden regions, the paper's own
//!   static-design mechanism); `repair` relocates displaced modules using
//!   their design alternatives, escalating from greedy refit to a full
//!   repack under a budget, and evicts what cannot be saved.
//! * **Crash safety.** With `--journal`, every state-changing session
//!   operation is appended to an NDJSON log ([`journal`]) before it is
//!   answered; restart replays it through the handlers' own [`session`]
//!   path. Defrag and graceful shutdown compact it to one snapshot line.
//! * **Panic isolation.** A panicking handler costs one response (an
//!   internal error), never a worker: the pool catches unwinds and keeps
//!   serving.
//! * **Stats.** Counters plus a solve-time histogram ([`stats`]), and a
//!   `stats_detail` request exposing per-phase latency histograms of the
//!   place pipeline, degradation-ladder outcomes, and analyzer
//!   diagnostic counts.
//! * **Tracing.** With a `trace_path` (`rrf-serve --trace PATH`), every
//!   `place` request emits a `solve` span whose `solve.*` phase spans
//!   tile its wall time exactly, with the solver's own `place`/`search`
//!   spans nested inside; render the file with the `rrf-trace` CLI.
//!
//! Start a daemon with [`start`]; the `rrf-serve` binary is a thin CLI
//! over it. The protocol types reuse [`rrf_flow::spec`] and
//! [`rrf_flow::report`], so a batch job file is a valid `place` payload.

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod session;
pub mod stats;

pub use admission::{BreakerState, BreakerStats};
pub use journal::{Journal, JournalRecord, SessionSnapshot, SlotSnapshot};
pub use protocol::{PlaceMethod, Request, Response, SlotState};
pub use server::{start, ServerConfig, ServerHandle};
pub use session::{replay_summary, ReplaySummary};
pub use stats::{DetailStats, LadderStats, ServerStats, StageStats, HISTOGRAM_BOUNDS_MS};
