//! # milo-serve
//!
//! Synthesis-as-a-service: a long-lived daemon wrapping the MILO flow
//! engine behind a plain TCP/JSON-lines protocol — no async runtime,
//! just `std` sockets, a thread-per-connection front end, and a fixed
//! pool of synthesis workers draining a condvar-signaled job queue.
//!
//! The service adds three things the offline driver doesn't have:
//!
//! * **one service-wide design store**, a `Mutex<DesignDb>` every
//!   worker seeds its run from and merges compiled designs back into
//!   (the paper's compiler cache, shared across jobs);
//! * **fingerprint-keyed result caching** ([`ResultCache`]): structure
//!   ⊕ constraints → replay the stored bytes, no passes run;
//! * **streaming progress**: jobs submitted with `"stream": true` get
//!   the engine's `FlowEvent`s bridged onto their connection as JSON
//!   lines.
//!
//! Since protocol v1.1 the service is also **bounded and fair**: the
//! cache evicts least-recently-used entries to stay under a byte
//! budget (`--cache-bytes`), and the FIFO queue is replaced by a
//! priority + per-client weighted-round-robin [`Scheduler`] so one
//! client's backlog can't starve another's interactive submit.
//!
//! Determinism is the service's core contract: a job's result JSON is
//! byte-identical to an offline `synthesize_batch` run of the same
//! design and constraints, regardless of arrival order, worker count,
//! or cache state. See `docs/SERVICE.md` for the protocol
//! grammar and ops knobs.
//!
//! # Examples
//!
//! ```
//! use milo_serve::{spawn, Client, ServerConfig};
//! use milo_core::Constraints;
//! use milo_techmap::ecl_library;
//!
//! use milo_serve::SubmitOptions;
//!
//! let handle = spawn(ServerConfig::new(ecl_library()).with_workers(1))?;
//! let mut client = Client::connect(handle.addr())?;
//! let job = client.submit_with(
//!     "design demo\ninput a b\noutput y\ncomp and2 g1 A0=a A1=b Y=y\n",
//!     &Constraints::none(),
//!     &SubmitOptions::new(),
//! )?;
//! let result = client.result(job)?;
//! assert_eq!(result.get("state").and_then(|s| s.as_str()), Some("done"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Service code must never die on a poisoned lock or an unexpected
// `None` — a panic in one handler is an outage for every connection.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod scheduler;

mod client;
mod server;

pub use cache::{job_key, CacheStats, CachedResult, ResultCache};
pub use client::{Client, ClientError, SubmitOptions};
pub use json::{parse as parse_json, JsonError, Value};
pub use metrics::Metrics;
pub use protocol::{constraints_to_json, parse_request, Priority, Request, PROTOCOL_VERSION};
pub use scheduler::{QueueStats, Scheduler, WorkUnit};
pub use server::{parse_bytes, spawn, CacheOutcome, ServerConfig, ServerHandle};
