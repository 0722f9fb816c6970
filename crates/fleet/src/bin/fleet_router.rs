//! `fleet_router` — the fleet's concurrent TCP front door.
//!
//! ```text
//! cargo run --release -p supernova-fleet --bin fleet_router \
//!     [addr] [--shards N] [--seed S] [--state-dir DIR] [--resume]
//! ```
//!
//! Spawns `N` in-process shards (default 3, each a full serve backend on
//! its own ephemeral port) and listens on `addr` (default
//! `127.0.0.1:7655`), speaking the same length-prefixed protocol-v2 wire
//! format as `serve_tcp` — hello frame first, then create/submit/query/
//! close — so any serve client works against a fleet without knowing it:
//! session ids handed out are fleet-global, and the router places them
//! across shards by consistent hash, journaling every admitted update.
//!
//! Connections are served **concurrently**, one thread per connection,
//! each running `supernova_serve::service::serve_connection` (the same
//! loop as `serve_tcp`, so the hello check and malformed-frame replies
//! cannot drift). Every request serializes through the single ranked `router` mutex
//! (rank 0 in the workspace lock order, below the serve dispatcher and
//! executor locks it may dispatch into), so concurrent clients cannot
//! reorder router state transitions — the journal and the durable state
//! file see one linear history.
//!
//! `--state-dir DIR` keeps the journals and the `router.snvr` state file
//! in `DIR` instead of a throwaway temp directory, and `--resume`
//! restarts the router over the books a previous instance left there
//! (replaying the state file and re-verifying every journal cursor
//! before accepting traffic). In-process shards die with the process, so
//! a resume can only re-adopt sessions that are still live on its
//! shards; books whose open sessions are gone surface a typed error
//! rather than silently dropping them.
//!
//! `Snapshot`/`Restore` are shard-internal in fleet mode (the router
//! performs them during migration and failover) and answered with a typed
//! error at the front door. A `Shutdown` request drains and stops every
//! shard, then the router itself.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use supernova_fleet::{RouterConfig, Shard, ShardId, ShardRouter};
use supernova_serve::protocol::{Request, Response, PROTOCOL_VERSION};
use supernova_serve::service::serve_connection;
use supernova_serve::ServeConfig;

/// Journal suffixes longer than this trigger the periodic checkpoint at
/// the end of the submit that crossed it.
const CHECKPOINT_INTERVAL: u64 = 64;

/// Compact a shard's journal after this many appended records.
const COMPACT_INTERVAL: u64 = 4096;

fn handle(router: &mut ShardRouter, req: Request) -> (Response, bool) {
    match req {
        Request::Hello { .. } => (
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
            false,
        ),
        Request::CreateSession { kind, steps, seed } => {
            match router.create_session(kind, steps, seed) {
                Ok(global) => (Response::Created { session: global }, false),
                Err(e) => (Response::Error(e.to_string()), false),
            }
        }
        Request::Submit {
            session,
            deadline,
            count,
        } => match router.submit(session, deadline, count) {
            Ok(accepted) => (Response::Submitted { accepted, shed: 0 }, false),
            Err(e) => (Response::Error(e.to_string()), false),
        },
        Request::QueryEstimate { session } => match router.estimate(session) {
            Ok(vars) => (Response::Estimate(vars), false),
            Err(e) => (Response::Error(e.to_string()), false),
        },
        Request::Close { session } => match router.close(session) {
            Ok((completed, shed)) => (Response::Closed { completed, shed }, false),
            Err(e) => (Response::Error(e.to_string()), false),
        },
        Request::Snapshot { .. } | Request::Restore { .. } => (
            Response::Error(
                "snapshot/restore are shard-internal at the fleet front door (the router \
                 drives them during migration and failover)"
                    .to_string(),
            ),
            false,
        ),
        Request::Shutdown => (Response::ShuttingDown, true),
    }
}

fn main() {
    let mut addr = "127.0.0.1:7655".to_string();
    let mut shard_count: u32 = 3;
    let mut seed: u64 = 0xF1EE7;
    let mut state_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                shard_count = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
                    eprintln!("fleet_router: --shards needs a count");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                seed = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
                    eprintln!("fleet_router: --seed needs a number");
                    std::process::exit(2);
                })
            }
            "--state-dir" => {
                state_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("fleet_router: --state-dir needs a path");
                    std::process::exit(2);
                })))
            }
            "--resume" => resume = true,
            other => addr = other.to_string(),
        }
    }
    if shard_count == 0 {
        eprintln!("fleet_router: need at least one shard");
        std::process::exit(2);
    }
    if resume && state_dir.is_none() {
        eprintln!("fleet_router: --resume needs --state-dir (the books to resume from)");
        std::process::exit(2);
    }

    let shards: Vec<Shard> = (0..shard_count)
        .map(|i| {
            Shard::spawn(ShardId(i), ServeConfig::default()).unwrap_or_else(|e| {
                eprintln!("fleet_router: cannot spawn shard {i}: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.id(), s.addr())).collect();
    for (id, shard_addr) in &endpoints {
        eprintln!("fleet_router: {id} on {shard_addr}");
    }
    let ephemeral = state_dir.is_none();
    let journal_dir = state_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("fleet-router-{}", std::process::id()))
    });
    let cfg = RouterConfig {
        checkpoint_interval: CHECKPOINT_INTERVAL,
        compact_interval: COMPACT_INTERVAL,
        ..RouterConfig::new(seed, journal_dir.clone())
    };
    let router = if resume {
        match ShardRouter::restore(cfg, &endpoints) {
            Ok((router, report)) => {
                eprintln!(
                    "fleet_router: resumed {} session(s), pending migration: {}",
                    report.sessions_verified,
                    report.pending_resolution.unwrap_or("none")
                );
                router
            }
            Err(e) => {
                eprintln!(
                    "fleet_router: cannot resume from {}: {e}",
                    journal_dir.display()
                );
                std::process::exit(2);
            }
        }
    } else {
        ShardRouter::connect(cfg, &endpoints).unwrap_or_else(|e| {
            eprintln!("fleet_router: cannot connect shards: {e}");
            std::process::exit(2);
        })
    };
    let shared = Arc::new(Mutex::new(router));

    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("fleet_router: cannot bind {addr}: {e}");
        std::process::exit(2);
    });
    let local = listener.local_addr().ok();
    match local {
        Some(local) => println!("fleet_router listening on {local} ({shard_count} shards)"),
        None => println!("fleet_router listening on {addr} ({shard_count} shards)"),
    }

    let stopping = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for stream in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fleet_router: accept failed: {e}");
                continue;
            }
        };
        let shared = Arc::clone(&shared);
        let stopping = Arc::clone(&stopping);
        // Thread-per-connection: the ranked router mutex serializes every
        // request, so interleaving cannot affect fleet state order.
        // The router is locked per request, never across a blocking read,
        // so a stalled client cannot wedge the fleet.
        let handle_locked = move |req| {
            let mut router = match shared.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            handle(&mut router, req)
        };
        workers.push(std::thread::spawn(move || {
            match serve_connection(stream, handle_locked) {
                Ok(true) => {
                    stopping.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it observes the stop flag.
                    if let Some(local) = local {
                        let _ = TcpStream::connect(local);
                    }
                }
                Ok(false) => {}
                Err(e) => eprintln!("fleet_router: connection error: {e}"),
            }
        }));
    }
    for worker in workers {
        let _ = worker.join();
    }
    {
        let mut router = match shared.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        router.shutdown();
    }
    drop(shared);
    drop(shards);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&journal_dir);
    }
    eprintln!("fleet_router: shutting down");
}
