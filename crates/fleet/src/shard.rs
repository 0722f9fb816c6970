//! One fleet backend: a serve `Server` behind its own TCP listener.
//!
//! A [`Shard`] is exactly the `serve_tcp` process shrunk to a library so
//! tests, the smoke gate and `fleet_router` can run several in one
//! process: it binds an ephemeral local port and serves the length-
//! prefixed protocol (hello-gated, version 2) off a dedicated accept
//! thread, reusing `supernova_serve::service` verbatim — a fleet shard
//! and a standalone server cannot drift apart.
//!
//! [`Shard::kill`] models a crash, not a shutdown: the listener stops,
//! in-flight connections drop, and nothing is drained or checkpointed.
//! Whatever the shard alone knew is gone; recovery must come from the
//! router's journal and checkpoints, which is the failover path under
//! test.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use supernova_serve::service::{handle, serve_connection, Replay};
use supernova_serve::{ServeConfig, Server};

use crate::ring::ShardId;

/// A serve backend listening on its own local TCP port.
///
/// Drop the router holding a shard's connection before the shard:
/// dropping a `Shard` joins its accept thread, which blocks reading a
/// connection that is still open.
pub struct Shard {
    id: ShardId,
    addr: SocketAddr,
    server: Arc<Server>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Shard {
    /// Spawns a shard: binds `127.0.0.1:0`, starts a [`Server`] under
    /// `cfg`, and serves connections until [`Shard::kill`].
    pub fn spawn(id: ShardId, cfg: ServeConfig) -> std::io::Result<Shard> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = Arc::new(Server::start(cfg));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_server = Arc::clone(&server);
        let thread_stop = Arc::clone(&stop);
        // The accept loop is serial like serve_tcp's: one connection at a
        // time, each multiplexing many sessions. lint: allow(thread-spawn)
        let accept = std::thread::spawn(move || {
            let mut replays: BTreeMap<u64, Replay> = BTreeMap::new();
            for stream in listener.incoming() {
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                match serve_connection(stream, |req| handle(&thread_server, &mut replays, req)) {
                    Ok(true) => break,
                    Ok(false) => {}
                    Err(e) => eprintln!("{id}: connection error: {e}"),
                }
            }
        });
        Ok(Shard {
            id,
            addr,
            server,
            stop,
            accept: Some(accept),
        })
    }

    /// The shard's id on the ring.
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// The address clients (the router) connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process server, for post-mortem inspection (dispatch
    /// records survive a [`Shard::kill`] because the harness holds the
    /// process; a real crash would lose them, which is why the zero-loss
    /// argument rests on the router's journal, not on this accessor).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Crashes the shard: stops accepting new connections. No drain, no
    /// checkpoint — admitted work beyond the router's last snapshot
    /// exists only in the journal. The accept thread may still be blocked
    /// reading the router's live connection; it exits once the router
    /// drops that connection (which `ShardRouter::kill_shard` does first
    /// thing), and is joined on [`Drop`].
    pub fn kill(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock a pure accept() wait; a blocked-in-read handler returns
        // when its peer hangs up.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.kill();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}
