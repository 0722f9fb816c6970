//! `serve_tcp` — the serving layer behind a length-prefixed TCP protocol.
//!
//! ```text
//! cargo run --release -p supernova-serve --bin serve_tcp [addr] [--trace <path>]
//! ```
//!
//! Binds `addr` (default `127.0.0.1:7654`; use port `0` for an ephemeral
//! port) and prints `serve_tcp listening on <addr>` once ready. With
//! `--trace <path>`, span emission is enabled on every session's engine and
//! a Chrome trace-event document (wall-clock layout, one row per worker
//! plus virtual hardware rows) covering every dispatched step is written
//! to `<path>` at shutdown — load it in `chrome://tracing` or Perfetto. The
//! protocol is *replay-serving* (see `supernova_serve::protocol`): a
//! client opens a session by naming a seeded dataset and the server
//! regenerates the identical step stream locally, so only indices and
//! bit-exact poses cross the wire — never factors.
//!
//! Every connection opens with a version hello (protocol version 2);
//! unsupported versions are refused with a typed error. Connections are
//! handled one at a time (each may multiplex many sessions); a `Shutdown`
//! request drains in-flight work and exits. A malformed frame closes the
//! offending connection with an error response where possible; admission
//! refusals are reported per-request and never kill the connection.

use std::collections::BTreeMap;
use std::net::TcpListener;

use supernova_serve::service::{handle, serve_connection, Replay};
use supernova_serve::{ServeConfig, Server};
use supernova_trace::{chrome_document_wall, TraceConfig};

fn main() {
    let mut addr = "127.0.0.1:7654".to_string();
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("serve_tcp: --trace needs a file path");
                std::process::exit(2);
            }));
        } else {
            addr = arg;
        }
    }
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("serve_tcp: cannot bind {addr}: {e}");
        std::process::exit(2);
    });
    match listener.local_addr() {
        Ok(local) => println!("serve_tcp listening on {local}"),
        Err(_) => println!("serve_tcp listening on {addr}"),
    }

    let server = Server::start(ServeConfig {
        trace: if trace_path.is_some() {
            TraceConfig::on()
        } else {
            TraceConfig::off()
        },
        ..ServeConfig::default()
    });
    let mut replays: BTreeMap<u64, Replay> = BTreeMap::new();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve_tcp: accept failed: {e}");
                continue;
            }
        };
        match serve_connection(stream, |req| handle(&server, &mut replays, req)) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => eprintln!("serve_tcp: connection error: {e}"),
        }
    }
    if let Some(path) = trace_path {
        let traces = server.take_traces();
        let doc = chrome_document_wall(&traces);
        match std::fs::write(&path, doc) {
            Ok(()) => eprintln!(
                "serve_tcp: wrote {} step trace(s) to {path} (open in chrome://tracing)",
                traces.len()
            ),
            Err(e) => eprintln!("serve_tcp: cannot write trace to {path}: {e}"),
        }
    }
    eprintln!("serve_tcp: shutting down");
}
