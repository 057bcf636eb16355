//! The blocking TCP server fronting a [`ShardedService`].
//!
//! One accept-loop thread plus one handler thread per connection, all
//! spawned through the [`pref_sync`] thread shim. Each handler owns a
//! [`ServiceReader`], so every read is served off the zero-lock snapshot
//! path; the writer path is only touched by `OP_UPDATE` (through the
//! admission gate into the bounded queue, never blocking) and `OP_FLUSH`
//! (the read-your-writes barrier, which blocks exactly that connection).
//!
//! Shutdown is cooperative but prompt: [`Server::stop`] raises the stop
//! flag, wakes the accept loop with a loopback connection, shuts down every
//! live connection's socket (which fails the handlers' blocking reads), and
//! joins every thread before handing the [`ShardedService`] back.

use crate::admission::{AdmissionGate, AdmitDecision, TokenBucketConfig};
use crate::frame::{self, Frame};
use crate::NetError;
use pref_assign::FunctionId;
use pref_rtree::RecordId;
use pref_service::{decode_batch, ServiceError, ServiceReader, ShardedService};
use pref_sync::{thread, AtomicU64, LockRank, Mutex, Ordering};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long a closing connection waits for its peer's FIN.
const LINGER: Duration = Duration::from_secs(1);

/// Server parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; the default `127.0.0.1:0` picks a free loopback port
    /// (read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Admission gate for the update path.
    pub admission: TokenBucketConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            admission: TokenBucketConfig::default(),
        }
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    service: ShardedService,
    gate: AdmissionGate,
    /// 0 = serving, 1 = stopping. The loopback wake connection in
    /// [`Server::stop`] is what actually unblocks the accept loop; the flag
    /// only has to be visible *eventually*, which any ordering gives.
    stopping: AtomicU64,
    conns: Mutex<Conns>,
}

/// The live connections, keyed by connection number.
#[derive(Default)]
struct Conns {
    /// One `try_clone` of every open connection, so `stop` can fail
    /// handlers out of their blocking reads with a socket shutdown. A
    /// handler removes its own entry when its connection ends.
    open: BTreeMap<u64, TcpStream>,
    /// Connections whose handler has exited, for the accept loop to join.
    finished: Vec<u64>,
}

/// A running front-door server. Dropping it without [`Server::stop`] leaks
/// the listener thread for the process lifetime; tests and binaries should
/// stop it explicitly.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<thread::JoinHandle<Vec<thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds the listener and starts serving `service` on a background
    /// accept loop.
    pub fn start(service: ShardedService, config: &ServerConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            gate: AdmissionGate::new(&config.admission),
            stopping: AtomicU64::new(0),
            conns: Mutex::new(Conns::default(), LockRank::ServerConns),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("net-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(Self {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains every connection handler, and returns the
    /// fronted service (still running — callers typically `shutdown()` it
    /// next, or keep serving it in-process).
    pub fn stop(mut self) -> Result<ShardedService, NetError> {
        // ordering: relaxed — the loopback connect below synchronizes with
        // the accept loop through the kernel; the flag needs no ordering of
        // its own
        self.shared.stopping.store(1, Ordering::Relaxed);
        // wake the accept loop; if the listener is already gone, so be it
        let _ = TcpStream::connect(self.local_addr);
        let handlers = match self.accept.take() {
            Some(accept) => accept.join().unwrap_or_default(),
            None => Vec::new(),
        };
        // fail every handler out of its blocking read; NotConnected and
        // friends just mean the peer beat us to it
        let open = std::mem::take(&mut self.shared.conns.lock().open);
        for conn in open.into_values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for handler in handlers {
            let _ = handler.join();
        }
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => Ok(shared.service),
            Err(_) => Err(NetError::UnexpectedReply(
                "server threads leaked shared state past join".to_string(),
            )),
        }
    }
}

/// Accepts connections until [`Server::stop`], one handler thread each, and
/// joins the handlers of closed connections as it goes: connection churn
/// holds no socket and no thread past the connection's end. Returns the
/// handlers still running at stop, in connection order.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) -> Vec<thread::JoinHandle<()>> {
    let mut handlers: BTreeMap<u64, thread::JoinHandle<()>> = BTreeMap::new();
    let mut next_conn = 0u64;
    loop {
        let mut stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                // transient accept failure (EMFILE, aborted handshake):
                // keep serving unless we are stopping
                // ordering: relaxed — see the Shared.stopping field docs
                if shared.stopping.load(Ordering::Relaxed) == 1 {
                    break;
                }
                continue;
            }
        };
        // ordering: relaxed — see the Shared.stopping field docs
        if shared.stopping.load(Ordering::Relaxed) == 1 {
            // this was (or raced with) the stop() wake connection
            break;
        }
        let finished = std::mem::take(&mut shared.conns.lock().finished);
        for id in finished {
            if let Some(handler) = handlers.remove(&id) {
                let _ = handler.join();
            }
        }
        let id = next_conn;
        next_conn += 1;
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().open.insert(id, clone);
        }
        let spawned = {
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name(format!("net-conn-{id}"))
                .spawn(move || {
                    serve_connection(&shared, &mut stream);
                    // still registered: stop() can cut the linger short
                    close_gracefully(&mut stream);
                    // dropping the registry's clone here and `stream` on
                    // return closes the socket's last fd
                    let mut conns = shared.conns.lock();
                    conns.open.remove(&id);
                    conns.finished.push(id);
                })
        };
        match spawned {
            Ok(handler) => {
                handlers.insert(id, handler);
            }
            Err(_) => {
                shared.conns.lock().open.remove(&id);
            }
        }
    }
    handlers.into_values().collect()
}

/// Ends a connection without a reset. Closing a socket whose receive queue
/// still holds bytes (the rest of a poisoned frame) makes the kernel answer
/// RST, which can destroy the error reply still in flight; so send FIN
/// first, then discard input until the peer's FIN — at most
/// [`frame::MAX_FRAME`] bytes, or until [`LINGER`] passes in silence.
fn close_gracefully(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_read_timeout(Some(LINGER)).is_err() {
        return;
    }
    let mut sink = [0u8; 4096];
    let mut left = frame::MAX_FRAME as usize;
    while left > 0 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

/// One connection's request loop: read a frame, dispatch, reply, repeat
/// until the peer hangs up or poisons the framing.
fn serve_connection(shared: &Shared, stream: &mut TcpStream) {
    let mut reader = shared.service.reader();
    loop {
        let request = match frame::read_frame(stream) {
            Ok(request) => request,
            Err(e) if e.poisons_connection() => {
                // answer the typed error so the peer can tell a protocol
                // bug from a network fault, then drop: frame boundaries in
                // this byte stream can no longer be trusted
                let reply = error_frame(0, frame::ERR_BAD_FRAME, &e.to_string());
                let _ = frame::write_frame(stream, &reply);
                return;
            }
            // clean close or transport fault: nothing to say, nobody to say
            // it to
            Err(_) => return,
        };
        let reply = dispatch(shared, &mut reader, &request);
        if frame::write_frame(stream, &reply).is_err() {
            return;
        }
    }
}

/// Routes one well-framed request. Every failure from here on is semantic:
/// the reply is a typed error frame and the connection keeps serving.
fn dispatch(shared: &Shared, reader: &mut ServiceReader, request: &Frame) -> Frame {
    if request.ver != frame::PROTOCOL_VERSION {
        return error_frame(
            request.tenant,
            frame::ERR_UNKNOWN_VERSION,
            &format!(
                "version {} (this server speaks {})",
                request.ver,
                frame::PROTOCOL_VERSION
            ),
        );
    }
    match request.opcode {
        frame::OP_PING => ok_frame(request, Vec::new()),
        frame::OP_ASSIGNMENT_OF | frame::OP_FUNCTIONS_OF => snapshot_read(shared, reader, request),
        frame::OP_STATS => {
            let stats = shared.service.stats();
            let mut payload = Vec::with_capacity(48);
            for word in [
                stats.submitted(),
                stats.processed(),
                stats.rejected(),
                stats.live_objects(),
                stats.live_functions(),
                stats.published_versions(),
            ] {
                payload.extend_from_slice(&word.to_le_bytes());
            }
            ok_frame(request, payload)
        }
        frame::OP_UPDATE => submit_update(shared, request),
        frame::OP_FLUSH => {
            let shard = shared.service.shard_of_key(request.tenant);
            match shared.service.flush_shard(shard) {
                Ok(()) => ok_frame(request, Vec::new()),
                Err(e) => service_error_frame(request.tenant, &e),
            }
        }
        other => error_frame(
            request.tenant,
            frame::ERR_UNKNOWN_OPCODE,
            &format!("opcode {other:#04x}"),
        ),
    }
}

/// `OP_ASSIGNMENT_OF` / `OP_FUNCTIONS_OF`: an 8-byte id payload, answered
/// from the tenant-shard's pinned snapshot as
/// `[version: u64][found: u8][count: u32][(id: u64, score: f64 bits) × count]`.
fn snapshot_read(shared: &Shared, reader: &mut ServiceReader, request: &Frame) -> Frame {
    let id = match <[u8; 8]>::try_from(request.payload.as_slice()) {
        Ok(bytes) => u64::from_le_bytes(bytes),
        Err(_) => {
            return error_frame(
                request.tenant,
                frame::ERR_BAD_PAYLOAD,
                &format!("want an 8-byte id, got {} bytes", request.payload.len()),
            )
        }
    };
    let shard = shared.service.shard_of_key(request.tenant);
    let snapshot = match reader.snapshot(shard) {
        Ok(snapshot) => snapshot,
        Err(e) => return service_error_frame(request.tenant, &e),
    };
    let mut payload = Vec::new();
    payload.extend_from_slice(&snapshot.version().to_le_bytes());
    let pairs: Option<Vec<(u64, f64)>> = if request.opcode == frame::OP_ASSIGNMENT_OF {
        snapshot
            .assignment_of(FunctionId(id as usize))
            .map(|objects| objects.map(|(o, score)| (o.0, score)).collect())
    } else {
        snapshot
            .functions_of(RecordId(id))
            .map(|functions| functions.map(|(f, score)| (f.0 as u64, score)).collect())
    };
    match pairs {
        Some(pairs) => {
            payload.push(1);
            payload.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (id, score) in pairs {
                payload.extend_from_slice(&id.to_le_bytes());
                payload.extend_from_slice(&score.to_bits().to_le_bytes());
            }
        }
        None => {
            payload.push(0);
            payload.extend_from_slice(&0u32.to_le_bytes());
        }
    }
    ok_frame(request, payload)
}

/// `OP_UPDATE`: decode the batch, pass the admission gate (token bucket,
/// then non-blocking queue admission), and ack. The handler never parks in
/// the queue's backpressure wait — an overloaded shard is a typed reject.
fn submit_update(shared: &Shared, request: &Frame) -> Frame {
    let batch = match decode_batch(&request.payload) {
        Ok(batch) => batch,
        Err(e) => {
            return error_frame(
                request.tenant,
                frame::ERR_BAD_PAYLOAD,
                &format!("update batch: {e}"),
            )
        }
    };
    // empty batches (pure publication triggers) still cost one token
    let cost = (batch.len() as u64).max(1);
    let now = pref_sync::time::monotonic_nanos();
    if shared.gate.admit(request.tenant, cost, now) == AdmitDecision::RateLimited {
        return error_frame(
            request.tenant,
            frame::ERR_RATE_LIMITED,
            "tenant update budget exhausted",
        );
    }
    let shard = shared.service.shard_of_key(request.tenant);
    match shared.service.try_submit_batch(shard, batch) {
        Ok(()) => ok_frame(request, Vec::new()),
        Err(ServiceError::Overloaded) => error_frame(
            request.tenant,
            frame::ERR_OVERLOADED,
            "shard update queue at capacity",
        ),
        Err(e) => service_error_frame(request.tenant, &e),
    }
}

fn ok_frame(request: &Frame, payload: Vec<u8>) -> Frame {
    Frame::request(request.opcode | frame::OP_REPLY, request.tenant, payload)
}

fn error_frame(tenant: u64, code: u8, message: &str) -> Frame {
    let mut payload = Vec::with_capacity(1 + message.len());
    payload.push(code);
    payload.extend_from_slice(message.as_bytes());
    Frame::request(frame::OP_ERROR, tenant, payload)
}

fn service_error_frame(tenant: u64, e: &ServiceError) -> Frame {
    let code = match e {
        ServiceError::Overloaded => frame::ERR_OVERLOADED,
        _ => frame::ERR_SERVICE,
    };
    error_frame(tenant, code, &e.to_string())
}
