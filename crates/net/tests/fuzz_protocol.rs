//! The protocol fuzz battery, run against a live server on a real socket.
//!
//! Every test here drives the server through `std::net` sockets exactly as
//! a (possibly hostile) client would: truncated headers, lying length
//! fields — both too short and multi-GiB — corrupted checksums, unknown
//! opcodes and versions, and plain random garbage. The invariant under all
//! of it: the server answers a typed error or drops the connection, never
//! panics, and never allocates beyond the frame cap; afterwards it still
//! serves well-formed traffic.

use pref_assign::{ObjectRecord, PreferenceFunction, Problem};
use pref_geom::{LinearFunction, Point};
use pref_net::frame::{self, Frame};
use pref_net::{NetClient, NetError, Server, ServerConfig, TokenBucketConfig};
use pref_service::{encode_batch, ServiceConfig, ShardedService, UpdateOp};
use std::io::Write;
use std::net::TcpStream;

const TENANT: u64 = 42;

fn problem() -> Problem {
    Problem::new(
        vec![
            PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
            PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
        ],
        vec![
            ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])),
            ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])),
            ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])),
        ],
    )
    .unwrap()
}

/// Every shard gets an identical problem, so any tenant's shard can answer
/// reads for function ids 0/1 and object ids 0/1/2.
fn start_server(shards: usize, service: ServiceConfig, server: ServerConfig) -> Server {
    let problems = (0..shards).map(|_| problem()).collect();
    let service = ShardedService::start(problems, &service).unwrap();
    Server::start(service, &server).unwrap()
}

fn default_server() -> Server {
    start_server(2, ServiceConfig::default(), ServerConfig::default())
}

fn stop(server: Server) {
    server.stop().unwrap().shutdown().unwrap();
}

/// Sends raw bytes on a fresh connection and returns the server's reply
/// frames until it drops the connection (or replies `max` times).
fn send_raw(server: &Server, bytes: &[u8], max_replies: usize) -> Vec<Frame> {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(bytes).unwrap();
    // half-close our side so a server waiting for the rest of a lying
    // frame sees EOF instead of blocking forever
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = Vec::new();
    while replies.len() < max_replies {
        match frame::read_frame(&mut stream) {
            Ok(reply) => replies.push(reply),
            Err(_) => break,
        }
    }
    replies
}

fn error_code(reply: &Frame) -> u8 {
    assert_eq!(
        reply.opcode,
        frame::OP_ERROR,
        "not an error frame: {reply:?}"
    );
    reply.payload[0]
}

fn encoded(frame_: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    frame::encode(frame_, &mut buf);
    buf
}

// ---- the good path (the battery's control group) --------------------------

#[test]
fn ping_stats_and_reads_work_over_the_wire() {
    let server = default_server();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.ping(TENANT).unwrap();
    let stats = client.stats(TENANT).unwrap();
    assert_eq!(stats.live_objects, 6, "2 shards x 3 objects");
    assert_eq!(stats.live_functions, 4);
    let read = client.assignment_of(TENANT, 0).unwrap();
    assert!(read.found);
    assert_eq!(read.pairs.len(), 1, "1-1 matching: one object per function");
    let missing = client.assignment_of(TENANT, 999).unwrap();
    assert!(!missing.found);
    assert!(missing.pairs.is_empty());
    stop(server);
}

#[test]
fn read_your_writes_holds_over_the_network_across_connections() {
    let server = default_server();
    let mut writer = NetClient::connect(server.local_addr()).unwrap();
    // a dominating newcomer: function 0 must be re-assigned to it
    writer
        .update(
            TENANT,
            &[UpdateOp::InsertObject(ObjectRecord::new(
                99,
                Point::from_slice(&[0.99, 0.99]),
            ))],
        )
        .unwrap();
    writer.flush(TENANT).unwrap();
    // the barrier covers OTHER connections to the same tenant/shard too
    let mut reader = NetClient::connect(server.local_addr()).unwrap();
    let read = reader.assignment_of(TENANT, 0).unwrap();
    assert_eq!(read.pairs, vec![(99, read.pairs[0].1)]);
    let back = reader.functions_of(TENANT, 99).unwrap();
    assert!(back.found);
    assert_eq!(back.pairs.len(), 1);
    assert_eq!(back.pairs[0].0, 0);
    stop(server);
}

// ---- semantic failures: typed error, connection survives -------------------

#[test]
fn unknown_opcode_and_version_answer_typed_errors_and_keep_serving() {
    let server = default_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // unknown opcode
    let mut bytes = encoded(&Frame::request(0x7e, TENANT, Vec::new()));
    stream.write_all(&bytes).unwrap();
    let reply = frame::read_frame(&mut stream).unwrap();
    assert_eq!(error_code(&reply), frame::ERR_UNKNOWN_OPCODE);
    // unknown version, same connection
    let mut odd = Frame::request(frame::OP_PING, TENANT, Vec::new());
    odd.ver = 9;
    bytes = encoded(&odd);
    stream.write_all(&bytes).unwrap();
    let reply = frame::read_frame(&mut stream).unwrap();
    assert_eq!(error_code(&reply), frame::ERR_UNKNOWN_VERSION);
    // the same connection still serves a well-formed request
    bytes = encoded(&Frame::request(frame::OP_PING, TENANT, Vec::new()));
    stream.write_all(&bytes).unwrap();
    let reply = frame::read_frame(&mut stream).unwrap();
    assert_eq!(reply.opcode, frame::OP_PING | frame::OP_REPLY);
    stop(server);
}

#[test]
fn bad_payloads_answer_typed_errors_and_keep_serving() {
    let server = default_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // a read wants an 8-byte id; send 3 bytes
    let bytes = encoded(&Frame::request(
        frame::OP_ASSIGNMENT_OF,
        TENANT,
        vec![1, 2, 3],
    ));
    stream.write_all(&bytes).unwrap();
    let reply = frame::read_frame(&mut stream).unwrap();
    assert_eq!(error_code(&reply), frame::ERR_BAD_PAYLOAD);
    // an update batch that does not decode
    let bytes = encoded(&Frame::request(frame::OP_UPDATE, TENANT, vec![0xff; 9]));
    stream.write_all(&bytes).unwrap();
    let reply = frame::read_frame(&mut stream).unwrap();
    assert_eq!(error_code(&reply), frame::ERR_BAD_PAYLOAD);
    // connection still alive
    let bytes = encoded(&Frame::request(frame::OP_PING, TENANT, Vec::new()));
    stream.write_all(&bytes).unwrap();
    assert_eq!(
        frame::read_frame(&mut stream).unwrap().opcode,
        frame::OP_PING | frame::OP_REPLY
    );
    stop(server);
}

/// A checksum-valid `OP_UPDATE` whose batch carries a capacity-0 arrival
/// used to reach the engine, where it panicked the shard writer (debug) or
/// wrapped a counter and swallowed the matching (release).
#[test]
fn zero_capacity_updates_answer_a_typed_error_and_keep_serving() {
    let server = default_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let zero_object = UpdateOp::InsertObject(ObjectRecord {
        capacity: 0,
        ..ObjectRecord::new(77, Point::from_slice(&[0.99, 0.99]))
    });
    let zero_function = UpdateOp::InsertFunction(PreferenceFunction {
        capacity: 0,
        ..PreferenceFunction::new(7, LinearFunction::new(vec![0.5, 0.5]).unwrap())
    });
    for op in [zero_object, zero_function] {
        // a real arrival rides in the same batch: none of it may apply
        let batch = [
            UpdateOp::InsertObject(ObjectRecord::new(78, Point::from_slice(&[0.9, 0.9]))),
            op,
        ];
        let bytes = encoded(&Frame::request(
            frame::OP_UPDATE,
            TENANT,
            encode_batch(&batch),
        ));
        stream.write_all(&bytes).unwrap();
        let reply = frame::read_frame(&mut stream).unwrap();
        assert_eq!(error_code(&reply), frame::ERR_BAD_PAYLOAD);
        assert!(String::from_utf8_lossy(&reply.payload[1..]).contains("capacity 0"));
    }
    // the connection survives
    let bytes = encoded(&Frame::request(frame::OP_PING, TENANT, Vec::new()));
    stream.write_all(&bytes).unwrap();
    assert_eq!(
        frame::read_frame(&mut stream).unwrap().opcode,
        frame::OP_PING | frame::OP_REPLY
    );
    // and so does the shard: nothing was submitted, and a real update lands
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let stats = client.stats(TENANT).unwrap();
    assert_eq!(
        (stats.processed, stats.rejected, stats.live_objects),
        (0, 0, 6)
    );
    client
        .update(
            TENANT,
            &[UpdateOp::InsertObject(ObjectRecord::new(
                77,
                Point::from_slice(&[0.99, 0.99]),
            ))],
        )
        .unwrap();
    client.flush(TENANT).unwrap();
    assert_eq!(client.functions_of(TENANT, 77).unwrap().pairs.len(), 1);
    stop(server);
}

// ---- framing failures: typed error, then the connection drops --------------

#[test]
fn truncated_headers_do_not_wedge_the_server() {
    let server = default_server();
    for cut in [0usize, 1, 2, 3, 4, 7, 11] {
        let bytes = encoded(&Frame::request(frame::OP_PING, TENANT, vec![5; 8]));
        let replies = send_raw(&server, &bytes[..cut.min(bytes.len())], 4);
        assert!(replies.is_empty(), "a torn frame got a reply: {replies:?}");
    }
    // the server survived every truncation
    NetClient::connect(server.local_addr())
        .unwrap()
        .ping(TENANT)
        .unwrap();
    stop(server);
}

#[test]
fn lying_length_fields_get_a_typed_error_and_a_dropped_connection() {
    let server = default_server();
    // too small to hold the fixed fields
    for len in [0u32, 1, 17] {
        let replies = send_raw(&server, &len.to_le_bytes(), 4);
        assert_eq!(replies.len(), 1, "len {len}: want exactly one error reply");
        assert_eq!(error_code(&replies[0]), frame::ERR_BAD_FRAME);
    }
    // multi-GiB claims: rejected up front, before any allocation — the
    // reply comes back even though we never send (or have) the bytes
    for len in [frame::MAX_FRAME + 1, 3 << 30, u32::MAX] {
        let replies = send_raw(&server, &len.to_le_bytes(), 4);
        assert_eq!(replies.len(), 1, "len {len}: want exactly one error reply");
        assert_eq!(error_code(&replies[0]), frame::ERR_BAD_FRAME);
    }
    NetClient::connect(server.local_addr())
        .unwrap()
        .ping(TENANT)
        .unwrap();
    stop(server);
}

#[test]
fn corrupted_checksums_get_a_typed_error_and_a_dropped_connection() {
    let server = default_server();
    let clean = encoded(&Frame::request(frame::OP_PING, TENANT, vec![7; 16]));
    // flip one bit in every post-length byte (the len field itself is
    // covered by the lying-length tests)
    for at in 4..clean.len() {
        let mut corrupt = clean.clone();
        corrupt[at] ^= 0x20;
        let replies = send_raw(&server, &corrupt, 4);
        assert_eq!(replies.len(), 1, "flip at {at}: want exactly one reply");
        assert_eq!(error_code(&replies[0]), frame::ERR_BAD_FRAME);
    }
    NetClient::connect(server.local_addr())
        .unwrap()
        .ping(TENANT)
        .unwrap();
    stop(server);
}

#[test]
fn random_garbage_never_panics_or_wedges_the_server() {
    let server = default_server();
    // deterministic xorshift64* garbage
    let mut state = 0x9e37_79b9_97f4_a7c1u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..200 {
        let len = (next() % 64) as usize;
        let blob: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        // the server may reply with errors or just drop; it must not hang
        // this probe (send_raw half-closes, so a partial frame reads EOF)
        let _ = send_raw(&server, &blob, 4);
        // spot-check liveness every few rounds
        if round % 50 == 0 {
            NetClient::connect(server.local_addr())
                .unwrap()
                .ping(TENANT)
                .unwrap();
        }
    }
    NetClient::connect(server.local_addr())
        .unwrap()
        .ping(TENANT)
        .unwrap();
    stop(server);
}

#[test]
fn a_flood_of_short_lived_connections_is_fine() {
    let server = default_server();
    for tenant in 0..64u64 {
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client.ping(tenant).unwrap();
        // dropped without a goodbye: the server's read sees Closed
    }
    NetClient::connect(server.local_addr())
        .unwrap()
        .ping(TENANT)
        .unwrap();
    stop(server);
}

// ---- admission control ------------------------------------------------------

#[test]
fn rate_limited_tenants_get_the_typed_reject() {
    let server = start_server(
        1,
        ServiceConfig::default(),
        ServerConfig {
            admission: TokenBucketConfig {
                rate_per_sec: 0, // no refill: the burst is the whole budget
                burst: 2,
                slots: 16,
            },
            ..ServerConfig::default()
        },
    );
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let op = || vec![UpdateOp::RemoveObject(pref_rtree::RecordId(12345))];
    client.update(TENANT, &op()).unwrap();
    client.update(TENANT, &op()).unwrap();
    let rejected = client.update(TENANT, &op()).unwrap_err();
    match &rejected {
        NetError::Remote { code, .. } => assert_eq!(*code, frame::ERR_RATE_LIMITED),
        other => panic!("want Remote(ERR_RATE_LIMITED), got {other:?}"),
    }
    assert!(rejected.is_admission_reject());
    // a different tenant slot still has its own budget
    let other_tenant = (0..1024u64)
        .find(|&t| {
            let mut probe = NetClient::connect(server.local_addr()).unwrap();
            probe.update(t, &op()).is_ok()
        })
        .expect("some tenant hashes to a fresh slot");
    assert_ne!(other_tenant, TENANT);
    stop(server);
}

#[test]
fn an_overloaded_shard_rejects_instead_of_blocking_the_handler() {
    // a one-update queue and a writer kept busy by real engine repairs:
    // an open-loop sender must observe ERR_OVERLOADED well within the
    // attempt budget, and the reject must be typed, not a stall or a hang
    let server = start_server(
        1,
        ServiceConfig {
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
        ServerConfig::default(),
    );
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let mut overloaded = 0u32;
    for wave in 0..5_000u64 {
        let base = 1_000 + wave * 16;
        let batch: Vec<UpdateOp> = (0..16)
            .map(|i| {
                UpdateOp::InsertObject(ObjectRecord::new(
                    base + i,
                    Point::from_slice(&[0.3 + (i as f64) * 0.01, 0.4]),
                ))
            })
            .collect();
        match client.update(TENANT, &batch) {
            Ok(()) => {}
            Err(NetError::Remote { code, .. }) if code == frame::ERR_OVERLOADED => {
                overloaded += 1;
                if overloaded >= 3 {
                    break;
                }
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(
        overloaded >= 3,
        "admission control never engaged across 5000 waves"
    );
    // the shard is healthy: drain and read
    client.flush(TENANT).unwrap();
    assert!(client.assignment_of(TENANT, 0).unwrap().found);
    stop(server);
}
