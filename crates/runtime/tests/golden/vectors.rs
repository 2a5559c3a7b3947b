//! Golden byte vectors for every format `crates/runtime` puts on a
//! socket or a disk: data-frame messages, the control channel
//! (handshake, commands, replies), the admin protocol and the framed
//! warm-checkpoint file.
//!
//! The hex strings were produced by the hand-written encoders of the
//! commit that introduced this file (PR 13, before the `Wire` trait).
//! They are the compatibility contract: a checkpoint written by that
//! build must load on this one and a worker of that build must be able
//! to talk to this controller, so a vector may only be *added* here,
//! never edited. `wire_golden.rs` asserts each one both ways. A vector
//! whose variant or format version is retired, or whose variant lost
//! fields, moves, bytes unchanged, to the `retired_*` lists at the end:
//! its bytes must then be rejected, so an old peer or file fails loudly
//! instead of decoding as something else.

use bytes::Bytes;
use s2_dataplane::FinalKind;
use s2_net::policy::Protocol;
use s2_net::topology::{InterfaceId, NodeId};
use s2_net::{Ipv4Addr, Prefix};
use s2_obs::trace::Event;
use s2_obs::MetricsSnapshot;
use s2_routing::{BgpRoute, Origin, RibRoute, RibSnapshot};
use s2_runtime::admin::{AdminRequest, AdminResponse, DeltaSpec, WarmCheckpoint, WorkerMetrics};
use s2_runtime::remote::{Register, Setup};
use s2_runtime::wire::{Message, PacketRef};
use s2_runtime::worker::{Command, PatchStage, Reply};
use s2_runtime::{TrafficSnapshot, WireError};
use std::sync::Arc;

fn pfx(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn rib_route() -> RibRoute {
    RibRoute {
        prefix: pfx("10.0.0.0/8"),
        protocol: Protocol::Bgp,
        egress: vec![InterfaceId(1), InterfaceId(4)],
        is_local: false,
        as_path_len: 3,
    }
}

fn rib() -> RibSnapshot {
    RibSnapshot {
        per_node: vec![
            Arc::from([
                rib_route(),
                RibRoute {
                    prefix: pfx("192.168.7.1/32"),
                    protocol: Protocol::Connected,
                    egress: vec![],
                    is_local: true,
                    as_path_len: 0,
                },
            ]),
            Arc::from([]),
        ],
    }
}

fn snapshot() -> MetricsSnapshot {
    let mut m = MetricsSnapshot::default();
    m.counter("bdd.unique.hits", 42);
    m.gauge_max("mem.peak_bytes", 1 << 20);
    m
}

fn event(name: u16, kind: u8) -> Event {
    Event {
        name,
        kind,
        lane: 3,
        depth: 2,
        ts_ns: 1_000,
        dur_ns: 500,
        arg: 42,
        span: (3u64 << 48) | 7,
        parent: 11,
    }
}

/// Data-frame messages: one of each kind, the BGP one with non-empty
/// `as_path` and `communities`, the packet batch empty and with two
/// packets that share one payload, one forwarded and one injected.
pub fn messages() -> Vec<(Message, &'static str)> {
    vec![
        (
            Message::BgpAdvertisement {
                target_node: NodeId(7),
                target_session: 3,
                routes: vec![
                    BgpRoute {
                        prefix: pfx("10.1.2.0/24"),
                        next_hop: Ipv4Addr::new(172, 16, 0, 1),
                        as_path: vec![65001, 65002, 65001].into(),
                        local_pref: 200,
                        med: 5,
                        origin: Origin::Igp,
                        communities: vec![1, 99].into(),
                        weight: 7,
                        source_protocol: Protocol::Bgp,
                    },
                    BgpRoute::local(pfx("0.0.0.0/0"), Origin::Incomplete, Protocol::Static),
                ],
            },
            "010000000700000003000000020a01020018ac100001000000c80000000500000000070300030000fde90000fdea0000fde900020000000100000063000000000000000000000000640000000001000080000100000000",
        ),
        (
            Message::OspfAdvertisement {
                target_node: NodeId(2),
                via_iface: InterfaceId(5),
                entries: vec![(pfx("10.0.0.0/31"), 1), (pfx("1.1.1.1/32"), 10)],
            },
            "02000000020005000000020a0000001f0000000101010101200000000a",
        ),
        (
            Message::BgpAdvertisement {
                target_node: NodeId(0),
                target_session: 0,
                routes: vec![],
            },
            "01000000000000000000000000",
        ),
        // Added with tag 4 (one body, many targets). The route list is
        // tag 1's byte for byte.
        (
            Message::BgpClassAdvertisement {
                targets: vec![(NodeId(4), 2)],
                routes: Arc::from([]),
            },
            "0400000001000000040000000200000000",
        ),
        (
            Message::BgpClassAdvertisement {
                targets: vec![(NodeId(7), 3), (NodeId(2), 0), (NodeId(9), 1)],
                routes: Arc::from([BgpRoute::local(
                    pfx("0.0.0.0/0"),
                    Origin::Incomplete,
                    Protocol::Static,
                )]),
            },
            concat!(
                "040000000300000007000000030000000200000000000000090000000100000001",
                "000000000000000000000000640000000001000080000100000000"
            ),
        ),
        (
            Message::BgpClassAdvertisement {
                targets: vec![(NodeId(7), 3)],
                routes: Arc::from([BgpRoute {
                    prefix: pfx("10.1.2.0/24"),
                    next_hop: Ipv4Addr::UNSPECIFIED,
                    as_path: vec![65001, 65002, 65001].into(),
                    local_pref: 100,
                    med: 5,
                    origin: Origin::Igp,
                    communities: vec![1, 99].into(),
                    weight: 0,
                    source_protocol: Protocol::Bgp,
                }]),
            },
            concat!(
                "0400000001000000070000000300000001",
                "0a0102001800000000000000640000000500000000000300030000fde90000fdea0000fde9",
                "00020000000100000063"
            ),
        ),
        // Added with tag 5 (one frame of packets per destination worker,
        // each distinct BDD once), which retired tag 3.
        (
            Message::PacketBatch {
                bdds: vec![],
                packets: vec![],
            },
            "050000000000000000",
        ),
        (
            Message::PacketBatch {
                bdds: vec![Bytes::from_static(&[1, 2, 3, 4])],
                packets: vec![
                    PacketRef {
                        src: NodeId(1),
                        node: NodeId(9),
                        ingress: Some(InterfaceId(4)),
                        hops: 3,
                        bdd: 0,
                    },
                    PacketRef {
                        src: NodeId(1),
                        node: NodeId(2),
                        ingress: None,
                        hops: 0,
                        bdd: 0,
                    },
                ],
            },
            concat!(
                "05000000010000000401020304",
                "00000002",
                "000000010000000900040003", "00000000",
                "0000000100000002ffff0000", "00000000"
            ),
        ),
    ]
}

/// The worker's registration.
pub fn registers() -> Vec<(Register, &'static str)> {
    vec![(
        Register {
            data_addr: "127.0.0.1:4821".parse().unwrap(),
        },
        "0000000e3132372e302e302e313a34383231",
    )]
}

/// The controller's answer, with and without a memory budget.
pub fn setups() -> Vec<(Setup, &'static str)> {
    let peers = vec![
        "127.0.0.1:1001".parse().unwrap(),
        "10.2.3.4:65535".parse().unwrap(),
        "[::1]:1003".parse().unwrap(),
    ];
    vec![
        (
            Setup {
                worker_id: 2,
                num_workers: 3,
                node_owner: vec![0, 1, 2, 2, 0],
                peers: peers.clone(),
                memory_budget: Some(64 << 20),
                intra_worker_threads: 4,
            },
            "0000000200000003000000050000000000000001000000020000000200000000000000030000000e3132372e302e302e313a313030310000000e31302e322e332e343a36353533350000000a5b3a3a315d3a3130303301000000000400000000000004",
        ),
        (
            Setup {
                worker_id: 0,
                num_workers: 3,
                node_owner: vec![],
                peers,
                memory_budget: None,
                intra_worker_threads: 0,
            },
            "000000000000000300000000000000030000000e3132372e302e302e313a313030310000000e31302e322e332e343a36353533350000000a5b3a3a315d3a313030330000000000",
        ),
    ]
}

/// Every `Command` variant, every payload shape.
pub fn commands() -> Vec<(Command, &'static str)> {
    vec![
        (Command::OspfExport, "01"),
        (Command::OspfApply, "02"),
        (Command::BgpBegin { shard: None }, "0300"),
        (
            Command::BgpBegin {
                shard: Some(Arc::new(
                    [pfx("192.168.1.0/24"), pfx("10.0.0.0/8")].into_iter().collect(),
                )),
            },
            "0301000000020a00000008c0a8010018",
        ),
        (Command::BgpExport, "04"),
        (Command::BgpApply, "05"),
        (Command::CollectBaseRib, "06"),
        (Command::CollectBgpRib, "07"),
        (
            Command::DpSetup {
                rib: Arc::new(rib()),
                meta_bits: 3,
                waypoints: Arc::new([(NodeId(9), 1u16), (NodeId(1), 2u16)].into_iter().collect()),
                max_hops: 64,
            },
            "0800000002000000020a00000008030002000100040000000003c0a80701200000000100000000000000000003000000020000000100020000000900010040",
        ),
        (
            Command::Inject {
                injections: Arc::new(vec![
                    (NodeId(0), pfx("10.0.0.0/24")),
                    (NodeId(5), pfx("0.0.0.0/0")),
                ]),
            },
            "0900000002000000000a00000018000000050000000000",
        ),
        (Command::ForwardRound, "0a"),
        (
            Command::CheckArrivals {
                sources: Arc::new(vec![NodeId(0), NodeId(3)]),
                expected: Arc::new(vec![
                    (NodeId(3), vec![pfx("10.0.0.0/8"), pfx("10.3.0.0/16")]),
                    (NodeId(4), vec![]),
                ]),
                transits: Arc::new(vec![(NodeId(1), 0u16)]),
            },
            "0b0000000200000000000000030000000200000003000000020a000000080a03000010000000040000000000000001000000010000",
        ),
        (Command::CollectFinals, "0c"),
        (Command::CollectPrefixes, "0d"),
        (Command::CollectObservedDeps, "0e"),
        (Command::Ping(0xdead_beef_0000_0001), "10deadbeef00000001"),
        (Command::FlushInbox { epoch: 7 }, "1100000007"),
        (Command::BgpResync, "12"),
        (Command::NetStats, "13"),
        (Command::Shutdown, "14"),
        (Command::Metrics, "15"),
        (Command::ScenarioCheckpoint, "16"),
        // The two `ScenarioBegin` vectors with a `restore` flag moved to
        // `retired_commands`; today's form is the last vector below.
        (Command::ScenarioRollback, "18"),
        (
            Command::DpScope {
                scopes: Arc::new(vec![(NodeId(0), vec![pfx("10.0.0.0/24")]), (NodeId(7), vec![])]),
            },
            "1a0000000200000000000000010a000000180000000700000000",
        ),
        // `DpCompile` (tag 27) is in `retired_commands`.
        (
            Command::CtxWrap {
                epoch: 3,
                parent: (2u64 << 48) | 77,
                inner: Box::new(Command::Ping(0xfeed)),
            },
            "1c0000000000000003000200000000004d0000000910000000000000feed",
        ),
        (
            Command::CtxWrap {
                epoch: 1,
                parent: 0,
                inner: Box::new(Command::DpScope {
                    scopes: Arc::new(vec![(NodeId(2), vec![pfx("10.2.0.0/16")])]),
                }),
            },
            "1c00000000000000010000000000000000000000121a0000000100000002000000010a02000010",
        ),
        (Command::TraceDrain, "1d"),
        // The samples of the per-file truncation loops this suite replaced.
        (
            Command::CheckArrivals {
                sources: Arc::new(vec![NodeId(0)]),
                expected: Arc::new(vec![(NodeId(1), vec![pfx("10.0.0.0/8")])]),
                transits: Arc::new(vec![(NodeId(2), 1u16)]),
            },
            "0b00000001000000000000000100000001000000010a0000000800000001000000020001",
        ),
        (
            Command::DpScope {
                scopes: Arc::new(vec![(NodeId(3), vec![pfx("10.1.0.0/16")])]),
            },
            "1a0000000100000003000000010a01000010",
        ),
        (
            Command::CtxWrap {
                epoch: 5,
                parent: 6,
                inner: Box::new(Command::Metrics),
            },
            "1c000000000000000500000000000000060000000115",
        ),
        (
            Command::ScenarioBegin {
                failed: Arc::new(vec![(NodeId(4), InterfaceId(1)), (NodeId(9), InterfaceId(0))]),
            },
            "1700000002000000040001000000090000",
        ),
        // `DpPatch` naming its stage (tag 30); the form carrying the
        // scenario RIB and changed nodes (tag 25) is in
        // `retired_commands`.
        (
            Command::DpPatch {
                stage: PatchStage::Reconverged,
                failed_ports: Arc::new(vec![(NodeId(1), InterfaceId(4))]),
            },
            "1e0100000001000000010004",
        ),
        (
            Command::DpPatch {
                stage: PatchStage::Transient,
                failed_ports: Arc::new(vec![]),
            },
            "1e0000000000",
        ),
        (Command::ScenarioCommit, "1f"),
    ]
}

/// Every `Reply` variant.
pub fn replies() -> Vec<(Reply, &'static str)> {
    vec![
        (Reply::Ok, "01"),
        (Reply::Changed(true), "0201"),
        (Reply::Changed(false), "0200"),
        (
            Reply::Rib(vec![(NodeId(4), vec![rib_route()]), (NodeId(6), vec![])]),
            "030000000200000004000000010a000000080300020001000400000000030000000600000000",
        ),
        (
            Reply::Forwarded {
                processed: 10,
                sent_remote: 2,
            },
            "04000000000000000a0000000000000002",
        ),
        (
            Reply::Arrivals {
                reachable: vec![(NodeId(0), NodeId(1))],
                unreachable: vec![(NodeId(2), NodeId(3)), (NodeId(3), NodeId(2))],
                waypoint_violations: vec![(NodeId(0), NodeId(1), NodeId(5))],
            },
            "05000000010000000000000001000000020000000200000003000000030000000200000001000000000000000100000005",
        ),
        (
            Reply::Finals {
                loops: 1,
                blackholes: 2,
                splices: 7,
                sets: vec![
                    (NodeId(9), FinalKind::Loop, Bytes::from_static(b"bddbits")),
                    (NodeId(2), FinalKind::Arrive, Bytes::new()),
                    (NodeId(2), FinalKind::Exit, Bytes::from_static(&[0xff])),
                    (NodeId(3), FinalKind::Blackhole, Bytes::from_static(&[0])),
                ],
            },
            "060000000000000001000000000000000200000000000000070000000400000009030000000762646462697473000000020000000000000000020100000001ff00000003020000000100",
        ),
        (
            Reply::Prefixes {
                all: vec![pfx("10.0.0.0/8"), pfx("10.1.0.0/16")],
                aggregates: vec![pfx("10.0.0.0/8")],
                deps: vec![(pfx("10.0.0.0/8"), pfx("10.1.0.0/16"))],
            },
            "07000000020a000000080a01000010000000010a00000008000000010a000000080a01000010",
        ),
        (Reply::Deps(vec![(pfx("10.0.0.0/8"), pfx("10.1.0.0/16"))]), "08000000010a000000080a01000010"),
        (
            Reply::OutOfMemory {
                budget: 100,
                observed: 150,
            },
            "0a00000000000000640000000000000096",
        ),
        (Reply::Pong(42), "0b000000000000002a"),
        (Reply::Violation("bad phase".to_string()), "0d00000009626164207068617365"),
        (Reply::Metrics(snapshot()), "0e000000947b0a202022736368656d61223a202273322d6d6574726963732f7631222c0a202022636f756e74657273223a207b0a20202020226264642e756e697175652e68697473223a2034320a20207d2c0a202022676175676573223a207b0a20202020226d656d2e7065616b5f6279746573223a20313034383537360a20207d2c0a202022686973746f6772616d73223a207b7d0a7d0a"),
        (
            Reply::TraceEvents {
                now_ns: 123_456_789,
                names: vec!["dpv.verdict".to_string(), "cp.round".to_string()],
                events: vec![event(1, 0), event(0, 1)],
            },
            "1000000000075bcd15000000020000000b6470762e766572646963740000000863702e726f756e64000000020001000003000200000000000003e800000000000001f4000000000000002a0003000000000007000000000000000b0000010003000200000000000003e800000000000001f4000000000000002a0003000000000007000000000000000b",
        ),
        (
            Reply::TraceEvents {
                now_ns: 0,
                names: vec![],
                events: vec![],
            },
            "1000000000000000000000000000000000",
        ),
        // The samples of the per-file truncation loops this suite replaced.
        (Reply::Rib(vec![(NodeId(4), vec![rib_route()])]), "030000000100000004000000010a00000008030002000100040000000003"),
        (
            Reply::TraceEvents {
                now_ns: 7,
                names: vec!["a".to_string()],
                events: vec![Event {
                    name: 0,
                    kind: 0,
                    lane: 1,
                    depth: 0,
                    ts_ns: 1,
                    dur_ns: 2,
                    arg: 3,
                    span: 4,
                    parent: 0,
                }],
            },
            "100000000000000007000000010000000161000000010000000001000000000000000000010000000000000002000000000000000300000000000000040000000000000000",
        ),
        // `Net` after the TCP fabric dropped `send_drops` and
        // `backpressure_stalls`; the 16-counter form is in
        // `retired_replies`.
        (
            Reply::Net {
                traffic: TrafficSnapshot {
                    messages: 1,
                    bytes: 2,
                    wire_errors: 3,
                    dup_skips: 4,
                    seq_gaps: 5,
                    stale_drops: 6,
                    injected_drops: 7,
                    injected_dups: 8,
                    injected_corruptions: 9,
                    injected_delays: 10,
                    reconnects: 11,
                    heartbeats: 12,
                    protocol_violations: 13,
                    scratch_reuses: 14,
                },
                in_flight: 3,
            },
            "0c000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e0000000000000003",
        ),
        // `ChangedDst` returning the patched rows (tag 17); the form
        // with changed prefixes alone (tag 15) is in `retired_replies`.
        (
            Reply::ChangedDst {
                dst: vec![(NodeId(2), vec![pfx("10.0.0.0/24")])],
                rows: vec![(NodeId(2), Arc::from([rib_route()]))],
            },
            "110000000100000002000000010a000000180000000100000002000000010a00000008030002000100040000000003",
        ),
        (
            Reply::ChangedDst {
                dst: vec![],
                rows: vec![],
            },
            "110000000000000000",
        ),
    ]
}

/// Every `AdminRequest` variant and, inside `ApplyDelta`, every
/// `DeltaSpec` variant.
pub fn requests() -> Vec<(AdminRequest, &'static str)> {
    vec![
        (AdminRequest::Status, "01"),
        (
            AdminRequest::ApplyDelta(DeltaSpec::LinkDown {
                a: "edge-0".into(),
                b: "agg-1".into(),
            }),
            "020100000006656467652d30000000056167672d31",
        ),
        (
            AdminRequest::ApplyDelta(DeltaSpec::LinkUp {
                a: "edge-0".into(),
                b: "agg-1".into(),
            }),
            "020200000006656467652d30000000056167672d31",
        ),
        (
            AdminRequest::ApplyDelta(DeltaSpec::RouteMapEdit {
                device: "core-0".into(),
                config: "hostname core-0\n".into(),
            }),
            "020300000006636f72652d3000000010686f73746e616d6520636f72652d300a",
        ),
        (
            AdminRequest::ApplyDelta(DeltaSpec::PrefixAdd {
                device: "edge-3".into(),
                prefix: pfx("10.99.0.0/16"),
            }),
            "020400000006656467652d330a63000010",
        ),
        (
            AdminRequest::ApplyDelta(DeltaSpec::PrefixWithdraw {
                device: "edge-1".into(),
                prefix: pfx("10.0.0.0/8"),
            }),
            "020500000006656467652d310a00000008",
        ),
        (AdminRequest::Shutdown, "03"),
        (AdminRequest::Metrics, "04"),
        (AdminRequest::Healthz, "05"),
    ]
}

/// Every `AdminResponse` variant; `Metrics` with all three worker-slot
/// shapes, `Healthz` with and without a checkpoint age.
pub fn responses() -> Vec<(AdminResponse, &'static str)> {
    vec![
        (
            AdminResponse::Committed {
                generation: 3,
                ms: 41.5,
                changed_nodes: 9,
                escalated: false,
                all_clear: true,
            },
            "0100000000000000034044c00000000000000000090001",
        ),
        (
            AdminResponse::Rejected {
                reason: "unknown device".into(),
                attempts: 2,
            },
            "020000000e756e6b6e6f776e2064657669636500000002",
        ),
        (
            AdminResponse::Status {
                generation: 1,
                failed_links: 0,
                all_clear: true,
                committed: 10,
                rejected: 1,
                warm_start: true,
                verdict_hash: 0xfeed_beef_cafe_f00d,
            },
            "0300000000000000010000000001000000000000000a000000000000000101feedbeefcafef00d",
        ),
        (AdminResponse::Error("nope".into()), "04000000046e6f7065"),
        (AdminResponse::ShuttingDown, "05"),
        (
            AdminResponse::Metrics {
                aggregate: snapshot(),
                workers: vec![
                    WorkerMetrics {
                        id: 0,
                        up: true,
                        stale: false,
                        snapshot: Some(snapshot()),
                    },
                    WorkerMetrics {
                        id: 1,
                        up: false,
                        stale: true,
                        snapshot: Some(MetricsSnapshot::default()),
                    },
                    WorkerMetrics {
                        id: 2,
                        up: false,
                        stale: false,
                        snapshot: None,
                    },
                ],
            },
            "06000000947b0a202022736368656d61223a202273322d6d6574726963732f7631222c0a202022636f756e74657273223a207b0a20202020226264642e756e697175652e68697473223a2034320a20207d2c0a202022676175676573223a207b0a20202020226d656d2e7065616b5f6279746573223a20313034383537360a20207d2c0a202022686973746f6772616d73223a207b7d0a7d0a0000000300000000010001000000947b0a202022736368656d61223a202273322d6d6574726963732f7631222c0a202022636f756e74657273223a207b0a20202020226264642e756e697175652e68697473223a2034320a20207d2c0a202022676175676573223a207b0a20202020226d656d2e7065616b5f6279746573223a20313034383537360a20207d2c0a202022686973746f6772616d73223a207b7d0a7d0a00000001000101000000567b0a202022736368656d61223a202273322d6d6574726963732f7631222c0a202022636f756e74657273223a207b7d2c0a202022676175676573223a207b7d2c0a202022686973746f6772616d73223a207b7d0a7d0a00000002000000",
        ),
        (
            AdminResponse::Healthz {
                ok: true,
                generation: 4,
                uptime_ms: 12_345,
                workers_up: 2,
                workers_total: 2,
                checkpoint_age_ms: Some(777),
            },
            "0701000000000000000400000000000030390000000200000002010000000000000309",
        ),
        (
            AdminResponse::Healthz {
                ok: false,
                generation: 0,
                uptime_ms: 1,
                workers_up: 0,
                workers_total: 2,
                checkpoint_age_ms: None,
            },
            "070000000000000000000000000000000001000000000000000200",
        ),
        (
            AdminResponse::Rejected {
                reason: "x".into(),
                attempts: 1,
            },
            "02000000017800000001",
        ),
    ]
}

/// One warm checkpoint and its *framed file image* (`magic + fnv64 +
/// len + payload`), exactly what `write_checkpoint` puts on disk:
/// version 3 (`S2CKPT03`), the journal of committed state — the
/// version-2 vector's checkpoint without its verdict summary.
pub fn checkpoint() -> (WarmCheckpoint, &'static str) {
    (
        WarmCheckpoint {
            snapshot_hash: 0xdead_beef_0042,
            generation: 7,
            failed_links: vec![(NodeId(1), NodeId(4))],
        },
        "5332434b505430336f8bb77d147b3010000000000000001c0000deadbeef00420000000000000007000000010000000100000004",
    )
}

/// Retired data-frame messages and the error each must be rejected
/// with: `Packet` (tag 3), one symbolic packet per frame with its BDD
/// inline, replaced by the tag-5 `PacketBatch`, fails on its tag (with
/// an ingress, then injected).
pub fn retired_messages() -> Vec<(&'static str, WireError)> {
    vec![
        ("030000000100000009000400030000000401020304", WireError::BadTag(3)),
        ("030000000100000009ffff000000000000", WireError::BadTag(3)),
    ]
}

/// Retired commands and the error each must be rejected with:
/// `MemReport` (tag 15), replaced by the `Metrics` barrier, fails on its
/// tag; `ScenarioBegin` with a `restore` flag (`false`, then `true`),
/// from before every begin restored, decodes as today's `ScenarioBegin`
/// with the flag's byte left over; `DpPatch` carrying the scenario RIB
/// and its changed nodes (tag 25), from before the workers patched
/// their own rows, fails on its tag; `DpCompile` (tag 27), from before
/// `DpPatch` compiled each overlay over its own region, fails on its
/// tag.
pub fn retired_commands() -> Vec<(&'static str, WireError)> {
    vec![
        ("0f", WireError::BadTag(15)),
        ("170000000200000004000100000009000000", WireError::BadValue("trailing bytes")),
        ("170000000001", WireError::BadValue("trailing bytes")),
        (
            "1900000002000000020a00000008030002000100040000000003c0a807012000000001000000000000000000000002000000010000000000000001000000010004",
            WireError::BadTag(25),
        ),
        ("1b", WireError::BadTag(27)),
    ]
}

/// Retired replies and the error each must be rejected with: `Mem`
/// (tag 9), the answer to `MemReport`, fails on its tag; `Net` with 16
/// traffic counters (before `send_drops` and `backpressure_stalls` were
/// dropped) decodes as today's `Net` with 16 bytes left over;
/// `ChangedDst` with changed prefixes alone (tag 15), the answer to the
/// retired `DpPatch`, fails on its tag.
pub fn retired_replies() -> Vec<(&'static str, WireError)> {
    vec![
        (
            "09000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f",
            WireError::BadTag(9),
        ),
        (
            "0c000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f00000000000000100000000000000003",
            WireError::BadValue("trailing bytes"),
        ),
        ("0f0000000200000002000000010a000000180000000500000000", WireError::BadTag(15)),
        ("0f0000000100000003000000010a01000010", WireError::BadTag(15)),
    ]
}

/// Retired checkpoint file images, each to be rejected as corrupt
/// ("bad magic"): version 1 (`S2CKPT01`), which also carried the
/// committed RIB (`rib()` above), and version 2 (`S2CKPT02`), which
/// also carried a verdict summary (reachable pairs 12, unreachable
/// `(0, 1)`, multipath violations at 5 and 6, one loop, two blackholes,
/// verdict sets `(0, Arrive, [1, 2, 3])` and `(1, Loop, [])`).
pub fn retired_checkpoints() -> Vec<&'static str> {
    vec![
        "5332434b505430312af207f39a72434b000000000000008f0000deadbeef0042000000000000000700000001000000010000000400000002000000020a00000008030002000100040000000003c0a8070120000000010000000000000000000000000000000c0000000100000000000000010000000200000005000000060000000000000001000000000000000200000002000000000000000003010203000000010300000000",
        "5332434b50543032d418851134999ae100000000000000650000deadbeef00420000000000000007000000010000000100000004000000000000000c0000000100000000000000010000000200000005000000060000000000000001000000000000000200000002000000000000000003010203000000010300000000",
    ]
}
