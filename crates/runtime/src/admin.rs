//! Admin protocol and warm-checkpoint codec for the incremental daemon.
//!
//! The daemon (`s2 daemon`, crates/s2/src/daemon.rs) listens on a TCP
//! admin socket and speaks two dialects over the same port:
//!
//! * **binary** — the `kind:u8 len:u32 payload` envelope of
//!   [`crate::tcp`], kinds [`K_ADMIN_REQUEST`]/[`K_ADMIN_RESPONSE`]. Used
//!   by `s2 admin` and CI.
//! * **text** — any first byte ≥ 0x20 starts a newline-terminated command
//!   (`status`, `link-down a b`, …) answered with one line of JSON, so
//!   `echo status | nc` works. [`parse_text_command`] and
//!   [`render_text_response`] implement it; the daemon only does the
//!   peek-and-dispatch.
//!
//! The module also owns the on-disk **warm checkpoint**: the converged
//! RIB snapshot plus the verdict summary, serialized with the same
//! hand-rolled bounds-checked codecs as [`crate::remote`] (the vendored
//! serde is a no-op stub, so nothing here can derive its way to disk),
//! wrapped in a `magic + fnv64 checksum + length` header and written via
//! write-temp-then-rename. A flipped byte or truncated file is detected
//! by checksum and surfaces as [`CheckpointError::Corrupt`] — the daemon
//! then falls back to a cold start rather than loading garbage.
//!
//! All decode paths are defensive in the [`crate::wire`] style: every
//! read bounds-checked, every tag validated, a malformed peer or file
//! yields an error — never a panic.

use crate::faults::FaultState;
use crate::tcp::{read_envelope, write_envelope};
use crate::wire::{
    cap, get_bool, get_final_kind, get_node_pairs, get_prefix, get_rib_snapshot, get_str, need,
    put_bool, put_final_kind, put_node_pairs, put_prefix, put_rib_snapshot, put_str, WireError,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use s2_dataplane::FinalKind;
use s2_net::topology::NodeId;
use s2_net::Prefix;
use s2_routing::RibSnapshot;
use std::io::{self, Read, Write};
use std::path::Path;

/// Envelope kind of an admin request (client → daemon).
pub const K_ADMIN_REQUEST: u8 = 0x10;
/// Envelope kind of an admin response (daemon → client).
pub const K_ADMIN_RESPONSE: u8 = 0x11;

/// Upper bound on an admin envelope. Route-map edits carry a device
/// config blob, so this is generous — but bounded, so a corrupt length
/// prefix cannot ask the receiver to allocate without limit.
pub const MAX_ADMIN_FRAME: usize = 8 << 20;

/// Magic bytes opening a warm-checkpoint file (versioned).
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"S2CKPT01";

// ---- message types ----

/// A configuration delta submitted to the daemon. Devices and link
/// endpoints are referenced by hostname; the daemon resolves them
/// against its model and rejects unknown names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaSpec {
    /// Fail the physical link between two nodes.
    LinkDown {
        /// One endpoint hostname.
        a: String,
        /// The other endpoint hostname.
        b: String,
    },
    /// Restore a previously failed link.
    LinkUp {
        /// One endpoint hostname.
        a: String,
        /// The other endpoint hostname.
        b: String,
    },
    /// Replace one device's configuration (route-map edit: the full
    /// updated config text for that device).
    RouteMapEdit {
        /// Hostname of the device being re-configured.
        device: String,
        /// The complete replacement config text.
        config: String,
    },
    /// Originate an extra BGP network on a device.
    PrefixAdd {
        /// Hostname of the originating device.
        device: String,
        /// The network to originate.
        prefix: Prefix,
    },
    /// Withdraw a BGP network from a device.
    PrefixWithdraw {
        /// Hostname of the originating device.
        device: String,
        /// The network to withdraw.
        prefix: Prefix,
    },
}

impl DeltaSpec {
    /// Short human label for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            DeltaSpec::LinkDown { .. } => "link-down",
            DeltaSpec::LinkUp { .. } => "link-up",
            DeltaSpec::RouteMapEdit { .. } => "route-map-edit",
            DeltaSpec::PrefixAdd { .. } => "prefix-add",
            DeltaSpec::PrefixWithdraw { .. } => "prefix-withdraw",
        }
    }
}

/// A request on the admin socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminRequest {
    /// Report daemon state.
    Status,
    /// Apply one delta, verify-then-commit.
    ApplyDelta(DeltaSpec),
    /// Scrape the telemetry plane: the controller-side aggregate plus
    /// per-worker snapshots and liveness. In the text dialect this is
    /// the `metrics` command, answered with a Prometheus
    /// text-exposition document instead of a JSON line.
    Metrics,
    /// Cheap liveness/readiness probe (`healthz` in text).
    Healthz,
    /// Checkpoint and exit.
    Shutdown,
}

/// One worker's slot in a fleet metrics scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerMetrics {
    /// Worker id (also the `worker="<id>"` exposition label).
    pub id: u32,
    /// Whether the worker answered this scrape.
    pub up: bool,
    /// Whether the snapshot is a cached one from an earlier scrape
    /// (the worker stopped answering but its last view is still
    /// served, flagged stale).
    pub stale: bool,
    /// The worker's snapshot; `None` when it never answered at all.
    pub snapshot: Option<s2_obs::MetricsSnapshot>,
}

/// A reply on the admin socket.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminResponse {
    /// The delta verified and was committed.
    Committed {
        /// Committed generation after the delta.
        generation: u64,
        /// Wall time of the whole apply, milliseconds.
        ms: f64,
        /// Nodes whose RIB changed (0 for an escalated full rebuild).
        changed_nodes: u32,
        /// Whether the delta escalated to a full re-verification.
        escalated: bool,
        /// Whether all verified properties hold after the delta.
        all_clear: bool,
    },
    /// The delta failed validation or exhausted its retries; warm state
    /// is unchanged.
    Rejected {
        /// Why the delta was refused.
        reason: String,
        /// Verification attempts consumed before giving up.
        attempts: u32,
    },
    /// Daemon status.
    Status {
        /// Committed generation.
        generation: u64,
        /// Currently failed links.
        failed_links: u32,
        /// Whether all verified properties hold.
        all_clear: bool,
        /// Deltas committed since start.
        committed: u64,
        /// Deltas rejected since start.
        rejected: u64,
        /// Whether this process resumed from a warm checkpoint.
        warm_start: bool,
        /// [`verdict_hash`] over the committed verdict BDDs. ROBDD
        /// serialization is canonical, so equal hashes mean equal
        /// verdicts — CI compares this against a cold `s2 verify` run.
        verdict_hash: u64,
    },
    /// Fleet metrics for the scrape endpoint.
    Metrics {
        /// The merged controller-side snapshot (worker answers +
        /// traffic counters + process-global registry).
        aggregate: s2_obs::MetricsSnapshot,
        /// Per-worker series with liveness/staleness flags.
        workers: Vec<WorkerMetrics>,
    },
    /// Liveness/readiness probe answer.
    Healthz {
        /// Overall health: the daemon is serving and every worker
        /// answered the last scrape.
        ok: bool,
        /// Committed generation.
        generation: u64,
        /// Milliseconds since the daemon opened.
        uptime_ms: u64,
        /// Workers that answered the most recent poll.
        workers_up: u32,
        /// Fleet size.
        workers_total: u32,
        /// Milliseconds since the last warm checkpoint was written
        /// (`None` before the first).
        checkpoint_age_ms: Option<u64>,
    },
    /// Request-level failure (parse error, unknown device, …).
    Error(String),
    /// Acknowledges a shutdown request.
    ShuttingDown,
}

// ---- field codecs (primitives live in crate::wire) ----

/// Decodes a JSON-encoded metrics snapshot field.
fn get_snapshot(buf: &mut Bytes) -> Result<s2_obs::MetricsSnapshot, WireError> {
    let json = get_str(buf)?;
    s2_obs::MetricsSnapshot::from_json(&json).map_err(|_| WireError::BadValue("metrics snapshot"))
}

// ---- request / response codecs ----

const T_REQ_STATUS: u8 = 1;
const T_REQ_DELTA: u8 = 2;
const T_REQ_SHUTDOWN: u8 = 3;
const T_REQ_METRICS: u8 = 4;
const T_REQ_HEALTHZ: u8 = 5;

const T_DELTA_LINK_DOWN: u8 = 1;
const T_DELTA_LINK_UP: u8 = 2;
const T_DELTA_ROUTE_MAP: u8 = 3;
const T_DELTA_PREFIX_ADD: u8 = 4;
const T_DELTA_PREFIX_WITHDRAW: u8 = 5;

const T_RESP_COMMITTED: u8 = 1;
const T_RESP_REJECTED: u8 = 2;
const T_RESP_STATUS: u8 = 3;
const T_RESP_ERROR: u8 = 4;
const T_RESP_SHUTTING_DOWN: u8 = 5;
const T_RESP_METRICS: u8 = 6;
const T_RESP_HEALTHZ: u8 = 7;

/// Serializes a request payload (without the envelope).
pub fn encode_request(req: &AdminRequest) -> Vec<u8> {
    let mut buf = BytesMut::new();
    match req {
        AdminRequest::Status => buf.put_u8(T_REQ_STATUS),
        AdminRequest::ApplyDelta(delta) => {
            buf.put_u8(T_REQ_DELTA);
            match delta {
                DeltaSpec::LinkDown { a, b } => {
                    buf.put_u8(T_DELTA_LINK_DOWN);
                    put_str(&mut buf, a);
                    put_str(&mut buf, b);
                }
                DeltaSpec::LinkUp { a, b } => {
                    buf.put_u8(T_DELTA_LINK_UP);
                    put_str(&mut buf, a);
                    put_str(&mut buf, b);
                }
                DeltaSpec::RouteMapEdit { device, config } => {
                    buf.put_u8(T_DELTA_ROUTE_MAP);
                    put_str(&mut buf, device);
                    put_str(&mut buf, config);
                }
                DeltaSpec::PrefixAdd { device, prefix } => {
                    buf.put_u8(T_DELTA_PREFIX_ADD);
                    put_str(&mut buf, device);
                    put_prefix(&mut buf, prefix);
                }
                DeltaSpec::PrefixWithdraw { device, prefix } => {
                    buf.put_u8(T_DELTA_PREFIX_WITHDRAW);
                    put_str(&mut buf, device);
                    put_prefix(&mut buf, prefix);
                }
            }
        }
        AdminRequest::Metrics => buf.put_u8(T_REQ_METRICS),
        AdminRequest::Healthz => buf.put_u8(T_REQ_HEALTHZ),
        AdminRequest::Shutdown => buf.put_u8(T_REQ_SHUTDOWN),
    }
    buf.to_vec()
}

/// Parses a request payload.
pub fn decode_request(payload: &[u8]) -> Result<AdminRequest, WireError> {
    let mut buf = Bytes::from(payload);
    need(&buf, 1)?;
    let req = match buf.get_u8() {
        T_REQ_STATUS => AdminRequest::Status,
        T_REQ_DELTA => {
            need(&buf, 1)?;
            let delta = match buf.get_u8() {
                T_DELTA_LINK_DOWN => DeltaSpec::LinkDown {
                    a: get_str(&mut buf)?,
                    b: get_str(&mut buf)?,
                },
                T_DELTA_LINK_UP => DeltaSpec::LinkUp {
                    a: get_str(&mut buf)?,
                    b: get_str(&mut buf)?,
                },
                T_DELTA_ROUTE_MAP => DeltaSpec::RouteMapEdit {
                    device: get_str(&mut buf)?,
                    config: get_str(&mut buf)?,
                },
                T_DELTA_PREFIX_ADD => DeltaSpec::PrefixAdd {
                    device: get_str(&mut buf)?,
                    prefix: get_prefix(&mut buf)?,
                },
                T_DELTA_PREFIX_WITHDRAW => DeltaSpec::PrefixWithdraw {
                    device: get_str(&mut buf)?,
                    prefix: get_prefix(&mut buf)?,
                },
                _ => return Err(WireError::BadValue("delta tag")),
            };
            AdminRequest::ApplyDelta(delta)
        }
        T_REQ_METRICS => AdminRequest::Metrics,
        T_REQ_HEALTHZ => AdminRequest::Healthz,
        T_REQ_SHUTDOWN => AdminRequest::Shutdown,
        _ => return Err(WireError::BadValue("admin request tag")),
    };
    if buf.remaining() > 0 {
        return Err(WireError::BadValue("trailing request bytes"));
    }
    Ok(req)
}

/// Serializes a response payload (without the envelope).
pub fn encode_response(resp: &AdminResponse) -> Vec<u8> {
    let mut buf = BytesMut::new();
    match resp {
        AdminResponse::Committed {
            generation,
            ms,
            changed_nodes,
            escalated,
            all_clear,
        } => {
            buf.put_u8(T_RESP_COMMITTED);
            buf.put_u64(*generation);
            buf.put_u64(ms.to_bits());
            buf.put_u32(*changed_nodes);
            put_bool(&mut buf, *escalated);
            put_bool(&mut buf, *all_clear);
        }
        AdminResponse::Rejected { reason, attempts } => {
            buf.put_u8(T_RESP_REJECTED);
            put_str(&mut buf, reason);
            buf.put_u32(*attempts);
        }
        AdminResponse::Status {
            generation,
            failed_links,
            all_clear,
            committed,
            rejected,
            warm_start,
            verdict_hash,
        } => {
            buf.put_u8(T_RESP_STATUS);
            buf.put_u64(*generation);
            buf.put_u32(*failed_links);
            put_bool(&mut buf, *all_clear);
            buf.put_u64(*committed);
            buf.put_u64(*rejected);
            put_bool(&mut buf, *warm_start);
            buf.put_u64(*verdict_hash);
        }
        // Snapshots cross as their canonical JSON encoding (BTreeMap
        // order — deterministic bytes), like `Reply::Metrics` on the
        // control channel.
        AdminResponse::Metrics { aggregate, workers } => {
            buf.put_u8(T_RESP_METRICS);
            put_str(&mut buf, &aggregate.to_json());
            buf.put_u32(workers.len() as u32);
            for w in workers {
                buf.put_u32(w.id);
                put_bool(&mut buf, w.up);
                put_bool(&mut buf, w.stale);
                match &w.snapshot {
                    Some(s) => {
                        buf.put_u8(1);
                        put_str(&mut buf, &s.to_json());
                    }
                    None => buf.put_u8(0),
                }
            }
        }
        AdminResponse::Healthz {
            ok,
            generation,
            uptime_ms,
            workers_up,
            workers_total,
            checkpoint_age_ms,
        } => {
            buf.put_u8(T_RESP_HEALTHZ);
            put_bool(&mut buf, *ok);
            buf.put_u64(*generation);
            buf.put_u64(*uptime_ms);
            buf.put_u32(*workers_up);
            buf.put_u32(*workers_total);
            match checkpoint_age_ms {
                Some(age) => {
                    buf.put_u8(1);
                    buf.put_u64(*age);
                }
                None => buf.put_u8(0),
            }
        }
        AdminResponse::Error(msg) => {
            buf.put_u8(T_RESP_ERROR);
            put_str(&mut buf, msg);
        }
        AdminResponse::ShuttingDown => buf.put_u8(T_RESP_SHUTTING_DOWN),
    }
    buf.to_vec()
}

/// Parses a response payload.
pub fn decode_response(payload: &[u8]) -> Result<AdminResponse, WireError> {
    let mut buf = Bytes::from(payload);
    need(&buf, 1)?;
    let resp = match buf.get_u8() {
        T_RESP_COMMITTED => {
            need(&buf, 8 + 8 + 4)?;
            let generation = buf.get_u64();
            let ms = f64::from_bits(buf.get_u64());
            let changed_nodes = buf.get_u32();
            if !ms.is_finite() || ms < 0.0 {
                return Err(WireError::BadValue("committed ms"));
            }
            AdminResponse::Committed {
                generation,
                ms,
                changed_nodes,
                escalated: get_bool(&mut buf)?,
                all_clear: get_bool(&mut buf)?,
            }
        }
        T_RESP_REJECTED => {
            let reason = get_str(&mut buf)?;
            need(&buf, 4)?;
            AdminResponse::Rejected {
                reason,
                attempts: buf.get_u32(),
            }
        }
        T_RESP_STATUS => {
            need(&buf, 8 + 4)?;
            let generation = buf.get_u64();
            let failed_links = buf.get_u32();
            let all_clear = get_bool(&mut buf)?;
            need(&buf, 16)?;
            let committed = buf.get_u64();
            let rejected = buf.get_u64();
            let warm_start = get_bool(&mut buf)?;
            need(&buf, 8)?;
            AdminResponse::Status {
                generation,
                failed_links,
                all_clear,
                committed,
                rejected,
                warm_start,
                verdict_hash: buf.get_u64(),
            }
        }
        T_RESP_METRICS => {
            let aggregate = get_snapshot(&mut buf)?;
            need(&buf, 4)?;
            let n = buf.get_u32() as usize;
            let mut workers = Vec::with_capacity(cap(n));
            for _ in 0..n {
                need(&buf, 4)?;
                let id = buf.get_u32();
                let up = get_bool(&mut buf)?;
                let stale = get_bool(&mut buf)?;
                need(&buf, 1)?;
                let snapshot = match buf.get_u8() {
                    0 => None,
                    1 => Some(get_snapshot(&mut buf)?),
                    _ => return Err(WireError::BadValue("option discriminant")),
                };
                workers.push(WorkerMetrics {
                    id,
                    up,
                    stale,
                    snapshot,
                });
            }
            AdminResponse::Metrics { aggregate, workers }
        }
        T_RESP_HEALTHZ => {
            let ok = get_bool(&mut buf)?;
            need(&buf, 8 + 8 + 4 + 4 + 1)?;
            let generation = buf.get_u64();
            let uptime_ms = buf.get_u64();
            let workers_up = buf.get_u32();
            let workers_total = buf.get_u32();
            let checkpoint_age_ms = match buf.get_u8() {
                0 => None,
                1 => {
                    need(&buf, 8)?;
                    Some(buf.get_u64())
                }
                _ => return Err(WireError::BadValue("option discriminant")),
            };
            AdminResponse::Healthz {
                ok,
                generation,
                uptime_ms,
                workers_up,
                workers_total,
                checkpoint_age_ms,
            }
        }
        T_RESP_ERROR => AdminResponse::Error(get_str(&mut buf)?),
        T_RESP_SHUTTING_DOWN => AdminResponse::ShuttingDown,
        _ => return Err(WireError::BadValue("admin response tag")),
    };
    if buf.remaining() > 0 {
        return Err(WireError::BadValue("trailing response bytes"));
    }
    Ok(resp)
}

fn wire_to_io(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("admin wire: {e}"))
}

/// Writes one framed request.
pub fn write_request(w: &mut impl Write, req: &AdminRequest) -> io::Result<()> {
    write_envelope(w, K_ADMIN_REQUEST, &encode_request(req))
}

/// Reads one framed request. `InvalidData` on a bad kind or payload.
pub fn read_request(r: &mut impl Read) -> io::Result<AdminRequest> {
    let (kind, payload) = read_envelope(r, MAX_ADMIN_FRAME)?;
    if kind != K_ADMIN_REQUEST {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected admin kind {kind}"),
        ));
    }
    decode_request(&payload).map_err(wire_to_io)
}

/// Writes one framed response.
pub fn write_response(w: &mut impl Write, resp: &AdminResponse) -> io::Result<()> {
    write_envelope(w, K_ADMIN_RESPONSE, &encode_response(resp))
}

/// Reads one framed response. `InvalidData` on a bad kind or payload.
pub fn read_response(r: &mut impl Read) -> io::Result<AdminResponse> {
    let (kind, payload) = read_envelope(r, MAX_ADMIN_FRAME)?;
    if kind != K_ADMIN_RESPONSE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected admin kind {kind}"),
        ));
    }
    decode_response(&payload).map_err(wire_to_io)
}

// ---- text dialect ----

/// Parses one text-mode admin line. Commands:
///
/// ```text
/// status
/// metrics
/// healthz
/// link-down <nodeA> <nodeB>
/// link-up <nodeA> <nodeB>
/// prefix-add <device> <a.b.c.d/len>
/// prefix-withdraw <device> <a.b.c.d/len>
/// shutdown
/// ```
///
/// Route-map edits carry a config blob and are binary/CLI-only.
pub fn parse_text_command(line: &str) -> Result<AdminRequest, String> {
    let mut words = line.split_whitespace();
    let cmd = words.next().ok_or_else(|| "empty command".to_string())?;
    let mut two = |what: &str| -> Result<(String, String), String> {
        let a = words
            .next()
            .ok_or_else(|| format!("{cmd}: missing {what}"))?
            .to_string();
        let b = words
            .next()
            .ok_or_else(|| format!("{cmd}: missing {what}"))?
            .to_string();
        Ok((a, b))
    };
    let req = match cmd {
        "status" => AdminRequest::Status,
        "metrics" => AdminRequest::Metrics,
        "healthz" => AdminRequest::Healthz,
        "shutdown" => AdminRequest::Shutdown,
        "link-down" => {
            let (a, b) = two("node name")?;
            AdminRequest::ApplyDelta(DeltaSpec::LinkDown { a, b })
        }
        "link-up" => {
            let (a, b) = two("node name")?;
            AdminRequest::ApplyDelta(DeltaSpec::LinkUp { a, b })
        }
        "prefix-add" | "prefix-withdraw" => {
            let (device, raw) = two("device / prefix")?;
            let prefix: Prefix = raw
                .parse()
                .map_err(|_| format!("{cmd}: bad prefix {raw:?}"))?;
            if cmd == "prefix-add" {
                AdminRequest::ApplyDelta(DeltaSpec::PrefixAdd { device, prefix })
            } else {
                AdminRequest::ApplyDelta(DeltaSpec::PrefixWithdraw { device, prefix })
            }
        }
        "route-map-edit" => {
            return Err("route-map-edit needs a config payload; use `s2 admin route-map-edit`".into())
        }
        other => return Err(format!("unknown command {other:?}")),
    };
    if words.next().is_some() {
        return Err(format!("{cmd}: trailing arguments"));
    }
    Ok(req)
}

/// Bridges an admin metrics response into the Prometheus exposition
/// renderer: per-worker slots become labeled series, liveness flags
/// become the `s2_worker_up` / `s2_worker_stale` gauges. This is the
/// document `echo metrics | nc <daemon>` returns.
pub fn render_exposition(
    aggregate: &s2_obs::MetricsSnapshot,
    workers: &[WorkerMetrics],
) -> String {
    let series: Vec<s2_obs::expo::WorkerSeries> = workers
        .iter()
        .map(|w| s2_obs::expo::WorkerSeries {
            id: w.id,
            up: w.up,
            stale: w.stale,
            snapshot: w.snapshot.clone(),
        })
        .collect();
    s2_obs::expo::render(aggregate, &series)
}

/// Renders a response as one line of JSON for the text dialect — with
/// one exception: a `Metrics` response renders as the (multi-line)
/// Prometheus exposition document, which is the whole point of the
/// text-mode `metrics` command.
pub fn render_text_response(resp: &AdminResponse) -> String {
    use s2_obs::json::{push_f64, push_str};
    use std::fmt::Write as _;
    let mut out = String::new();
    match resp {
        AdminResponse::Committed {
            generation,
            ms,
            changed_nodes,
            escalated,
            all_clear,
        } => {
            out.push_str("{\"ok\":true,\"result\":\"committed\",\"generation\":");
            out.push_str(&generation.to_string());
            out.push_str(",\"ms\":");
            push_f64(&mut out, *ms);
            out.push_str(",\"changed_nodes\":");
            out.push_str(&changed_nodes.to_string());
            out.push_str(",\"escalated\":");
            out.push_str(if *escalated { "true" } else { "false" });
            out.push_str(",\"all_clear\":");
            out.push_str(if *all_clear { "true" } else { "false" });
            out.push('}');
        }
        AdminResponse::Rejected { reason, attempts } => {
            out.push_str("{\"ok\":false,\"result\":\"rejected\",\"reason\":");
            push_str(&mut out, reason);
            out.push_str(",\"attempts\":");
            out.push_str(&attempts.to_string());
            out.push('}');
        }
        AdminResponse::Status {
            generation,
            failed_links,
            all_clear,
            committed,
            rejected,
            warm_start,
            verdict_hash,
        } => {
            out.push_str("{\"ok\":true,\"result\":\"status\",\"generation\":");
            out.push_str(&generation.to_string());
            out.push_str(",\"failed_links\":");
            out.push_str(&failed_links.to_string());
            out.push_str(",\"all_clear\":");
            out.push_str(if *all_clear { "true" } else { "false" });
            out.push_str(",\"committed\":");
            out.push_str(&committed.to_string());
            out.push_str(",\"rejected\":");
            out.push_str(&rejected.to_string());
            out.push_str(",\"warm_start\":");
            out.push_str(if *warm_start { "true" } else { "false" });
            // Hex string: u64 hashes overflow an f64-backed JSON number.
            let _ = write!(out, ",\"verdict_hash\":\"{verdict_hash:016x}\"");
            out.push('}');
        }
        AdminResponse::Metrics { aggregate, workers } => {
            out.push_str(&render_exposition(aggregate, workers));
        }
        AdminResponse::Healthz {
            ok,
            generation,
            uptime_ms,
            workers_up,
            workers_total,
            checkpoint_age_ms,
        } => {
            out.push_str("{\"ok\":");
            out.push_str(if *ok { "true" } else { "false" });
            out.push_str(",\"result\":\"healthz\",\"generation\":");
            out.push_str(&generation.to_string());
            out.push_str(",\"uptime_ms\":");
            out.push_str(&uptime_ms.to_string());
            out.push_str(",\"workers_up\":");
            out.push_str(&workers_up.to_string());
            out.push_str(",\"workers_total\":");
            out.push_str(&workers_total.to_string());
            out.push_str(",\"checkpoint_age_ms\":");
            match checkpoint_age_ms {
                Some(age) => out.push_str(&age.to_string()),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        AdminResponse::Error(msg) => {
            out.push_str("{\"ok\":false,\"result\":\"error\",\"reason\":");
            push_str(&mut out, msg);
            out.push('}');
        }
        AdminResponse::ShuttingDown => {
            out.push_str("{\"ok\":true,\"result\":\"shutting-down\"}");
        }
    }
    out
}

// ---- warm checkpoint ----

/// The verdict summary persisted alongside the RIB snapshot: everything
/// the daemon needs to answer status/queries and to prove byte-identity
/// against a cold oracle after a restart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictSummary {
    /// `(src, dst)` pairs whose expected prefixes fully arrived.
    pub reachable_pairs: u64,
    /// Pairs with missing reachability.
    pub unreachable_pairs: Vec<(NodeId, NodeId)>,
    /// Sources with multipath-consistency violations.
    pub multipath_violations: Vec<NodeId>,
    /// Loop finals observed.
    pub loops: u64,
    /// Blackhole finals observed.
    pub blackholes: u64,
    /// Serialized per-(source, kind) verdict BDDs, sorted. ROBDD
    /// serialization is canonical across managers, so byte equality
    /// here is semantic equality.
    pub verdict_sets: Vec<(NodeId, FinalKind, Vec<u8>)>,
}

/// A complete on-disk warm checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmCheckpoint {
    /// Hash of the snapshot (topology + configs) this state belongs to;
    /// a restart against a different snapshot must go cold.
    pub snapshot_hash: u64,
    /// Committed generation at write time.
    pub generation: u64,
    /// Committed failed links, as model node pairs (sorted).
    pub failed_links: Vec<(NodeId, NodeId)>,
    /// The converged RIB of the committed state.
    pub rib: RibSnapshot,
    /// The committed verdicts.
    pub verdict: VerdictSummary,
}

/// Why a checkpoint failed to load.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read (missing counts here too).
    Io(io::Error),
    /// The file was read but is not a valid checkpoint: bad magic,
    /// checksum mismatch, or malformed payload.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Canonical hash of a verdict-set collection: FNV-1a over each
/// `(node, kind, len, bytes)` record in order. Callers sort the sets by
/// `(node, kind)` first (the daemon and `s2 verify --verdict-hash` both
/// emit them sorted), so two runs agree iff their verdict BDDs agree.
pub fn verdict_hash(sets: &[(NodeId, FinalKind, Vec<u8>)]) -> u64 {
    let mut buf = BytesMut::new();
    buf.put_u64(sets.len() as u64);
    for (node, kind, bytes) in sets {
        buf.put_u32(node.0);
        put_final_kind(&mut buf, *kind);
        buf.put_u64(bytes.len() as u64);
        buf.put_slice(bytes);
    }
    fnv1a64(&buf)
}

/// FNV-1a 64-bit — the checkpoint (and snapshot) content hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes a checkpoint payload (header not included).
pub fn encode_checkpoint(ckpt: &WarmCheckpoint) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u64(ckpt.snapshot_hash);
    buf.put_u64(ckpt.generation);
    put_node_pairs(&mut buf, &ckpt.failed_links);
    put_rib_snapshot(&mut buf, &ckpt.rib);
    let v = &ckpt.verdict;
    buf.put_u64(v.reachable_pairs);
    put_node_pairs(&mut buf, &v.unreachable_pairs);
    buf.put_u32(v.multipath_violations.len() as u32);
    for n in &v.multipath_violations {
        buf.put_u32(n.0);
    }
    buf.put_u64(v.loops);
    buf.put_u64(v.blackholes);
    buf.put_u32(v.verdict_sets.len() as u32);
    for (node, kind, bytes) in &v.verdict_sets {
        buf.put_u32(node.0);
        put_final_kind(&mut buf, *kind);
        buf.put_u32(bytes.len() as u32);
        buf.put_slice(bytes);
    }
    buf.to_vec()
}

/// Parses a checkpoint payload.
pub fn decode_checkpoint(payload: &[u8]) -> Result<WarmCheckpoint, WireError> {
    let mut buf = Bytes::from(payload);
    need(&buf, 16)?;
    let snapshot_hash = buf.get_u64();
    let generation = buf.get_u64();
    let failed_links = get_node_pairs(&mut buf)?;
    let rib = get_rib_snapshot(&mut buf)?;
    need(&buf, 8)?;
    let reachable_pairs = buf.get_u64();
    let unreachable_pairs = get_node_pairs(&mut buf)?;
    need(&buf, 4)?;
    let n = buf.get_u32() as usize;
    need(&buf, n * 4)?;
    let multipath_violations = (0..n).map(|_| NodeId(buf.get_u32())).collect();
    need(&buf, 16 + 4)?;
    let loops = buf.get_u64();
    let blackholes = buf.get_u64();
    let n = buf.get_u32() as usize;
    let mut verdict_sets = Vec::with_capacity(cap(n));
    for _ in 0..n {
        need(&buf, 4)?;
        let node = NodeId(buf.get_u32());
        let kind = get_final_kind(&mut buf)?;
        need(&buf, 4)?;
        let len = buf.get_u32() as usize;
        need(&buf, len)?;
        verdict_sets.push((node, kind, buf.copy_to_bytes(len).to_vec()));
    }
    if buf.remaining() > 0 {
        return Err(WireError::BadValue("trailing checkpoint bytes"));
    }
    Ok(WarmCheckpoint {
        snapshot_hash,
        generation,
        failed_links,
        rib,
        verdict: VerdictSummary {
            reachable_pairs,
            unreachable_pairs,
            multipath_violations,
            loops,
            blackholes,
            verdict_sets,
        },
    })
}

/// Frames a checkpoint payload into the on-disk file image:
/// `magic(8) checksum(8) len(8) payload`.
pub fn frame_checkpoint(payload: &[u8]) -> Vec<u8> {
    let mut file = Vec::with_capacity(24 + payload.len());
    file.extend_from_slice(&CHECKPOINT_MAGIC);
    file.extend_from_slice(&fnv1a64(payload).to_be_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    file.extend_from_slice(payload);
    file
}

/// Reads the big-endian u64 header field starting at `at`.
fn header_u64(file: &[u8], at: usize) -> Option<u64> {
    let bytes: [u8; 8] = file.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_be_bytes(bytes))
}

/// Validates a file image and returns the payload slice.
pub fn unframe_checkpoint(file: &[u8]) -> Result<&[u8], CheckpointError> {
    let truncated = || CheckpointError::Corrupt("truncated header");
    let magic = file.get(..8).ok_or_else(truncated)?;
    if magic != CHECKPOINT_MAGIC.as_slice() {
        return Err(CheckpointError::Corrupt("bad magic"));
    }
    let checksum = header_u64(file, 8).ok_or_else(truncated)?;
    let len = header_u64(file, 16).ok_or_else(truncated)? as usize;
    let payload = file
        .get(24..)
        .filter(|p| p.len() == len)
        .ok_or(CheckpointError::Corrupt("length mismatch"))?;
    if fnv1a64(payload) != checksum {
        return Err(CheckpointError::Corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// Writes a checkpoint atomically: encode, frame, write `<path>.tmp`,
/// fsync, rename over `path`. A [`FaultPlan::corrupt_checkpoint`]
/// trigger flips a payload byte *after* the checksum is computed, so the
/// next load must detect it.
///
/// [`FaultPlan::corrupt_checkpoint`]: crate::faults::FaultPlan::corrupt_checkpoint
pub fn write_checkpoint(
    path: &Path,
    ckpt: &WarmCheckpoint,
    faults: &FaultState,
) -> io::Result<()> {
    let payload = encode_checkpoint(ckpt);
    let mut file = frame_checkpoint(&payload);
    let idx = faults.next_checkpoint_index();
    if faults.corrupts_checkpoint(idx) {
        if let Some(b) = file.last_mut() {
            *b ^= 0xff;
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&file)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Loads and validates a checkpoint. Every corruption mode — bad magic,
/// flipped byte, truncation, malformed payload — comes back as
/// [`CheckpointError::Corrupt`]; a missing file is `Io`.
pub fn load_checkpoint(path: &Path) -> Result<WarmCheckpoint, CheckpointError> {
    let file = std::fs::read(path)?;
    let payload = unframe_checkpoint(&file)?;
    decode_checkpoint(payload).map_err(|_| CheckpointError::Corrupt("payload decode"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use s2_net::policy::Protocol;
    use s2_net::topology::InterfaceId;
    use s2_net::Ipv4Addr;
    use s2_routing::RibRoute;

    fn sample_checkpoint() -> WarmCheckpoint {
        WarmCheckpoint {
            snapshot_hash: 0xdead_beef_0042,
            generation: 7,
            failed_links: vec![(NodeId(1), NodeId(4))],
            rib: RibSnapshot {
                per_node: vec![
                    vec![RibRoute {
                        prefix: Prefix::new(Ipv4Addr(0x0a000000), 24),
                        protocol: Protocol::Bgp,
                        egress: vec![InterfaceId(2), InterfaceId(3)],
                        is_local: false,
                        as_path_len: 3,
                    }],
                    vec![],
                ],
            },
            verdict: VerdictSummary {
                reachable_pairs: 12,
                unreachable_pairs: vec![(NodeId(0), NodeId(1))],
                multipath_violations: vec![NodeId(5)],
                loops: 1,
                blackholes: 2,
                verdict_sets: vec![
                    (NodeId(0), FinalKind::Arrive, vec![1, 2, 3]),
                    (NodeId(1), FinalKind::Loop, vec![]),
                ],
            },
        }
    }

    #[test]
    fn request_roundtrip() {
        let reqs = [
            AdminRequest::Status,
            AdminRequest::Shutdown,
            AdminRequest::ApplyDelta(DeltaSpec::LinkDown {
                a: "edge-0".into(),
                b: "agg-1".into(),
            }),
            AdminRequest::ApplyDelta(DeltaSpec::RouteMapEdit {
                device: "core-0".into(),
                config: "hostname core-0\n".into(),
            }),
            AdminRequest::ApplyDelta(DeltaSpec::PrefixAdd {
                device: "edge-3".into(),
                prefix: Prefix::new(Ipv4Addr(0x0a630000), 16),
            }),
        ];
        for req in reqs {
            assert_eq!(decode_request(&encode_request(&req)), Ok(req.clone()));
        }
    }

    fn sample_metrics_response() -> AdminResponse {
        let mut aggregate = s2_obs::MetricsSnapshot::default();
        aggregate.counter("daemon.delta.committed", 3);
        aggregate.gauge_max("mem.peak_bytes", 1 << 20);
        let mut w0 = s2_obs::MetricsSnapshot::default();
        w0.counter("dpv.scoped.runs", 2);
        AdminResponse::Metrics {
            aggregate,
            workers: vec![
                WorkerMetrics {
                    id: 0,
                    up: true,
                    stale: false,
                    snapshot: Some(w0),
                },
                WorkerMetrics {
                    id: 1,
                    up: false,
                    stale: true,
                    snapshot: Some(s2_obs::MetricsSnapshot::default()),
                },
                WorkerMetrics {
                    id: 2,
                    up: false,
                    stale: false,
                    snapshot: None,
                },
            ],
        }
    }

    #[test]
    fn metrics_and_healthz_roundtrip() {
        for req in [AdminRequest::Metrics, AdminRequest::Healthz] {
            assert_eq!(decode_request(&encode_request(&req)), Ok(req.clone()));
        }
        let resps = [
            sample_metrics_response(),
            AdminResponse::Healthz {
                ok: true,
                generation: 4,
                uptime_ms: 12_345,
                workers_up: 2,
                workers_total: 2,
                checkpoint_age_ms: Some(777),
            },
            AdminResponse::Healthz {
                ok: false,
                generation: 0,
                uptime_ms: 1,
                workers_up: 0,
                workers_total: 2,
                checkpoint_age_ms: None,
            },
        ];
        for resp in resps {
            let back = decode_response(&encode_response(&resp)).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn metrics_response_truncations_error() {
        let full = encode_response(&sample_metrics_response());
        for cut in 0..full.len() {
            assert!(decode_response(&full[..cut]).is_err());
        }
    }

    /// The text-mode `metrics` answer is a valid Prometheus exposition
    /// document carrying both aggregate and per-worker series; the
    /// `healthz` answer stays a single JSON line.
    #[test]
    fn metrics_text_answer_is_valid_exposition() {
        let resp = sample_metrics_response();
        let doc = render_text_response(&resp);
        let stats = s2_obs::expo::validate(&doc).expect("exposition validates");
        assert!(stats.families.contains_key("s2_daemon_delta_committed"));
        assert!(doc.contains("s2_dpv_scoped_runs{worker=\"0\"} 2"));
        assert!(doc.contains("s2_worker_up{worker=\"2\"} 0"));
        assert!(doc.contains("s2_worker_stale{worker=\"1\"} 1"));

        let line = render_text_response(&AdminResponse::Healthz {
            ok: true,
            generation: 2,
            uptime_ms: 99,
            workers_up: 2,
            workers_total: 2,
            checkpoint_age_ms: None,
        });
        assert!(!line.contains('\n'));
        assert!(s2_obs::parse_json(&line).is_ok(), "not JSON: {line}");
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            AdminResponse::Committed {
                generation: 3,
                ms: 41.5,
                changed_nodes: 9,
                escalated: false,
                all_clear: true,
            },
            AdminResponse::Rejected {
                reason: "unknown device".into(),
                attempts: 2,
            },
            AdminResponse::Status {
                generation: 1,
                failed_links: 0,
                all_clear: true,
                committed: 10,
                rejected: 1,
                warm_start: true,
                verdict_hash: 0xfeed_beef_cafe_f00d,
            },
            AdminResponse::Error("nope".into()),
            AdminResponse::ShuttingDown,
        ];
        for resp in resps {
            let back = decode_response(&encode_response(&resp)).unwrap();
            assert_eq!(format!("{back:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn truncated_encodings_error() {
        let req = AdminRequest::ApplyDelta(DeltaSpec::PrefixWithdraw {
            device: "edge-1".into(),
            prefix: Prefix::new(Ipv4Addr(0x0a000000), 8),
        });
        let full = encode_request(&req);
        for cut in 0..full.len() {
            assert!(
                decode_request(&full[..cut]).is_err(),
                "prefix of len {cut} must not decode"
            );
        }
        let resp = AdminResponse::Rejected {
            reason: "x".into(),
            attempts: 1,
        };
        let full = encode_response(&resp);
        for cut in 0..full.len() {
            assert!(decode_response(&full[..cut]).is_err());
        }
    }

    #[test]
    fn non_finite_latency_rejected() {
        let resp = AdminResponse::Committed {
            generation: 1,
            ms: f64::NAN,
            changed_nodes: 0,
            escalated: false,
            all_clear: true,
        };
        assert!(decode_response(&encode_response(&resp)).is_err());
    }

    #[test]
    fn text_commands_parse() {
        assert_eq!(parse_text_command("status"), Ok(AdminRequest::Status));
        assert_eq!(parse_text_command("metrics"), Ok(AdminRequest::Metrics));
        assert_eq!(parse_text_command(" healthz "), Ok(AdminRequest::Healthz));
        assert!(parse_text_command("metrics extra").is_err());
        assert_eq!(
            parse_text_command("  link-down edge-0 agg-1 "),
            Ok(AdminRequest::ApplyDelta(DeltaSpec::LinkDown {
                a: "edge-0".into(),
                b: "agg-1".into()
            }))
        );
        assert_eq!(
            parse_text_command("prefix-add edge-0 10.99.0.0/16"),
            Ok(AdminRequest::ApplyDelta(DeltaSpec::PrefixAdd {
                device: "edge-0".into(),
                prefix: Prefix::new(Ipv4Addr(0x0a630000), 16),
            }))
        );
        assert!(parse_text_command("link-down edge-0").is_err());
        assert!(parse_text_command("prefix-add edge-0 10.0.0.0/40").is_err());
        assert!(parse_text_command("frobnicate").is_err());
        assert!(parse_text_command("status extra").is_err());
        assert!(parse_text_command("").is_err());
    }

    #[test]
    fn text_responses_are_valid_json() {
        let resps = [
            AdminResponse::Committed {
                generation: 2,
                ms: 10.0,
                changed_nodes: 4,
                escalated: true,
                all_clear: false,
            },
            AdminResponse::Error("bad \"quote\"".into()),
            AdminResponse::ShuttingDown,
        ];
        for resp in resps {
            let line = render_text_response(&resp);
            assert!(
                s2_obs::parse_json(&line).is_ok(),
                "not JSON: {line}"
            );
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let ckpt = sample_checkpoint();
        let payload = encode_checkpoint(&ckpt);
        assert_eq!(decode_checkpoint(&payload), Ok(ckpt.clone()));
        let file = frame_checkpoint(&payload);
        assert_eq!(unframe_checkpoint(&file).unwrap(), &payload[..]);
    }

    #[test]
    fn checkpoint_file_roundtrip_and_corruption_fault() {
        let dir = std::env::temp_dir().join(format!("s2-admin-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.ckpt");
        let ckpt = sample_checkpoint();

        let clean = FaultState::new(FaultPlan::new());
        write_checkpoint(&path, &ckpt, &clean).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap(), ckpt);

        // The second write is corrupted by the plan; the first is not.
        let faulty = FaultState::new(FaultPlan::new().corrupt_checkpoint(1));
        write_checkpoint(&path, &ckpt, &faulty).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap(), ckpt);
        write_checkpoint(&path, &ckpt, &faulty).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Corrupt("checksum mismatch"))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_is_io_not_corrupt() {
        let err = load_checkpoint(Path::new("/nonexistent/s2/warm.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    proptest::proptest! {
        /// Arbitrary bytes never panic any admin decoder and never
        /// "succeed" at being a checkpoint (a random 24+ byte file has a
        /// 2^-64 checksum collision chance — treat as impossible).
        #[test]
        fn prop_arbitrary_admin_bytes_never_panic(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let _ = decode_request(&raw);
            let _ = decode_response(&raw);
            let _ = decode_checkpoint(&raw);
            let _ = unframe_checkpoint(&raw);
        }

        /// Any single-byte flip anywhere in a framed checkpoint is
        /// detected: the load either fails, or (flips confined to the
        /// checksum-protected header being impossible to miss) never
        /// yields a *different* checkpoint than the original.
        #[test]
        fn prop_single_byte_flip_detected(pos in 0usize..4096, bit in 0u8..8) {
            let ckpt = sample_checkpoint();
            let mut file = frame_checkpoint(&encode_checkpoint(&ckpt));
            let pos = pos % file.len();
            file[pos] ^= 1 << bit;
            match unframe_checkpoint(&file) {
                Err(_) => {}
                Ok(payload) => {
                    // Flip must have been... nowhere: any flip changes
                    // magic, checksum, length, or payload, all covered.
                    proptest::prop_assert!(false, "flip at {pos} undetected: {payload:?}");
                }
            }
        }

        /// Truncating a framed checkpoint at any point is detected.
        #[test]
        fn prop_truncation_detected(cut in 0usize..4096) {
            let ckpt = sample_checkpoint();
            let file = frame_checkpoint(&encode_checkpoint(&ckpt));
            let cut = cut % file.len();
            proptest::prop_assert!(unframe_checkpoint(&file[..cut]).is_err());
        }
    }
}
