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
//! The module also owns the on-disk **warm checkpoint**, a journal of
//! the committed state a restart reads back (snapshot hash, generation,
//! failed links) as one [`Wire`] value (the workspace has no
//! serialization framework; the codec's field lists are the only way to
//! disk), wrapped in a `magic + fnv64 checksum + length` header and
//! written via write-temp-then-rename. A flipped byte or truncated file
//! is detected by checksum and surfaces as
//! [`CheckpointError::Corrupt`] — the daemon then falls back to a cold
//! start rather than loading garbage.
//!
//! Requests, responses and the checkpoint payload are built from the
//! crate's one codec ([`crate::codec`]; DESIGN.md § "Byte formats" has
//! the tag tables): a malformed peer or file yields an error — never a
//! panic. Framed exchange is [`crate::tcp::send`]/[`crate::tcp::recv`]
//! with the two envelope kinds below.

// r1: peer bytes reach this module, so nothing here may panic on them
// (DESIGN.md § "Static analysis"); tests are exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::codec::{wire_struct, Wire};
use crate::faults::FaultState;
use crate::wire::WireError;
use bytes::{BufMut, Bytes, BytesMut};
use s2_dataplane::FinalKind;
use s2_net::topology::NodeId;
use s2_net::Prefix;
use std::io::{self, Write};
use std::path::Path;

/// Envelope kind of an admin request (client → daemon).
pub const K_ADMIN_REQUEST: u8 = 0x10;
/// Envelope kind of an admin response (daemon → client).
pub const K_ADMIN_RESPONSE: u8 = 0x11;

/// Upper bound on an admin envelope. Route-map edits carry a device
/// config blob, so this is generous — but bounded, so a corrupt length
/// prefix cannot ask the receiver to allocate without limit.
pub const MAX_ADMIN_FRAME: usize = 8 << 20;

/// Magic bytes opening a warm-checkpoint file (versioned). A file of
/// another version fails with bad magic, and the daemon starts cold.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"S2CKPT03";

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

/// One worker's slot in a fleet metrics scrape: the exposition
/// renderer's own per-worker type, so a scrape response renders without
/// a copy.
pub use s2_obs::expo::WorkerSeries as WorkerMetrics;

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

// ---- request / response codecs ----

impl Wire for DeltaSpec {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            DeltaSpec::LinkDown { a, b } => {
                1u8.put(buf);
                a.put(buf);
                b.put(buf);
            }
            DeltaSpec::LinkUp { a, b } => {
                2u8.put(buf);
                a.put(buf);
                b.put(buf);
            }
            DeltaSpec::RouteMapEdit { device, config } => {
                3u8.put(buf);
                device.put(buf);
                config.put(buf);
            }
            DeltaSpec::PrefixAdd { device, prefix } => {
                4u8.put(buf);
                device.put(buf);
                prefix.put(buf);
            }
            DeltaSpec::PrefixWithdraw { device, prefix } => {
                5u8.put(buf);
                device.put(buf);
                prefix.put(buf);
            }
        }
    }

    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::take(buf)? {
            1 => DeltaSpec::LinkDown {
                a: Wire::take(buf)?,
                b: Wire::take(buf)?,
            },
            2 => DeltaSpec::LinkUp {
                a: Wire::take(buf)?,
                b: Wire::take(buf)?,
            },
            3 => DeltaSpec::RouteMapEdit {
                device: Wire::take(buf)?,
                config: Wire::take(buf)?,
            },
            4 => DeltaSpec::PrefixAdd {
                device: Wire::take(buf)?,
                prefix: Wire::take(buf)?,
            },
            5 => DeltaSpec::PrefixWithdraw {
                device: Wire::take(buf)?,
                prefix: Wire::take(buf)?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl Wire for AdminRequest {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            AdminRequest::Status => 1u8.put(buf),
            AdminRequest::ApplyDelta(delta) => {
                2u8.put(buf);
                delta.put(buf);
            }
            AdminRequest::Shutdown => 3u8.put(buf),
            AdminRequest::Metrics => 4u8.put(buf),
            AdminRequest::Healthz => 5u8.put(buf),
        }
    }

    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::take(buf)? {
            1 => AdminRequest::Status,
            2 => AdminRequest::ApplyDelta(Wire::take(buf)?),
            3 => AdminRequest::Shutdown,
            4 => AdminRequest::Metrics,
            5 => AdminRequest::Healthz,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

wire_struct!(WorkerMetrics {
    id,
    up,
    stale,
    snapshot,
});

impl Wire for AdminResponse {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            AdminResponse::Committed {
                generation,
                ms,
                changed_nodes,
                escalated,
                all_clear,
            } => {
                1u8.put(buf);
                generation.put(buf);
                ms.put(buf);
                changed_nodes.put(buf);
                escalated.put(buf);
                all_clear.put(buf);
            }
            AdminResponse::Rejected { reason, attempts } => {
                2u8.put(buf);
                reason.put(buf);
                attempts.put(buf);
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
                3u8.put(buf);
                generation.put(buf);
                failed_links.put(buf);
                all_clear.put(buf);
                committed.put(buf);
                rejected.put(buf);
                warm_start.put(buf);
                verdict_hash.put(buf);
            }
            AdminResponse::Error(msg) => {
                4u8.put(buf);
                msg.put(buf);
            }
            AdminResponse::ShuttingDown => 5u8.put(buf),
            AdminResponse::Metrics { aggregate, workers } => {
                6u8.put(buf);
                aggregate.put(buf);
                workers.put(buf);
            }
            AdminResponse::Healthz {
                ok,
                generation,
                uptime_ms,
                workers_up,
                workers_total,
                checkpoint_age_ms,
            } => {
                7u8.put(buf);
                ok.put(buf);
                generation.put(buf);
                uptime_ms.put(buf);
                workers_up.put(buf);
                workers_total.put(buf);
                checkpoint_age_ms.put(buf);
            }
        }
    }

    fn take(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match u8::take(buf)? {
            1 => {
                let generation = Wire::take(buf)?;
                let ms = f64::take(buf)?;
                // The latency is rendered into JSON and fed to SLO
                // windows: NaN, infinities and negatives stop here.
                if !ms.is_finite() || ms < 0.0 {
                    return Err(WireError::BadValue("committed ms"));
                }
                AdminResponse::Committed {
                    generation,
                    ms,
                    changed_nodes: Wire::take(buf)?,
                    escalated: Wire::take(buf)?,
                    all_clear: Wire::take(buf)?,
                }
            }
            2 => AdminResponse::Rejected {
                reason: Wire::take(buf)?,
                attempts: Wire::take(buf)?,
            },
            3 => AdminResponse::Status {
                generation: Wire::take(buf)?,
                failed_links: Wire::take(buf)?,
                all_clear: Wire::take(buf)?,
                committed: Wire::take(buf)?,
                rejected: Wire::take(buf)?,
                warm_start: Wire::take(buf)?,
                verdict_hash: Wire::take(buf)?,
            },
            4 => AdminResponse::Error(Wire::take(buf)?),
            5 => AdminResponse::ShuttingDown,
            6 => AdminResponse::Metrics {
                aggregate: Wire::take(buf)?,
                workers: Wire::take(buf)?,
            },
            7 => AdminResponse::Healthz {
                ok: Wire::take(buf)?,
                generation: Wire::take(buf)?,
                uptime_ms: Wire::take(buf)?,
                workers_up: Wire::take(buf)?,
                workers_total: Wire::take(buf)?,
                checkpoint_age_ms: Wire::take(buf)?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
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
            out.push_str(&s2_obs::expo::render(aggregate, workers));
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

/// A complete on-disk warm checkpoint: the journal of committed state.
/// A restart rebuilds the fleet from the snapshot with these links
/// failed in the model, which recomputes the RIB and the verdicts, so
/// neither is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmCheckpoint {
    /// Hash of the snapshot (topology + configs) this state belongs to;
    /// a restart against a different snapshot must go cold.
    pub snapshot_hash: u64,
    /// Committed generation at write time.
    pub generation: u64,
    /// Committed failed links, as model node pairs (sorted).
    pub failed_links: Vec<(NodeId, NodeId)>,
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
        kind.put(&mut buf);
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

wire_struct!(WarmCheckpoint {
    snapshot_hash,
    generation,
    failed_links,
});

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
    let mut file = frame_checkpoint(&ckpt.to_bytes());
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
    WarmCheckpoint::from_bytes(Bytes::from(payload))
        .map_err(|_| CheckpointError::Corrupt("payload decode"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use s2_net::Ipv4Addr;

    fn sample_checkpoint() -> WarmCheckpoint {
        WarmCheckpoint {
            snapshot_hash: 0xdead_beef_0042,
            generation: 7,
            failed_links: vec![(NodeId(1), NodeId(4))],
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
            assert_eq!(AdminRequest::from_bytes(req.to_bytes()), Ok(req.clone()));
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
            assert_eq!(AdminRequest::from_bytes(req.to_bytes()), Ok(req.clone()));
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
            let back = AdminResponse::from_bytes(resp.to_bytes()).unwrap();
            assert_eq!(back, resp);
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
            let back = AdminResponse::from_bytes(resp.to_bytes()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{resp:?}"));
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
        assert_eq!(
            AdminResponse::from_bytes(resp.to_bytes()),
            Err(WireError::BadValue("committed ms"))
        );
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
        let payload = ckpt.to_bytes();
        assert_eq!(WarmCheckpoint::from_bytes(payload.clone()), Ok(ckpt));
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
            let _ = unframe_checkpoint(&raw);
            let bytes = Bytes::from(raw);
            let _ = AdminRequest::from_bytes(bytes.clone());
            let _ = AdminResponse::from_bytes(bytes.clone());
            let _ = WarmCheckpoint::from_bytes(bytes);
        }

        /// Any single-byte flip anywhere in a framed checkpoint is
        /// detected: the load either fails, or (flips confined to the
        /// checksum-protected header being impossible to miss) never
        /// yields a *different* checkpoint than the original.
        #[test]
        fn prop_single_byte_flip_detected(pos in 0usize..4096, bit in 0u8..8) {
            let ckpt = sample_checkpoint();
            let mut file = frame_checkpoint(&ckpt.to_bytes());
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
            let file = frame_checkpoint(&ckpt.to_bytes());
            let cut = cut % file.len();
            proptest::prop_assert!(unframe_checkpoint(&file[..cut]).is_err());
        }
    }
}
