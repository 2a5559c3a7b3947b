//! Golden-vector suite: every byte format of `crates/runtime` is pinned
//! to hex vectors (see `golden/vectors.rs`) and asserted both ways —
//! `encode(value) == bytes` and `decode(bytes) == value`. Round-trip
//! tests pass for any self-consistent format; these only pass for
//! *this* one.
//!
//! The same vectors drive the one strictness rule of the codec: a
//! complete encoding followed by anything is an error, and every strict
//! prefix of one is `Truncated`.

#[path = "golden/vectors.rs"]
mod vectors;

use bytes::Bytes;
use s2_runtime::admin::{self, CheckpointError, WarmCheckpoint};
use s2_runtime::worker::{Command, Reply};
use s2_runtime::{wire, Wire, WireError};
use std::fmt::Debug;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// `bytes ++ [0]` never decodes, and every strict prefix is `Truncated`.
fn check_strict<T: Wire + Debug>(what: &str, bytes: &Bytes) {
    let mut padded = bytes.to_vec();
    padded.push(0);
    assert_eq!(
        T::from_bytes(Bytes::from(padded)).err(),
        Some(WireError::BadValue("trailing bytes")),
        "{what} + trailing byte"
    );
    for cut in 0..bytes.len() {
        assert_eq!(
            T::from_bytes(bytes.slice(..cut)).err(),
            Some(WireError::Truncated),
            "{what} cut at {cut}"
        );
    }
}

/// Asserts every `(value, hex)` pair both ways, then the strictness
/// rule on its bytes. Values are compared by their `Debug` rendering:
/// `Command`/`Reply` deliberately do not implement `PartialEq`.
fn check<T: Wire + Debug>(family: &str, vectors: Vec<(T, &'static str)>) {
    for (i, (value, want)) in vectors.iter().enumerate() {
        let what = format!("{family}[{i}]");
        assert_eq!(hex(&value.to_bytes()), *want, "{what} encode: {value:?}");
        let bytes = Bytes::from(unhex(want));
        let back = T::from_bytes(bytes.clone()).unwrap_or_else(|e| panic!("{what} decode: {e}"));
        assert_eq!(format!("{back:?}"), format!("{value:?}"), "{what} decode");
        check_strict::<T>(&what, &bytes);
    }
}

#[test]
fn data_frame_messages() {
    // The two free functions `benchmark/` calls are the trait methods.
    for (msg, want) in vectors::messages() {
        assert_eq!(hex(&wire::encode(&msg)), want);
        assert_eq!(wire::decode(Bytes::from(unhex(want))), Ok(msg));
    }
    check("message", vectors::messages());
}

#[test]
fn handshake() {
    check("register", vectors::registers());
    check("setup", vectors::setups());
}

#[test]
fn commands() {
    check("command", vectors::commands());
}

#[test]
fn replies() {
    check("reply", vectors::replies());
}

#[test]
fn admin_protocol() {
    check("request", vectors::requests());
    check("response", vectors::responses());
}

#[test]
fn checkpoint_file_image() {
    let (ckpt, want) = vectors::checkpoint();
    let payload = ckpt.to_bytes();
    assert_eq!(hex(&admin::frame_checkpoint(&payload)), want);
    let file = unhex(want);
    let unframed = admin::unframe_checkpoint(&file).expect("golden image unframes");
    assert_eq!(unframed, &payload[..]);
    assert_eq!(WarmCheckpoint::from_bytes(payload.clone()), Ok(ckpt));
    check_strict::<WarmCheckpoint>("checkpoint payload", &payload);

    // The file header guards the same two ways one layer out.
    let mut padded = file.clone();
    padded.push(0);
    assert!(matches!(
        admin::unframe_checkpoint(&padded),
        Err(CheckpointError::Corrupt("length mismatch"))
    ));
    for cut in 0..file.len() {
        assert!(
            admin::unframe_checkpoint(&file[..cut]).is_err(),
            "file cut at {cut}"
        );
    }
}

/// A retired variant's old bytes fail on its tag, a variant's form
/// before it lost fields on its trailing bytes, and a retired
/// checkpoint version on its magic: none decodes as anything else.
#[test]
fn retired_vectors_are_rejected() {
    for (want, err) in vectors::retired_messages() {
        let bytes = Bytes::from(unhex(want));
        assert_eq!(wire::decode(bytes).err(), Some(err), "message {want}");
    }
    for (want, err) in vectors::retired_commands() {
        let bytes = Bytes::from(unhex(want));
        assert_eq!(Command::from_bytes(bytes).err(), Some(err), "command {want}");
    }
    for (want, err) in vectors::retired_replies() {
        let bytes = Bytes::from(unhex(want));
        assert_eq!(Reply::from_bytes(bytes).err(), Some(err), "reply {want}");
    }
    for want in vectors::retired_checkpoints() {
        assert!(matches!(
            admin::unframe_checkpoint(&unhex(want)),
            Err(CheckpointError::Corrupt("bad magic"))
        ));
    }
}
