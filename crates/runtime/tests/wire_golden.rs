//! Golden-vector suite: every byte format of `crates/runtime` is pinned
//! to hex vectors (see `golden/vectors.rs`) and asserted both ways —
//! `encode(value) == bytes` and `decode(bytes) == value`. Round-trip
//! tests pass for any self-consistent format; these only pass for
//! *this* one.

#[path = "golden/vectors.rs"]
mod vectors;

use bytes::Bytes;
use s2_runtime::wire::WireError;
use s2_runtime::{admin, remote, wire};
use std::fmt::Debug;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len() % 2 == 0, "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Asserts every `(value, hex)` pair both ways. Values are compared by
/// their `Debug` rendering: `Command`/`Reply` deliberately do not
/// implement `PartialEq`.
fn check<T: Debug>(
    family: &str,
    vectors: Vec<(T, &'static str)>,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
) {
    for (i, (value, want)) in vectors.iter().enumerate() {
        assert_eq!(hex(&encode(value)), *want, "{family}[{i}] encode: {value:?}");
        let back = decode(&unhex(want)).unwrap_or_else(|e| panic!("{family}[{i}] decode: {e}"));
        assert_eq!(format!("{back:?}"), format!("{value:?}"), "{family}[{i}] decode");
    }
}

#[test]
fn data_frame_messages() {
    check(
        "message",
        vectors::messages(),
        |m| wire::encode(m).to_vec(),
        |b| wire::decode(Bytes::from(b)),
    );
}

#[test]
fn handshake() {
    check(
        "register",
        vectors::registers(),
        |r| remote::encode_register(r).to_vec(),
        |b| remote::decode_register(Bytes::from(b)),
    );
    check(
        "setup",
        vectors::setups(),
        |s| remote::encode_setup(s).to_vec(),
        |b| remote::decode_setup(Bytes::from(b)),
    );
}

#[test]
fn commands() {
    check(
        "command",
        vectors::commands(),
        |c| remote::encode_command(c).to_vec(),
        |b| remote::decode_command(Bytes::from(b)),
    );
}

#[test]
fn replies() {
    check(
        "reply",
        vectors::replies(),
        |r| remote::encode_reply(r).to_vec(),
        |b| remote::decode_reply(Bytes::from(b)),
    );
}

#[test]
fn admin_protocol() {
    check("request", vectors::requests(), admin::encode_request, admin::decode_request);
    check("response", vectors::responses(), admin::encode_response, admin::decode_response);
}

#[test]
fn checkpoint_file_image() {
    let (ckpt, want) = vectors::checkpoint();
    let file = admin::frame_checkpoint(&admin::encode_checkpoint(&ckpt));
    assert_eq!(hex(&file), want);
    let file = unhex(want);
    let payload = admin::unframe_checkpoint(&file).expect("golden image unframes");
    assert_eq!(admin::decode_checkpoint(payload), Ok(ckpt));
}
