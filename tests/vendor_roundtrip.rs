//! Vendor front-end integration: emit → parse round-trips for whole
//! generated networks, cross-dialect conversion, and the semantic
//! vendor-specific behaviours surviving the text round-trip.

use proptest::prelude::*;
use s2_net::config::{DeviceConfig, Vendor};
use s2_net::vendor;
use s2_topogen::dcn::{generate as gen_dcn, DcnParams};
use s2_topogen::fattree::{generate as gen_ft, FatTreeParams};

#[test]
fn fattree_configs_roundtrip() {
    let ft = gen_ft(FatTreeParams::new(6));
    for cfg in &ft.configs {
        let text = vendor::emit(cfg);
        let parsed = vendor::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", cfg.hostname));
        assert_eq!(&parsed, cfg, "{} did not roundtrip", cfg.hostname);
    }
}

#[test]
fn dcn_configs_roundtrip_both_dialects() {
    let dcn = gen_dcn(DcnParams::small());
    let mut dialects_seen = std::collections::BTreeSet::new();
    for cfg in &dcn.configs {
        dialects_seen.insert(cfg.vendor);
        let text = vendor::emit(cfg);
        let parsed = vendor::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", cfg.hostname));
        assert_eq!(&parsed, cfg, "{} did not roundtrip", cfg.hostname);
    }
    assert_eq!(dialects_seen.len(), 2, "the DCN must exercise both dialects");
}

#[test]
fn cross_dialect_conversion_preserves_semantics() {
    // Re-emit a vendor-A config as vendor B (and back): the model content
    // must be identical up to the vendor tag.
    let dcn = gen_dcn(DcnParams::small());
    for cfg in dcn.configs.iter().take(8) {
        let mut as_b: DeviceConfig = cfg.clone();
        as_b.vendor = Vendor::B;
        let text_b = vendor::emit(&as_b);
        let parsed_b = vendor::parse(&text_b).unwrap();
        assert_eq!(parsed_b, as_b, "{} B-dialect roundtrip", cfg.hostname);

        let mut back_to_a = parsed_b;
        back_to_a.vendor = Vendor::A;
        let text_a = vendor::emit(&back_to_a);
        let parsed_a = vendor::parse(&text_a).unwrap();
        assert_eq!(parsed_a, back_to_a, "{} A-dialect roundtrip", cfg.hostname);
    }
}

#[test]
fn parse_rejects_mixed_garbage_gracefully() {
    for bad in [
        "",
        "hostname\n",
        "host-name x\n", // missing semicolon
        "hostname x\n interface eth0\n", // indented section header
        "hostname x\nrouter bgp notanumber\n",
        "host-name x;\nprotocols { bgp { autonomous-system 1; }\n", // unbalanced
    ] {
        assert!(vendor::parse(bad).is_err(), "{bad:?} should not parse");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary valid-ish configs roundtrip in both dialects: fuzz the
    /// numeric fields of a template config.
    #[test]
    fn prop_numeric_fields_roundtrip(
        asn in 1u32..4_000_000_000,
        ecmp in 1u8..=64,
        lp in 0u32..1000,
        addr in any::<u32>(),
        len in 8u8..=31,
        vendor_b in any::<bool>(),
    ) {
        use s2_net::config::{BgpProcess, InterfaceConfig, Network};
        use s2_net::policy::{PolicyAction, RouteMap, RouteMapClause, RouteMapDisposition};
        use s2_net::{Ipv4Addr, Prefix};

        let vendor = if vendor_b { Vendor::B } else { Vendor::A };
        let mut cfg = DeviceConfig::new("fuzz", vendor);
        cfg.interfaces.push(InterfaceConfig::new("eth0", Ipv4Addr(addr), len));
        let mut bgp = BgpProcess::new(asn, Ipv4Addr::new(9, 9, 9, 9));
        bgp.max_ecmp = ecmp;
        bgp.networks.push(Network { prefix: Prefix::new(Ipv4Addr(addr), len) });
        cfg.bgp = Some(bgp);
        let mut rm = RouteMap::default();
        rm.push_clause(RouteMapClause {
            seq: 10,
            disposition: RouteMapDisposition::Permit,
            matches: vec![],
            actions: vec![PolicyAction::SetLocalPref(lp)],
        });
        cfg.route_maps.insert("RM".into(), rm);

        let text = vendor::emit(&cfg);
        let parsed = vendor::parse(&text).unwrap();
        prop_assert_eq!(parsed, cfg);
    }
}
