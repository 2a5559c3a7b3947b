//! The topology file format consumed by the `s2` CLI.
//!
//! One statement per line, `#` comments:
//!
//! ```text
//! # hosts are declared implicitly by links
//! link tor0 agg0
//! link tor0 agg1
//! # optional explicit node declaration (for single-node topologies)
//! node lonely-switch
//! ```

use s2_net::topology::Topology;
use s2_net::NetError;

/// Parses the link-list topology format.
pub fn parse(text: &str) -> Result<Topology, NetError> {
    let mut topo = Topology::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["link", a, b] => {
                if a == b {
                    return Err(NetError::Syntax {
                        line: idx + 1,
                        message: format!("self-link on {a}"),
                    });
                }
                let na = topo.add_node(*a);
                let nb = topo.add_node(*b);
                topo.connect(na, nb);
            }
            ["node", n] => {
                topo.add_node(*n);
            }
            _ => {
                return Err(NetError::Syntax {
                    line: idx + 1,
                    message: format!("expected `link A B` or `node N`, got {line:?}"),
                })
            }
        }
    }
    Ok(topo)
}

/// Renders a topology back into the file format (links only; isolated
/// nodes get explicit `node` lines).
pub fn emit(topo: &Topology) -> String {
    let mut out = String::new();
    let mut connected = std::collections::BTreeSet::new();
    for l in topo.links() {
        out.push_str(&format!("link {} {}\n", topo.name(l.a.0), topo.name(l.b.0)));
        connected.insert(l.a.0);
        connected.insert(l.b.0);
    }
    for n in topo.nodes() {
        if !connected.contains(&n) {
            out.push_str(&format!("node {}\n", topo.name(n)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_links_and_nodes() {
        let t = parse("# c\nlink a b\nlink b c\nnode d\n").unwrap();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.degree(t.node_by_name("b").unwrap()), 2);
        assert_eq!(t.degree(t.node_by_name("d").unwrap()), 0);
    }

    #[test]
    fn rejects_garbage_and_self_links() {
        assert!(parse("link a\n").is_err());
        assert!(parse("link a a\n").is_err());
        assert!(parse("frobnicate x y\n").is_err());
    }

    #[test]
    fn emit_parse_roundtrip() {
        let t = parse("link a b\nlink a c\nnode z\n").unwrap();
        let text = emit(&t);
        let t2 = parse(&text).unwrap();
        assert_eq!(t2.node_count(), t.node_count());
        assert_eq!(t2.link_count(), t.link_count());
    }
}
