//! Inputs of the four workloads, made from the seed alone.

use crate::rng::SplitMix64;
use s2::sweep::LinkKey;
use s2::{S2Options, VerificationRequest};
use s2_net::config::DeviceConfig;
use s2_net::topology::{NodeId, Topology};
use s2_net::Prefix;
use s2_runtime::admin::{fnv1a64, DeltaSpec};
use s2_shard::impact::link_key;
use s2_topogen::dcn::{self, Dcn, DcnParams};
use s2_topogen::fattree::{self, FatTree, FatTreeParams};
use std::fmt::Write as _;

/// Planned cycles of the daemon stream the op-list hash covers.
const HASHED_CYCLES: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FattreeCold,
    DcnCold,
    DaemonChurn,
    SweepK1k2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FattreeCold,
        Workload::DcnCold,
        Workload::DaemonChurn,
        Workload::SweepK1k2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FattreeCold => "fattree_cold",
            Workload::DcnCold => "dcn_cold",
            Workload::DaemonChurn => "daemon_churn",
            Workload::SweepK1k2 => "sweep_k1k2",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The percentile `op_tail_ms` reports: the highest that leaves ten
    /// samples beyond it in a run of `run_seconds` on the host the
    /// baseline was taken on — p90 of ~110 link-downs and ~960
    /// scenarios. A cold run holds 28–45 ops, which gives p75 at best.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::FattreeCold | Workload::DcnCold => 0.75,
            Workload::DaemonChurn | Workload::SweepK1k2 => 0.90,
        }
    }
}

/// The pinned input sizes. `--smoke` swaps in the small set; nothing
/// else about a run changes with it.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub fattree_k: usize,
    pub fattree_shards: usize,
    /// `DcnParams::scaled(clusters, tors, width)`.
    pub dcn: (usize, usize, usize),
    pub dcn_shards: usize,
    pub daemon_k: usize,
    pub sweep_k: usize,
    pub sweep_doubles: usize,
    /// Warm restarts after the delta stream.
    pub restarts: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        fattree_k: 16,
        fattree_shards: 3,
        dcn: (8, 16, 4),
        dcn_shards: 4,
        daemon_k: 12,
        sweep_k: 8,
        sweep_doubles: 64,
        restarts: 10,
    };

    pub const SMOKE: Sizes = Sizes {
        fattree_k: 6,
        fattree_shards: 3,
        dcn: (2, 4, 2),
        dcn_shards: 4,
        daemon_k: 6,
        sweep_k: 4,
        sweep_doubles: 8,
        restarts: 2,
    };
}

/// Host sizing shared by every workload: two workers, one thread each,
/// in-process channel fabric, Metis partition.
pub fn fleet_options(shards: usize) -> S2Options {
    S2Options {
        workers: 2,
        shards,
        intra_worker_threads: 1,
        ..S2Options::default()
    }
}

fn hash_text(text: &str) -> u64 {
    fnv1a64(text.as_bytes())
}

/// A snapshot to verify cold: vendor config *texts*, the request, and
/// what the generator knows about the answer.
pub struct ColdInput {
    pub topology: Topology,
    pub texts: Vec<String>,
    pub config_bytes: usize,
    pub request: VerificationRequest,
    pub opts: S2Options,
    /// The ToR whose `network` statement the seed removed (DCN only).
    pub faulty: Option<NodeId>,
    pub op_list_hash: u64,
}

fn emit_texts(configs: &[DeviceConfig]) -> (Vec<String>, usize) {
    let texts: Vec<String> = s2_topogen::emit_configs(configs)
        .into_iter()
        .map(|(_, text)| text)
        .collect();
    let bytes = texts.iter().map(String::len).sum();
    (texts, bytes)
}

fn fattree_endpoints(ft: &FatTree) -> Vec<(NodeId, Vec<Prefix>)> {
    let k = ft.params.k;
    (0..k)
        .flat_map(|p| (0..k / 2).map(move |e| (p, e)))
        .map(|(p, e)| (ft.edge(p, e), vec![FatTree::server_prefix(p, e)]))
        .collect()
}

fn fattree_request(ft: &FatTree) -> VerificationRequest {
    let space: Prefix = "10.0.0.0/8".parse().expect("literal prefix");
    VerificationRequest::all_pair_reachability(fattree_endpoints(ft), space)
}

/// FatTree texts and the all-pair request. The seed changes nothing:
/// the paper's Fig. 5 input has no free parameter besides `k`.
pub fn fattree_cold(sizes: &Sizes) -> ColdInput {
    let ft = fattree::generate(FatTreeParams::new(sizes.fattree_k));
    let (texts, config_bytes) = emit_texts(&ft.configs);
    let request = fattree_request(&ft);
    let op_list_hash = hash_text(&format!(
        "fattree_cold k={} shards={}",
        sizes.fattree_k, sizes.fattree_shards
    ));
    ColdInput {
        topology: ft.topology,
        texts,
        config_bytes,
        request,
        opts: fleet_options(sizes.fattree_shards),
        faulty: None,
        op_list_hash,
    }
}

/// The policy-heavy DCN with one seeded "forgot to announce" fault on a
/// ToR; cluster 0's ToRs ask for every ToR's server prefix.
pub fn dcn_cold(sizes: &Sizes, seed: u64) -> ColdInput {
    let (clusters, tors, width) = sizes.dcn;
    let mut d = dcn::generate(DcnParams::scaled(clusters, tors, width));
    let mut rng = SplitMix64::new(seed);
    // Odd clusters only: they are the 5-layer ones. With the fault in a
    // 3-layer cluster an op runs ~12 % slower and peaks 1.7 % lower, so
    // letting the seed pick the depth made two workloads out of one.
    let (c, t) = (1 + 2 * rng.below(clusters / 2), rng.below(tors));
    let faulty = d.tors[c][t];
    let host = d.topology.name(faulty).to_string();
    s2_topogen::inject::drop_network_statement(&mut d.configs, &host, Dcn::server_prefix(c, t));
    let (texts, config_bytes) = emit_texts(&d.configs);
    let expected: Vec<(NodeId, Vec<Prefix>)> = d
        .tors
        .iter()
        .enumerate()
        .flat_map(|(c, ts)| {
            ts.iter()
                .enumerate()
                .map(move |(t, &n)| (n, vec![Dcn::server_prefix(c, t)]))
        })
        .collect();
    let request = VerificationRequest {
        sources: d.tors[0].clone(),
        expected,
        dst_space: "10.0.0.0/7".parse().expect("literal prefix"),
        transits: Vec::new(),
    };
    let op_list_hash = hash_text(&format!(
        "dcn_cold {:?} shards={} drop {host}",
        sizes.dcn, sizes.dcn_shards
    ));
    ColdInput {
        topology: d.topology,
        texts,
        config_bytes,
        request,
        opts: fleet_options(sizes.dcn_shards),
        faulty: Some(faulty),
        op_list_hash,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    Down,
    Up,
    Prefix,
}

/// One planned delta.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedDelta {
    pub kind: DeltaKind,
    pub spec: DeltaSpec,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Down,
    Up,
    Add,
    Withdraw,
}

/// The kinds of one cycle of the stream, in order: 9 link-downs, 9
/// link-ups, one prefix add and its withdrawal (45 / 45 / 10 %). Links
/// down after each step: 1 2 3 2 1 2 1 0 | 0 | 1 0 1 2 1 2 3 2 1 0 | 0 —
/// six of the nine link-ups leave an overlay behind, three take the
/// empty-overlay shortcut, and prefix deltas arrive with every link up,
/// so no rebuild bakes a failed link into the model. The *mix* is fixed
/// so that every run does the same work per cycle whatever the seed;
/// the seed picks which links and which device.
const CYCLE: [Step; 20] = {
    use Step::*;
    [
        Down, Down, Down, Up, Up, Down, Up, Up, Add, Down, Up, Down, Down, Up, Down, Down, Up, Up,
        Up, Withdraw,
    ]
};

/// The seeded delta stream. Never more than three links down at once
/// and never two on one switch, so no switch is ever cut off and every
/// verdict stays all-clear whatever `k` is.
#[derive(Debug, Clone)]
pub struct DeltaStream {
    rng: SplitMix64,
    links: Vec<(String, String)>,
    ends: Vec<(NodeId, NodeId)>,
    edges: Vec<String>,
    failed: Vec<usize>,
    added: Option<(String, Prefix)>,
    cycles: u32,
}

impl DeltaStream {
    fn new(seed: u64, topology: &Topology, edges: Vec<String>) -> Self {
        let name = |n: NodeId| topology.name(n).to_string();
        DeltaStream {
            rng: SplitMix64::new(seed),
            links: topology
                .links()
                .iter()
                .map(|l| (name(l.a.0), name(l.b.0)))
                .collect(),
            ends: topology.links().iter().map(|l| (l.a.0, l.b.0)).collect(),
            edges,
            failed: Vec::new(),
            added: None,
            cycles: 0,
        }
    }

    fn down(&mut self) -> PlannedDelta {
        let touches = |l: usize, n: NodeId| self.ends[l].0 == n || self.ends[l].1 == n;
        let link = loop {
            let l = self.rng.below(self.links.len());
            let (a, b) = self.ends[l];
            if !self.failed.iter().any(|&f| touches(f, a) || touches(f, b)) {
                break l;
            }
        };
        self.failed.push(link);
        let (a, b) = self.links[link].clone();
        PlannedDelta {
            kind: DeltaKind::Down,
            spec: DeltaSpec::LinkDown { a, b },
        }
    }

    fn up(&mut self) -> PlannedDelta {
        let link = self.failed.swap_remove(self.rng.below(self.failed.len()));
        let (a, b) = self.links[link].clone();
        PlannedDelta {
            kind: DeltaKind::Up,
            spec: DeltaSpec::LinkUp { a, b },
        }
    }

    fn add(&mut self) -> PlannedDelta {
        let device = self.edges[self.rng.below(self.edges.len())].clone();
        // 10.200.0.0/13 is inside the request's space and no generator
        // allocates from it.
        let prefix = Prefix::new(
            s2_net::Ipv4Addr(0x0AC8_0000 + ((self.cycles % 2048) << 8)),
            24,
        );
        self.added = Some((device.clone(), prefix));
        PlannedDelta {
            kind: DeltaKind::Prefix,
            spec: DeltaSpec::PrefixAdd { device, prefix },
        }
    }

    fn withdraw(&mut self) -> PlannedDelta {
        let (device, prefix) = self.added.take().expect("CYCLE adds before it withdraws");
        PlannedDelta {
            kind: DeltaKind::Prefix,
            spec: DeltaSpec::PrefixWithdraw { device, prefix },
        }
    }

    /// The next cycle's deltas. A cycle ends on the snapshot it started
    /// from: every link up, no extra prefix.
    pub fn cycle(&mut self) -> Vec<PlannedDelta> {
        self.cycles += 1;
        CYCLE
            .iter()
            .map(|step| match step {
                Step::Down => self.down(),
                Step::Up => self.up(),
                Step::Add => self.add(),
                Step::Withdraw => self.withdraw(),
            })
            .collect()
    }

    /// One link flap, leaving the stream itself untouched: the daemon
    /// workload's warm-up op.
    pub fn flap(&self) -> [PlannedDelta; 2] {
        let mut probe = self.clone();
        [probe.down(), probe.up()]
    }
}

pub struct DaemonInput {
    pub topology: Topology,
    pub configs: Vec<DeviceConfig>,
    pub request: VerificationRequest,
    pub opts: S2Options,
    pub stream: DeltaStream,
    pub pairs: usize,
    pub op_list_hash: u64,
}

pub fn daemon_churn(sizes: &Sizes, seed: u64) -> DaemonInput {
    let ft = fattree::generate(FatTreeParams::new(sizes.daemon_k));
    let request = fattree_request(&ft);
    let edges = ft
        .edges
        .iter()
        .map(|&n| ft.topology.name(n).to_string())
        .collect();
    let stream = DeltaStream::new(seed, &ft.topology, edges);
    let mut text = format!("daemon_churn k={}", sizes.daemon_k);
    let mut preview = stream.clone();
    for delta in (0..HASHED_CYCLES).flat_map(|_| preview.cycle()) {
        let _ = write!(text, "|{:?}", delta.spec);
    }
    DaemonInput {
        pairs: request.pair_count(),
        topology: ft.topology,
        configs: ft.configs,
        request,
        opts: fleet_options(1),
        stream,
        op_list_hash: hash_text(&text),
    }
}

pub struct SweepInput {
    pub topology: Topology,
    pub configs: Vec<DeviceConfig>,
    pub request: VerificationRequest,
    pub opts: S2Options,
    /// Every single-link scenario, then the seeded double-link sample.
    pub scenarios: Vec<Vec<LinkKey>>,
    pub op_list_hash: u64,
}

pub fn sweep_k1k2(sizes: &Sizes, seed: u64) -> SweepInput {
    let ft = fattree::generate(FatTreeParams::new(sizes.sweep_k));
    let request = fattree_request(&ft);
    let links: Vec<LinkKey> = ft.topology.links().iter().map(link_key).collect();
    let mut scenarios: Vec<Vec<LinkKey>> = links.iter().map(|&l| vec![l]).collect();
    let mut rng = SplitMix64::new(seed);
    // Never two failed links on one switch, as in `DeltaStream::down`:
    // every switch keeps all its links but one, so no scenario cuts one
    // off even at k=4, where an edge switch has only two uplinks.
    let shares_switch = |a: usize, b: usize| {
        let ends = |l: LinkKey| [l.0 .0, l.1 .0];
        ends(links[a]).iter().any(|n| ends(links[b]).contains(n))
    };
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    while pairs.len() < sizes.sweep_doubles {
        let (a, b) = (rng.below(links.len()), rng.below(links.len()));
        let pair = (a.min(b), a.max(b));
        if !shares_switch(a, b) && !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    scenarios.extend(pairs.iter().map(|&(a, b)| vec![links[a], links[b]]));
    let op_list_hash = hash_text(&format!("sweep_k1k2 k={} {pairs:?}", sizes.sweep_k));
    SweepInput {
        topology: ft.topology,
        configs: ft.configs,
        request,
        opts: fleet_options(1),
        scenarios,
        op_list_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_deltas(seed: u64, cycles: usize) -> Vec<PlannedDelta> {
        let mut s = daemon_churn(&Sizes::SMOKE, seed).stream;
        (0..cycles).flat_map(|_| s.cycle()).collect()
    }

    #[test]
    fn one_seed_one_op_list_two_seeds_two() {
        assert_eq!(first_deltas(3, 10), first_deltas(3, 10));
        assert_ne!(first_deltas(3, 10), first_deltas(4, 10));
        let s = &Sizes::SMOKE;
        assert_eq!(
            daemon_churn(s, 3).op_list_hash,
            daemon_churn(s, 3).op_list_hash
        );
        assert_ne!(
            daemon_churn(s, 3).op_list_hash,
            daemon_churn(s, 4).op_list_hash
        );
        assert_eq!(sweep_k1k2(s, 3).scenarios, sweep_k1k2(s, 3).scenarios);
        assert_ne!(sweep_k1k2(s, 3).op_list_hash, sweep_k1k2(s, 4).op_list_hash);
        assert_eq!(dcn_cold(s, 3).texts, dcn_cold(s, 3).texts);
        let faults: Vec<_> = (0..8).map(|seed| dcn_cold(s, seed).faulty).collect();
        assert!(faults.iter().any(|f| *f != faults[0]), "{faults:?}");
    }

    #[test]
    fn every_cycle_has_the_same_mix_and_ends_where_it_began() {
        let mut s = daemon_churn(&Sizes::SMOKE, 11).stream;
        for _ in 0..100 {
            let mut down: Vec<(String, String)> = Vec::new();
            let mut kinds = [0usize; 3];
            for d in s.cycle() {
                kinds[d.kind as usize] += 1;
                match d.spec {
                    DeltaSpec::LinkDown { a, b } => {
                        // Never two failed links on one switch.
                        let shared = |l: &(String, String)| {
                            [&l.0, &l.1].iter().any(|n| **n == a || **n == b)
                        };
                        assert!(!down.iter().any(shared) && down.len() < 3);
                        down.push((a, b));
                    }
                    DeltaSpec::LinkUp { a, b } => {
                        let at = down.iter().position(|l| *l == (a.clone(), b.clone()));
                        down.swap_remove(at.expect("only a failed link comes up"));
                    }
                    _ => assert!(down.is_empty(), "prefix deltas arrive with every link up"),
                }
            }
            assert_eq!(kinds, [9, 9, 2]);
            assert!(down.is_empty() && s.failed.is_empty() && s.added.is_none());
        }
        let [down, up] = s.flap();
        assert_eq!((down.kind, up.kind), (DeltaKind::Down, DeltaKind::Up));
        assert!(s.failed.is_empty());
    }

    #[test]
    fn sweep_has_all_singles_and_distinct_doubles() {
        let input = sweep_k1k2(&Sizes::SMOKE, 5);
        let links = input.topology.link_count();
        assert_eq!(input.scenarios.len(), links + Sizes::SMOKE.sweep_doubles);
        assert!(input.scenarios[..links].iter().all(|s| s.len() == 1));
        let mut doubles = input.scenarios[links..].to_vec();
        assert!(doubles.iter().all(|s| s.len() == 2 && s[0] != s[1]));
        doubles.sort();
        doubles.dedup();
        assert_eq!(doubles.len(), Sizes::SMOKE.sweep_doubles);
    }

    /// Whether every switch still reaches every other with `failed` gone.
    fn connected_without(topology: &Topology, failed: &[LinkKey]) -> bool {
        let start = topology.nodes().next().expect("a topology has nodes");
        let mut seen = std::collections::BTreeSet::from([start]);
        let mut queue = vec![start];
        while let Some(n) = queue.pop() {
            for &(i, m, j) in topology.neighbors(n) {
                let key = ((n, i).min((m, j)), (n, i).max((m, j)));
                if !failed.contains(&key) && seen.insert(m) {
                    queue.push(m);
                }
            }
        }
        seen.len() == topology.node_count()
    }

    /// The sweep's known answer is "reachability holds in every
    /// scenario"; it is true only if no scenario partitions the network.
    #[test]
    fn no_sweep_scenario_partitions_the_network() {
        for sizes in [Sizes::SMOKE, Sizes::FULL] {
            for seed in 0..200 {
                let input = sweep_k1k2(&sizes, seed);
                for s in &input.scenarios {
                    assert!(
                        connected_without(&input.topology, s),
                        "k={} seed {seed}: {s:?} cuts a switch off",
                        sizes.sweep_k
                    );
                }
            }
        }
    }
}
