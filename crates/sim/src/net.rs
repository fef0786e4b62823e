//! The simulated network: hosts, switches, and full-duplex links with finite
//! drop-tail queues.
//!
//! Node numbering: switch `i` of the topology is sim node `i`; server `s`
//! (global id from [`jellyfish_traffic::ServerMap`]) is sim node
//! `num_switches + s`. Every topology link becomes two directed sim links
//! (full duplex), and every server gets an uplink and a downlink to its ToR
//! switch.
//!
//! Link state is stored flat, not hashed, in one vector indexed by a stable
//! [`LinkId`]: the [`CsrGraph`] snapshot's dense arc ids for switch-to-switch
//! links, then one id per host uplink, then one per host downlink.
//! [`Network::link_id`] resolves a node pair to its id with an O(log degree)
//! row search; the simulator does that once per subflow hop when it is
//! built, so the packet hot path ([`Network::transmit_on`]) only indexes the
//! vector.
//!
//! Queueing model: each directed link tracks the time until which its
//! transmitter is busy. A packet handed to the link at time `t` sees a
//! backlog of `(busy_until − t) · rate` packets; if that backlog would exceed
//! the buffer the packet is dropped (drop-tail), otherwise it starts
//! transmission when the link frees up and arrives `1/rate + delay` later.
//! This is the standard event-free fluid-queue formulation of a FIFO link and
//! matches what a per-packet queue would compute for deterministic service
//! times.

use crate::impair::Impairments;
use jellyfish_topology::spec::ImpairConfig;
use jellyfish_topology::CsrGraph;
use jellyfish_traffic::ServerMap;

/// A node in the simulated network (switch or host).
pub type SimNode = usize;

/// Configuration of every link in the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Link rate in packets per unit time (all links and NICs share it, as
    /// in the paper's setup where servers and switches use the same rate).
    pub rate: f64,
    /// One-way propagation delay per link, in time units.
    pub delay: f64,
    /// Drop-tail buffer size in packets.
    pub buffer: usize,
}

impl Default for LinkParams {
    /// The ideal-fabric baseline every experiment starts from (surfaced by
    /// `figures topo show` so provenance distinguishes ideal from impaired
    /// runs): `rate` 100 packets per time unit, `delay` 0.001 time units of
    /// one-way propagation, `buffer` 25 packets of drop-tail queue.
    fn default() -> Self {
        LinkParams {
            rate: 100.0,
            delay: 0.001,
            // A couple of bandwidth-delay products: big enough to keep links
            // busy, small enough that drop-tail queueing delay stays moderate.
            buffer: 25,
        }
    }
}

/// State of one directed link.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    busy_until: f64,
    /// Cumulative packets accepted (for utilization reporting).
    transmitted: u64,
    /// Cumulative packets dropped at this link's queue.
    dropped: u64,
}

/// Outcome of handing a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransmitOutcome {
    /// Packet accepted; it arrives at the other end at the given time.
    Delivered {
        /// Arrival time at the downstream node.
        arrival: f64,
    },
    /// Packet dropped: at the queue (buffer overflow) or — under an
    /// impairment model — lost on the wire after occupying the transmitter.
    Dropped,
    /// The directed link does not exist (e.g. it was failed out of the
    /// topology). The packet goes nowhere; callers treat this like a loss
    /// so failure scenarios degrade instead of aborting.
    NoLink,
    /// Packet accepted and duplicated by the impairment model: two copies
    /// arrive, the duplicate one transmission slot (plus its own jitter)
    /// behind the original.
    Duplicated {
        /// Arrival time of the original copy.
        arrival: f64,
        /// Arrival time of the duplicate copy.
        dup_arrival: f64,
    },
}

/// Stable id of one directed link: a switch arc id, then
/// `num_arcs + server` for host uplinks, then `num_arcs + num_servers +
/// server` for host downlinks. It indexes the link state and keys the
/// link's impairment stream.
pub type LinkId = u32;

/// The simulated network fabric.
#[derive(Debug, Clone)]
pub struct Network {
    /// Interconnect snapshot; its arc ids are the switch links' [`LinkId`]s.
    csr: CsrGraph,
    /// Every directed link, indexed by [`LinkId`].
    links: Vec<Link>,
    /// ToR switch of each server.
    tor_of: Vec<SimNode>,
    params: LinkParams,
    num_switches: usize,
    /// Optional per-link impairment model; `None` is the ideal fabric and
    /// keeps the arithmetic of `transmit_on` bit-identical to the
    /// pre-impairment implementation.
    impair: Option<Impairments>,
    /// Packets lost on the wire by the impairment model (distinct from
    /// queue drops, though both count in each link's `dropped`).
    wire_lost: u64,
    /// Transmit attempts on links that do not exist.
    no_link: u64,
}

impl Network {
    /// Builds the simulated network for a topology snapshot: switch-to-switch
    /// links plus host access links, all with the same parameters.
    pub fn build(csr: &CsrGraph, servers: &ServerMap, params: LinkParams) -> Self {
        let num_switches = csr.num_nodes();
        let num_servers = servers.num_servers();
        let num_links = csr.num_arcs() + 2 * num_servers;
        assert!(num_links <= LinkId::MAX as usize, "too many links for u32 link ids");
        Network {
            links: vec![Link::default(); num_links],
            tor_of: (0..num_servers).map(|s| servers.switch_of(s)).collect(),
            csr: csr.clone(),
            params,
            num_switches,
            impair: None,
            wire_lost: 0,
            no_link: 0,
        }
    }

    /// Attaches a deterministic impairment model (builder style). Every
    /// directed link gets an independent RNG stream derived from `seed` and
    /// the link's stable id, so the packet fates of a run depend only on
    /// `(config, seed, event order)` — bit-reproducible across shards.
    pub fn with_impairment(mut self, cfg: ImpairConfig, seed: u64) -> Self {
        self.impair = Some(Impairments::new(cfg, seed, self.links.len()));
        self
    }

    /// The id of the directed link `(u, v)`, or `None` when no such link
    /// exists (e.g. it was failed out of the topology).
    pub fn link_id(&self, u: SimNode, v: SimNode) -> Option<LinkId> {
        let arcs = self.csr.num_arcs();
        let hosts = self.tor_of.len();
        let id = if u >= self.num_switches {
            let s = u - self.num_switches;
            (s < hosts && v == self.tor_of[s]).then_some(arcs + s)
        } else if v >= self.num_switches {
            let s = v - self.num_switches;
            (s < hosts && u == self.tor_of[s]).then_some(arcs + hosts + s)
        } else {
            self.csr.arc_index(u, v)
        };
        id.map(|id| id as LinkId)
    }

    /// Hands a packet of `size` MSS units to a link resolved by
    /// [`Network::link_id`] at time `now`; acknowledgements use a small
    /// fraction of an MSS. A link that resolved to `None` counts as a
    /// [`TransmitOutcome::NoLink`] attempt.
    pub fn transmit_on(&mut self, link: Option<LinkId>, now: f64, size: f64) -> TransmitOutcome {
        let Some(key) = link.map(|id| id as usize) else {
            self.no_link += 1;
            return TransmitOutcome::NoLink;
        };
        let rate = self.params.rate;
        let delay = self.params.delay;
        let buffer =
            self.impair.as_ref().and_then(|i| i.cfg().queue).unwrap_or(self.params.buffer) as f64;
        let link = &mut self.links[key];
        let backlog = (link.busy_until - now).max(0.0) * rate;
        if backlog + size > buffer {
            link.dropped += 1;
            return TransmitOutcome::Dropped;
        }
        let start = link.busy_until.max(now);
        let finish = start + size / rate;
        link.busy_until = finish;
        link.transmitted += 1;
        let arrival = finish + delay;
        let Some(impair) = self.impair.as_mut() else {
            return TransmitOutcome::Delivered { arrival };
        };
        let fate = impair.fate(key);
        if fate.lost {
            // The frame occupied the transmitter and then died on the wire:
            // bandwidth is spent, nothing arrives.
            self.wire_lost += 1;
            self.links[key].dropped += 1;
            return TransmitOutcome::Dropped;
        }
        let mut arrival = arrival + fate.jitter;
        if fate.reorder {
            // Adjacent-pair swap: hold the packet back one and a half
            // serialization slots so it lands just behind its successor on
            // a busy link.
            arrival += 1.5 * size / rate;
        }
        if let Some(dup_jitter) = fate.duplicate {
            // The duplicate occupies the next transmission slot.
            let link = &mut self.links[key];
            let dup_finish = link.busy_until + size / rate;
            link.busy_until = dup_finish;
            link.transmitted += 1;
            return TransmitOutcome::Duplicated {
                arrival,
                dup_arrival: dup_finish + delay + dup_jitter,
            };
        }
        TransmitOutcome::Delivered { arrival }
    }

    /// Total packets dropped across all links.
    pub fn total_drops(&self) -> u64 {
        self.links.iter().map(|l| l.dropped).sum()
    }

    /// Total packets transmitted across all links.
    pub fn total_transmitted(&self) -> u64 {
        self.links.iter().map(|l| l.transmitted).sum()
    }

    /// Packets the impairment model lost on the wire (a subset of
    /// [`Network::total_drops`]).
    pub fn total_wire_losses(&self) -> u64 {
        self.wire_lost
    }

    /// Rate of every link and NIC, in packets per unit time.
    pub fn rate(&self) -> f64 {
        self.params.rate
    }

    /// Transmit attempts on directed links that do not exist (only possible
    /// when routing state outlives a failure scenario).
    pub fn no_link_drops(&self) -> u64 {
        self.no_link
    }
}

/// A source-routed packet. Payload packets carry `seq`; acknowledgements
/// carry `ack` = next expected sequence number (cumulative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Connection index in the simulator.
    pub conn: usize,
    /// Subflow index within the connection.
    pub subflow: usize,
    /// Sequence number (data packets) or echoed sequence (for RTT sampling).
    pub seq: u64,
    /// Cumulative acknowledgement number (valid when `is_ack`).
    pub ack: u64,
    /// Whether this is an acknowledgement travelling back to the sender.
    pub is_ack: bool,
    /// Position in the subflow's (forward or reverse) path: index of the node
    /// the packet is currently at.
    pub hop: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::JellyfishBuilder;

    /// Sim node of server `s` in the 6-switch fabrics below: servers
    /// follow the switches.
    fn host(s: usize) -> SimNode {
        6 + s
    }

    fn network() -> Network {
        let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        Network::build(&topo.csr(), &servers, LinkParams::default())
    }

    /// Hands one full-size packet to server 0's uplink (its ToR is switch 0)
    /// at time `now`.
    fn send_up(net: &mut Network, now: f64) -> TransmitOutcome {
        net.transmit_on(net.link_id(host(0), 0), now, 1.0)
    }

    #[test]
    fn build_creates_duplex_and_access_links() {
        let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        let csr = topo.csr();
        let net = Network::build(&csr, &servers, LinkParams::default());
        assert_eq!(csr.num_nodes(), 6);
        assert_eq!(servers.num_servers(), 18);
        let has_link = |u, v| net.link_id(u, v).is_some();
        for (a, b) in csr.edges() {
            assert!(has_link(a, b));
            assert!(has_link(b, a));
        }
        for s in 0..servers.num_servers() {
            assert!(has_link(host(s), servers.switch_of(s)));
            assert!(has_link(servers.switch_of(s), host(s)));
        }
        assert!(!has_link(0, host(17)) || servers.switch_of(17) == 0);
    }

    #[test]
    fn link_ids_number_arcs_then_uplinks_then_downlinks() {
        // The ids key the impairment streams, so their order is part of the
        // determinism contract.
        let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        let csr = topo.csr();
        let net = Network::build(&csr, &servers, LinkParams::default());
        for u in csr.nodes() {
            for arc in csr.arc_range(u) {
                assert_eq!(net.link_id(u, csr.arc_target(arc)), Some(arc as LinkId));
            }
        }
        let (arcs, hosts) = (csr.num_arcs(), servers.num_servers());
        for s in 0..hosts {
            let tor = servers.switch_of(s);
            assert_eq!(net.link_id(host(s), tor), Some((arcs + s) as LinkId));
            assert_eq!(net.link_id(tor, host(s)), Some((arcs + hosts + s) as LinkId));
        }
        assert_eq!(net.link_id(host(0), host(1)), None);
        assert_eq!(net.link_id(host(hosts), 0), None, "no such host");
    }

    #[test]
    fn transmit_serializes_packets() {
        let mut net = network();
        let params = LinkParams::default();
        let TransmitOutcome::Delivered { arrival: a1 } = send_up(&mut net, 0.0) else {
            panic!("first packet dropped");
        };
        let TransmitOutcome::Delivered { arrival: a2 } = send_up(&mut net, 0.0) else {
            panic!("second packet dropped");
        };
        // Second packet waits behind the first: exactly one transmission time later.
        assert!((a2 - a1 - 1.0 / params.rate).abs() < 1e-9);
        assert_eq!(net.total_transmitted(), 2);
        assert_eq!(net.total_drops(), 0);
    }

    #[test]
    fn transmit_drops_when_buffer_full() {
        let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        let params = LinkParams { buffer: 5, ..Default::default() };
        let mut net = Network::build(&topo.csr(), &servers, params);
        let mut drops = 0;
        for _ in 0..20 {
            if send_up(&mut net, 0.0) == TransmitOutcome::Dropped {
                drops += 1;
            }
        }
        assert!(drops > 0, "buffer of 5 must drop some of 20 back-to-back packets");
        assert_eq!(net.total_drops(), drops as u64);
        // Roughly buffer-many packets accepted.
        assert!(net.total_transmitted() <= 6 + 1);
    }

    #[test]
    fn queue_drains_over_time() {
        let params = LinkParams { buffer: 2, ..Default::default() };
        let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        let mut net = Network::build(&topo.csr(), &servers, params);
        assert!(matches!(send_up(&mut net, 0.0), TransmitOutcome::Delivered { .. }));
        assert!(matches!(send_up(&mut net, 0.0), TransmitOutcome::Delivered { .. }));
        assert_eq!(send_up(&mut net, 0.0), TransmitOutcome::Dropped);
        // After enough time the queue has drained and packets are accepted again.
        assert!(matches!(send_up(&mut net, 1.0), TransmitOutcome::Delivered { .. }));
    }

    #[test]
    fn transmit_on_missing_link_returns_no_link() {
        // Hosts are never directly connected; a failed-link scenario must
        // degrade (typed outcome), not abort.
        let mut net = network();
        let link = net.link_id(host(0), host(1));
        assert_eq!(link, None);
        assert_eq!(net.transmit_on(link, 0.0, 1.0), TransmitOutcome::NoLink);
        assert_eq!(net.no_link_drops(), 1);
        assert_eq!(net.total_transmitted(), 0);
    }

    #[test]
    fn impaired_network_loses_and_jitters_deterministically() {
        use jellyfish_topology::spec::ImpairConfig;
        let cfg = ImpairConfig { loss: 0.2, jitter_ms: 5.0, ..Default::default() };
        let run = |seed: u64| {
            let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
            let servers = ServerMap::new(&topo);
            let mut net = Network::build(&topo.csr(), &servers, LinkParams::default())
                .with_impairment(cfg, seed);
            (0..200).map(|i| send_up(&mut net, i as f64 * 0.1)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same impairment seed must replay identically");
        assert_ne!(run(7), run(8), "different seeds should impair differently");
        let outcomes = run(7);
        assert!(outcomes.contains(&TransmitOutcome::Dropped), "some wire loss");
        // Jitter perturbs arrivals beyond the deterministic pipeline.
        let ideal_first = 1.0 / LinkParams::default().rate + LinkParams::default().delay;
        assert!(outcomes.iter().any(
            |o| matches!(o, TransmitOutcome::Delivered { arrival } if *arrival > ideal_first + 1e-12)
        ));
    }

    #[test]
    fn impaired_queue_override_shrinks_the_buffer() {
        use jellyfish_topology::spec::ImpairConfig;
        let cfg = ImpairConfig { queue: Some(2), ..Default::default() };
        let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        let mut net =
            Network::build(&topo.csr(), &servers, LinkParams::default()).with_impairment(cfg, 7);
        assert!(matches!(send_up(&mut net, 0.0), TransmitOutcome::Delivered { .. }));
        assert!(matches!(send_up(&mut net, 0.0), TransmitOutcome::Delivered { .. }));
        // Default buffer (25) would accept this; the override drops it.
        assert_eq!(send_up(&mut net, 0.0), TransmitOutcome::Dropped);
        assert_eq!(net.total_wire_losses(), 0, "queue overflow is not a wire loss");
    }

    #[test]
    fn duplication_occupies_a_second_slot() {
        use jellyfish_topology::spec::ImpairConfig;
        let cfg = ImpairConfig { duplicate: 1.0, ..Default::default() };
        let params = LinkParams::default();
        let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        let mut net = Network::build(&topo.csr(), &servers, params).with_impairment(cfg, 7);
        let TransmitOutcome::Duplicated { arrival, dup_arrival } = send_up(&mut net, 0.0) else {
            panic!("duplicate probability 1.0 must duplicate");
        };
        assert!((dup_arrival - arrival - 1.0 / params.rate).abs() < 1e-12);
        assert_eq!(net.total_transmitted(), 2, "the copy burns a transmission slot");
    }
}
