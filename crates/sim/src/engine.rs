//! The discrete-event simulation engine.
//!
//! Connections are long-lived (infinitely backlogged) transfers, started with
//! a small random jitter to avoid phase effects, and measured after a warmup
//! period: a connection's goodput is the number of segments acknowledged
//! during the measurement window divided by what its NIC could have sent in
//! that window, which is exactly the paper's "% of the servers' NIC rate".
//!
//! The loop's bookkeeping hashes nothing and lives in reused buffers. The
//! heap holds 24-byte `(time bits, counter, slot)` keys while the events sit
//! in a slab whose slots a free list recycles. Every event time is finite
//! and non-negative (start jitter is drawn from `[0, 0.05)` and every later
//! time adds non-negative terms to the current time), so ordering times by
//! their bits orders them numerically, and the unique, increasing counter
//! breaks ties in scheduling order. Each subflow's hops are resolved to link
//! ids once, when the simulator is built.

use crate::mptcp::lia_increase_per_ack;
use crate::net::{LinkId, LinkParams, Network, Packet, TransmitOutcome};
use crate::tcp::{AckAction, TcpReceiver, TcpSender};
use crate::workload::Connection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Relative size of an acknowledgement compared to a full data segment.
const ACK_SIZE: f64 = 0.05;

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Parameters of every link (rate, delay, buffer).
    pub link: LinkParams,
    /// Total simulated time.
    pub duration: f64,
    /// Warmup time excluded from throughput measurement.
    pub warmup: f64,
    /// Initial congestion window (segments).
    pub initial_cwnd: f64,
    /// Initial retransmission timeout before any RTT sample.
    pub initial_rto: f64,
    /// RNG seed for start-time jitter.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link: LinkParams::default(),
            duration: 10.0,
            warmup: 2.0,
            initial_cwnd: 2.0,
            initial_rto: 0.5,
            seed: 1,
        }
    }
}

/// Per-connection result.
#[derive(Debug, Clone, Copy)]
pub struct ConnectionStats {
    /// Sending server id.
    pub src_server: usize,
    /// Receiving server id.
    pub dst_server: usize,
    /// Goodput as a fraction of the NIC rate over the measurement window.
    pub normalized_throughput: f64,
}

/// Aggregate simulation report.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-connection statistics.
    pub connections: Vec<ConnectionStats>,
    /// Total packets dropped in the fabric: queue overflows plus
    /// `wire_losses` (so queue drops are `drops - wire_losses`).
    pub drops: u64,
    /// Total packets transmitted in the fabric.
    pub transmitted: u64,
    /// Karn-filtered RTT samples observed after warmup, in event order
    /// (never-retransmitted segments only), for latency histograms.
    pub rtt_samples: Vec<f64>,
    /// Events the loop handled (packet arrivals, timer checks and the
    /// warm-up snapshot), a deterministic measure of the run's work.
    pub events: u64,
    /// Packets the impairment model lost on the wire (a subset of `drops`).
    pub wire_losses: u64,
    /// Transmit attempts on links that do not exist, as when connections
    /// routed before a failure are simulated after it (not in `drops`).
    pub no_link_drops: u64,
}

impl SimReport {
    /// Mean normalized throughput across connections (the Table 1 metric).
    pub fn mean_throughput(&self) -> f64 {
        if self.connections.is_empty() {
            return 0.0;
        }
        self.connections.iter().map(|c| c.normalized_throughput).sum::<f64>()
            / self.connections.len() as f64
    }
}

/// Send timestamps by sequence number, for Karn-filtered RTT sampling. A NaN
/// entry means "no timestamp". Entries below the cumulative ACK are kept: a
/// late or duplicated ACK can still read one.
#[derive(Debug, Default)]
struct SendTimes(Vec<f64>);

impl SendTimes {
    fn insert(&mut self, seq: u64, time: f64) {
        let seq = seq as usize;
        if seq >= self.0.len() {
            self.0.resize(seq + 1, f64::NAN);
        }
        self.0[seq] = time;
    }

    /// Removes and returns the timestamp of `seq`, if it has one.
    fn remove(&mut self, seq: u64) -> Option<f64> {
        let slot = self.0.get_mut(seq as usize)?;
        let time = std::mem::replace(slot, f64::NAN);
        (!time.is_nan()).then_some(time)
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// One subflow's runtime state.
struct Subflow {
    sender: TcpSender,
    receiver: TcpReceiver,
    /// Links of the forward path, hop by hop (`None` where the path crosses
    /// a link the network does not have).
    forward: Vec<Option<LinkId>>,
    /// Links of the reverse (ACK) path, hop by hop.
    reverse: Vec<Option<LinkId>>,
    /// Send timestamps for RTT sampling (Karn's rule: cleared on retransmit).
    send_times: SendTimes,
    /// Segments acknowledged at the end of warmup.
    delivered_at_warmup: u64,
}

struct ConnState {
    src_server: usize,
    dst_server: usize,
    coupled: bool,
    subflows: Vec<Subflow>,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrive(Packet),
    TimeoutCheck { conn: usize, subflow: usize },
    WarmupSnapshot,
}

/// The discrete-event simulator.
pub struct Simulator {
    network: Network,
    config: SimConfig,
    connections: Vec<ConnState>,
    /// Min-heap of `(time bits, counter, slab slot)`.
    queue: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Pending events, indexed by the slot their heap key carries.
    slab: Vec<Event>,
    /// Slab slots whose events have been handled.
    free: Vec<u32>,
    event_counter: u64,
    events_handled: u64,
    now: f64,
    rtt_samples: Vec<f64>,
    /// LIA's per-ACK inputs, refilled in subflow order on every ACK.
    lia_cwnds: Vec<f64>,
    lia_rtts: Vec<f64>,
}

impl Simulator {
    /// Creates a simulator for the given network and connections, resolving
    /// every subflow hop to its link.
    pub fn new(network: Network, connections: Vec<Connection>, config: SimConfig) -> Self {
        let conn_states = connections
            .into_iter()
            .map(|c| ConnState {
                src_server: c.src_server,
                dst_server: c.dst_server,
                coupled: c.coupled,
                subflows: c
                    .subflow_paths
                    .iter()
                    .map(|path| Subflow {
                        sender: TcpSender::new(config.initial_cwnd, config.initial_rto),
                        receiver: TcpReceiver::new(),
                        forward: path.windows(2).map(|h| network.link_id(h[0], h[1])).collect(),
                        reverse: path
                            .windows(2)
                            .rev()
                            .map(|h| network.link_id(h[1], h[0]))
                            .collect(),
                        send_times: SendTimes::default(),
                        delivered_at_warmup: 0,
                    })
                    .collect(),
            })
            .collect();
        Simulator {
            network,
            config,
            connections: conn_states,
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            event_counter: 0,
            events_handled: 0,
            now: 0.0,
            rtt_samples: Vec::new(),
            lia_cwnds: Vec::new(),
            lia_rtts: Vec::new(),
        }
    }

    fn schedule(&mut self, time: f64, event: Event) {
        // Bit order is numeric order only for finite times >= +0.0.
        debug_assert!(time.is_finite() && time.is_sign_positive(), "event time {time}");
        self.event_counter += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = event;
                slot
            }
            None => {
                self.slab.push(event);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.queue.push(Reverse((time.to_bits(), self.event_counter, slot)));
    }

    /// Schedules the arrival (and any duplicate) of a packet just handed to
    /// a link; a dropped packet schedules nothing.
    fn schedule_outcome(&mut self, outcome: TransmitOutcome, pkt: Packet) {
        match outcome {
            TransmitOutcome::Delivered { arrival } => self.schedule(arrival, Event::Arrive(pkt)),
            TransmitOutcome::Duplicated { arrival, dup_arrival } => {
                self.schedule(arrival, Event::Arrive(pkt));
                self.schedule(dup_arrival, Event::Arrive(pkt));
            }
            // Lost at a queue or on the wire, or the link is gone: the
            // sender recovers via dupacks or RTO.
            TransmitOutcome::Dropped | TransmitOutcome::NoLink => {}
        }
    }

    /// Runs the simulation to completion and reports per-connection goodput.
    pub fn run(mut self) -> SimReport {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // Start every subflow with a small jitter.
        for conn in 0..self.connections.len() {
            for sub in 0..self.connections[conn].subflows.len() {
                let start: f64 = rng.gen_range(0.0..0.05);
                self.now = start;
                self.pump_new_data(conn, sub);
                let rto = self.connections[conn].subflows[sub].sender.rto;
                self.schedule(start + rto, Event::TimeoutCheck { conn, subflow: sub });
            }
        }
        self.now = 0.0;
        self.schedule(self.config.warmup, Event::WarmupSnapshot);

        while let Some(Reverse((bits, _, slot))) = self.queue.pop() {
            let time = f64::from_bits(bits);
            if time > self.config.duration {
                break;
            }
            let event = self.slab[slot as usize];
            self.free.push(slot);
            self.events_handled += 1;
            self.now = time;
            match event {
                Event::Arrive(pkt) => self.handle_arrival(pkt),
                Event::TimeoutCheck { conn, subflow } => self.handle_timeout_check(conn, subflow),
                Event::WarmupSnapshot => {
                    for c in &mut self.connections {
                        for s in &mut c.subflows {
                            s.delivered_at_warmup = s.sender.delivered;
                        }
                    }
                }
            }
        }

        let window = self.config.duration - self.config.warmup;
        let nic_segments = self.config.link.rate * window;
        let connections = self
            .connections
            .iter()
            .map(|c| {
                let delivered: u64 = c
                    .subflows
                    .iter()
                    .map(|s| s.sender.delivered.saturating_sub(s.delivered_at_warmup))
                    .sum();
                ConnectionStats {
                    src_server: c.src_server,
                    dst_server: c.dst_server,
                    normalized_throughput: (delivered as f64 / nic_segments).min(1.0),
                }
            })
            .collect();
        SimReport {
            connections,
            drops: self.network.total_drops(),
            transmitted: self.network.total_transmitted(),
            rtt_samples: self.rtt_samples,
            events: self.events_handled,
            wire_losses: self.network.total_wire_losses(),
            no_link_drops: self.network.no_link_drops(),
        }
    }

    /// Sends as many new segments as the window allows on a subflow.
    fn pump_new_data(&mut self, conn: usize, sub: usize) {
        loop {
            let sf = &mut self.connections[conn].subflows[sub];
            if !sf.sender.can_send() {
                break;
            }
            let seq = sf.sender.on_send(self.now);
            sf.send_times.insert(seq, self.now);
            self.inject_data(conn, sub, seq);
        }
    }

    /// Puts a data segment onto the first link of the subflow's forward path.
    fn inject_data(&mut self, conn: usize, sub: usize, seq: u64) {
        let link = self.connections[conn].subflows[sub].forward[0];
        let pkt = Packet { conn, subflow: sub, seq, ack: 0, is_ack: false, hop: 1 };
        let outcome = self.network.transmit_on(link, self.now, 1.0);
        self.schedule_outcome(outcome, pkt);
    }

    /// Handles a packet arriving at the node at index `hop` of its path.
    fn handle_arrival(&mut self, pkt: Packet) {
        let links = {
            let sf = &self.connections[pkt.conn].subflows[pkt.subflow];
            if pkt.is_ack {
                &sf.reverse
            } else {
                &sf.forward
            }
        };
        let Some(&link) = links.get(pkt.hop) else {
            // Reached the end of its path.
            if pkt.is_ack {
                self.handle_ack(pkt);
            } else {
                self.handle_data_delivery(pkt);
            }
            return;
        };
        // Forward to the next hop.
        let size = if pkt.is_ack { ACK_SIZE } else { 1.0 };
        let outcome = self.network.transmit_on(link, self.now, size);
        self.schedule_outcome(outcome, Packet { hop: pkt.hop + 1, ..pkt });
    }

    /// Data segment reached the destination host: update the receiver and
    /// send a cumulative ACK back along the reverse path.
    fn handle_data_delivery(&mut self, pkt: Packet) {
        let (ack_value, link) = {
            let sf = &mut self.connections[pkt.conn].subflows[pkt.subflow];
            (sf.receiver.on_data(pkt.seq), sf.reverse[0])
        };
        let ack_pkt = Packet {
            conn: pkt.conn,
            subflow: pkt.subflow,
            seq: pkt.seq,
            ack: ack_value,
            is_ack: true,
            hop: 1,
        };
        let outcome = self.network.transmit_on(link, self.now, ACK_SIZE);
        self.schedule_outcome(outcome, ack_pkt);
    }

    /// ACK reached the sender: run the congestion-control state machine.
    fn handle_ack(&mut self, pkt: Packet) {
        let increase = self.increase_for(pkt.conn, pkt.subflow);
        let action = {
            let sf = &mut self.connections[pkt.conn].subflows[pkt.subflow];
            // RTT sample only for segments never retransmitted (Karn's rule):
            // send_times entries are removed when a segment is retransmitted.
            let rtt_sample = sf.send_times.remove(pkt.seq).map(|t| self.now - t);
            // Collect post-warmup samples for the latency-histogram
            // experiments; recording does not perturb the simulation.
            if self.now >= self.config.warmup {
                if let Some(rtt) = rtt_sample {
                    self.rtt_samples.push(rtt);
                }
            }
            sf.sender.on_ack(pkt.ack, self.now, rtt_sample, increase)
        };
        match action {
            AckAction::NewData { .. } => {
                // NewReno-style partial-ACK handling: while still in fast
                // recovery, the ACK points at the next missing segment —
                // retransmit it immediately instead of waiting for the RTO.
                let partial = {
                    let s = &self.connections[pkt.conn].subflows[pkt.subflow].sender;
                    s.in_recovery().then_some(s.cum_acked)
                };
                if let Some(seq) = partial {
                    self.retransmit(pkt.conn, pkt.subflow, seq);
                }
                self.pump_new_data(pkt.conn, pkt.subflow);
            }
            AckAction::Duplicate => {}
            AckAction::FastRetransmit { seq } => {
                self.retransmit(pkt.conn, pkt.subflow, seq);
            }
        }
        // The per-subflow retransmission timer is kept armed by the
        // TimeoutCheck events themselves (one is always pending per subflow),
        // so nothing to schedule here.
    }

    /// Per-ACK congestion-avoidance increase: Reno for plain TCP, LIA for
    /// MPTCP connections.
    fn increase_for(&mut self, conn: usize, sub: usize) -> f64 {
        let c = &self.connections[conn];
        if !c.coupled {
            return 1.0 / c.subflows[sub].sender.cwnd.max(1.0);
        }
        self.lia_cwnds.clear();
        self.lia_cwnds.extend(c.subflows.iter().map(|s| s.sender.cwnd));
        self.lia_rtts.clear();
        let initial_rto = self.config.initial_rto;
        self.lia_rtts.extend(c.subflows.iter().map(|s| s.sender.srtt.unwrap_or(initial_rto)));
        lia_increase_per_ack(&self.lia_cwnds, &self.lia_rtts, sub)
    }

    fn retransmit(&mut self, conn: usize, sub: usize, seq: u64) {
        // Karn's rule: the retransmitted segment must not produce an RTT sample.
        self.connections[conn].subflows[sub].send_times.remove(seq);
        self.inject_data(conn, sub, seq);
    }

    fn handle_timeout_check(&mut self, conn: usize, sub: usize) {
        let (timed_out, rto, last_progress, in_flight) = {
            let s = &self.connections[conn].subflows[sub].sender;
            (s.timed_out(self.now), s.rto, s.last_progress, s.in_flight())
        };
        if timed_out {
            let seq = {
                let sf = &mut self.connections[conn].subflows[sub];
                let seq = sf.sender.on_timeout(self.now);
                sf.send_times.clear();
                seq
            };
            // Go-back-N restart: resend the first unacknowledged segment and
            // let the window rebuild from there.
            {
                let sf = &mut self.connections[conn].subflows[sub];
                let s = sf.sender.on_send(self.now);
                debug_assert_eq!(s, seq);
                sf.send_times.insert(s, self.now);
            }
            self.inject_data(conn, sub, seq);
            let new_rto = self.connections[conn].subflows[sub].sender.rto;
            self.schedule(self.now + new_rto, Event::TimeoutCheck { conn, subflow: sub });
        } else if in_flight > 0 {
            // Not yet expired: re-arm strictly in the future to avoid
            // zero-delay event loops when the check fires exactly at expiry.
            let next = (last_progress + rto).max(self.now + rto * 0.25);
            self.schedule(next, Event::TimeoutCheck { conn, subflow: sub });
        } else {
            // Idle subflow (nothing in flight): try to send and re-arm.
            self.pump_new_data(conn, sub);
            let s = &self.connections[conn].subflows[sub].sender;
            let next = (s.last_progress + s.rto).max(self.now + s.rto.max(0.01) * 0.25);
            self.schedule(next, Event::TimeoutCheck { conn, subflow: sub });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::TransportPolicy;
    use crate::workload::build_connections;
    use jellyfish_routing::path_table::RoutingScheme;
    use jellyfish_topology::JellyfishBuilder;
    use jellyfish_traffic::{ServerMap, TrafficMatrix};

    /// A mildly oversubscribed Jellyfish of the kind §5 evaluates: enough
    /// spare capacity that routing quality (not raw oversubscription) decides
    /// the throughput.
    fn small_sim(
        switches: usize,
        ports: usize,
        degree: usize,
        scheme: RoutingScheme,
        transport: TransportPolicy,
        seed: u64,
    ) -> SimReport {
        let topo = JellyfishBuilder::new(switches, ports, degree).seed(seed).build().unwrap();
        let servers = ServerMap::new(&topo);
        let csr = topo.csr();
        let tm = TrafficMatrix::random_permutation(&servers, seed ^ 0xABCD);
        let conns = build_connections(&csr, &servers, &tm, scheme, transport, seed);
        let net = Network::build(&csr, &servers, LinkParams::default());
        let config = SimConfig { duration: 6.0, warmup: 1.5, seed, ..Default::default() };
        Simulator::new(net, conns, config).run()
    }

    #[test]
    fn single_connection_saturates_its_nic() {
        // One sender, one receiver, dedicated path: TCP should reach ~full
        // NIC rate once the window has grown.
        let topo = JellyfishBuilder::new(4, 6, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        let tm = TrafficMatrix::from_flows(
            vec![jellyfish_traffic::Flow { src: 0, dst: 11, demand: 1.0 }],
            servers.num_servers(),
            "single",
        );
        let csr = topo.csr();
        let conns = build_connections(
            &csr,
            &servers,
            &tm,
            RoutingScheme::ksp8(),
            TransportPolicy::Tcp { flows: 1 },
            3,
        );
        let net = Network::build(&csr, &servers, LinkParams::default());
        let report = Simulator::new(
            net,
            conns,
            SimConfig { duration: 8.0, warmup: 2.0, ..Default::default() },
        )
        .run();
        assert_eq!(report.connections.len(), 1);
        let tput = report.connections[0].normalized_throughput;
        assert!(tput > 0.8, "single unconstrained flow got {tput}");
        assert!(tput <= 1.0);
    }

    #[test]
    fn two_flows_share_a_common_bottleneck_fairly() {
        // Two servers on switch 0 send to two servers on switch 1 over a
        // 2-switch topology (single inter-switch link is the bottleneck).
        let mut g = jellyfish_topology::Graph::new(2);
        g.add_edge(0, 1);
        let topo = jellyfish_topology::Topology::homogeneous(g, 4, 2);
        let servers = ServerMap::new(&topo);
        let tm = TrafficMatrix::from_flows(
            vec![
                jellyfish_traffic::Flow { src: 0, dst: 2, demand: 1.0 },
                jellyfish_traffic::Flow { src: 1, dst: 3, demand: 1.0 },
            ],
            servers.num_servers(),
            "bottleneck",
        );
        let csr = topo.csr();
        let conns = build_connections(
            &csr,
            &servers,
            &tm,
            RoutingScheme::ecmp8(),
            TransportPolicy::Tcp { flows: 1 },
            1,
        );
        let net = Network::build(&csr, &servers, LinkParams::default());
        let report = Simulator::new(
            net,
            conns,
            SimConfig { duration: 12.0, warmup: 3.0, ..Default::default() },
        )
        .run();
        let t: Vec<f64> = report.connections.iter().map(|c| c.normalized_throughput).collect();
        let sum = t[0] + t[1];
        assert!(sum > 0.7 && sum <= 1.05, "bottleneck share sum = {sum}");
        // Neither flow is starved (loss-synchronized TCP is short-term unfair,
        // so this is deliberately weaker than a 50/50 split check).
        assert!(t[0] > 0.1 && t[1] > 0.1, "starved flow in split {t:?}");
        assert!(report.drops > 0, "drop-tail bottleneck should drop packets");
    }

    #[test]
    fn routing_policies_produce_plausible_and_repeatable_throughput() {
        // Engine-level sanity for the Table 1 machinery at miniature scale:
        // every routing × transport combination achieves a plausible share of
        // the NIC rate, and a run is reproducible given its seed. (The actual
        // ECMP-vs-KSP ordering of Table 1 needs the paper's topology sizes,
        // where ECMP's shortest-path diversity genuinely runs out — see
        // EXPERIMENTS.md and the `figures run table1` command.)
        let ecmp =
            small_sim(12, 9, 6, RoutingScheme::ecmp8(), TransportPolicy::Mptcp { subflows: 8 }, 5);
        let ksp =
            small_sim(12, 9, 6, RoutingScheme::ksp8(), TransportPolicy::Mptcp { subflows: 8 }, 5);
        let tcp8 = small_sim(12, 9, 6, RoutingScheme::ksp8(), TransportPolicy::Tcp { flows: 8 }, 5);
        for (label, report) in [("ecmp/mptcp", &ecmp), ("ksp/mptcp", &ksp), ("ksp/tcp8", &tcp8)] {
            let m = report.mean_throughput();
            assert!(m > 0.3 && m <= 1.0, "{label}: implausible mean throughput {m}");
        }
        // KSP spreading keeps MPTCP within a small margin of the ECMP result
        // at this scale (the win appears at larger, oversubscribed sizes).
        assert!(ksp.mean_throughput() >= 0.8 * ecmp.mean_throughput());
        // Determinism: identical seed, identical result.
        let ksp_again =
            small_sim(12, 9, 6, RoutingScheme::ksp8(), TransportPolicy::Mptcp { subflows: 8 }, 5);
        assert_eq!(ksp.mean_throughput(), ksp_again.mean_throughput());
    }

    #[test]
    fn report_helpers() {
        let report = SimReport {
            connections: vec![
                ConnectionStats { src_server: 0, dst_server: 1, normalized_throughput: 0.5 },
                ConnectionStats { src_server: 1, dst_server: 0, normalized_throughput: 1.0 },
            ],
            drops: 3,
            transmitted: 100,
            rtt_samples: vec![0.01, 0.02],
            events: 250,
            wire_losses: 1,
            no_link_drops: 0,
        };
        assert!((report.mean_throughput() - 0.75).abs() < 1e-12);
        let throughputs: Vec<f64> =
            report.connections.iter().map(|c| c.normalized_throughput).collect();
        assert_eq!(throughputs, vec![0.5, 1.0]);
        let empty = SimReport {
            connections: vec![],
            drops: 0,
            transmitted: 0,
            rtt_samples: vec![],
            events: 0,
            wire_losses: 0,
            no_link_drops: 0,
        };
        assert_eq!(empty.mean_throughput(), 0.0);
    }

    #[test]
    fn send_times_keep_entries_below_the_cumulative_ack() {
        let mut t = SendTimes::default();
        assert_eq!(t.remove(3), None, "reading past the end is absent, not a panic");
        t.insert(2, 0.5);
        t.insert(0, 0.25);
        assert_eq!(t.remove(1), None, "a gap is absent");
        assert_eq!(t.remove(0), Some(0.25));
        assert_eq!(t.remove(0), None, "a removed entry is gone");
        assert_eq!(t.remove(2), Some(0.5));
        t.insert(4, 1.0);
        t.clear();
        assert_eq!(t.remove(4), None, "clear drops every entry");
    }

    #[test]
    fn runs_collect_post_warmup_rtt_samples() {
        let report =
            small_sim(12, 9, 6, RoutingScheme::ksp8(), TransportPolicy::Tcp { flows: 1 }, 5);
        assert!(!report.rtt_samples.is_empty(), "a busy run must observe RTTs");
        // Every sample is at least one uncongested round trip.
        let params = LinkParams::default();
        let floor = 2.0 * (params.delay + 1.0 / params.rate);
        assert!(report.rtt_samples.iter().all(|&r| r >= floor - 1e-12));
    }

    #[test]
    fn impaired_engine_degrades_but_still_progresses() {
        use jellyfish_topology::spec::ImpairConfig;
        let run = |cfg: Option<ImpairConfig>| {
            let topo = JellyfishBuilder::new(12, 9, 6).seed(5).build().unwrap();
            let servers = ServerMap::new(&topo);
            let csr = topo.csr();
            let tm = TrafficMatrix::random_permutation(&servers, 5 ^ 0xABCD);
            let conns = build_connections(
                &csr,
                &servers,
                &tm,
                RoutingScheme::ksp8(),
                TransportPolicy::Mptcp { subflows: 8 },
                5,
            );
            let mut net = Network::build(&csr, &servers, LinkParams::default());
            if let Some(cfg) = cfg {
                net = net.with_impairment(cfg, 17);
            }
            let config = SimConfig { duration: 6.0, warmup: 1.5, seed: 5, ..Default::default() };
            Simulator::new(net, conns, config).run()
        };
        let ideal = run(None);
        let lossy = run(Some(ImpairConfig { loss: 0.03, ..Default::default() }));
        assert!(lossy.mean_throughput() > 0.05, "3% loss must not collapse the fabric");
        assert!(
            lossy.mean_throughput() < ideal.mean_throughput(),
            "loss should cost throughput: {} !< {}",
            lossy.mean_throughput(),
            ideal.mean_throughput()
        );
        // Attaching an all-default impairment is arithmetically invisible.
        let noop = run(Some(ImpairConfig::default()));
        assert_eq!(noop.mean_throughput(), ideal.mean_throughput());
        assert_eq!(noop.drops, ideal.drops);
        // Determinism under impairment.
        let lossy_again = run(Some(ImpairConfig { loss: 0.03, ..Default::default() }));
        assert_eq!(lossy.mean_throughput(), lossy_again.mean_throughput());
        assert_eq!(lossy.drops, lossy_again.drops);
    }
}
