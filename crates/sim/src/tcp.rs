//! TCP sender and receiver state machines (Reno-style).
//!
//! The sender implements slow start, congestion avoidance, fast retransmit on
//! three duplicate ACKs with window halving, and a coarse retransmission
//! timeout that resets the window to one segment. Sequence numbers count
//! whole segments (the simulator's packets all carry one MSS).
//!
//! The *increase* step is pluggable: plain TCP adds 1 segment per RTT in
//! congestion avoidance, while MPTCP's LIA (see [`crate::mptcp`]) supplies a
//! coupled increase that depends on all of a connection's subflows.

/// What the sender should do after processing an acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AckAction {
    /// `count` new segments were acknowledged; the window has been increased
    /// and more data may be sent.
    NewData {
        /// Number of newly acknowledged segments.
        count: u64,
    },
    /// A duplicate ACK that did not (yet) trigger recovery.
    Duplicate,
    /// Third duplicate ACK: the segment with the returned sequence number
    /// must be retransmitted immediately (fast retransmit).
    FastRetransmit {
        /// Sequence number to retransmit.
        seq: u64,
    },
}

/// Reno-style TCP sender state for one (sub)flow with an infinite backlog.
#[derive(Debug, Clone)]
pub struct TcpSender {
    /// Congestion window in segments (fractional growth, floor() usable).
    pub cwnd: f64,
    /// Slow-start threshold in segments.
    pub ssthresh: f64,
    /// Next new sequence number to be sent.
    pub next_seq: u64,
    /// Highest cumulatively acknowledged sequence number (all seqs < this
    /// are acknowledged).
    pub cum_acked: u64,
    /// Consecutive duplicate ACK count.
    dup_acks: u32,
    /// Whether we are in fast recovery, and until which sequence number.
    recovery_until: Option<u64>,
    /// Smoothed RTT estimate (time units); `None` until the first sample.
    pub srtt: Option<f64>,
    /// RTT variance estimate.
    rttvar: f64,
    /// Current retransmission timeout.
    pub rto: f64,
    /// Time of the last event that should postpone the RTO (send or new ack).
    pub last_progress: f64,
    /// Segments acknowledged in total (goodput counter).
    pub delivered: u64,
}

impl TcpSender {
    /// Creates a sender with an initial window of `initial_cwnd` segments and
    /// an initial RTO guess.
    pub fn new(initial_cwnd: f64, initial_rto: f64) -> Self {
        TcpSender {
            cwnd: initial_cwnd.max(1.0),
            // Finite initial slow-start threshold: without SACK, overshooting
            // the bottleneck buffer by a whole window costs several RTTs of
            // loss recovery, so senders switch to congestion avoidance at a
            // moderate window (htsim uses a similar default).
            ssthresh: 64.0,
            next_seq: 0,
            cum_acked: 0,
            dup_acks: 0,
            recovery_until: None,
            srtt: None,
            rttvar: 0.0,
            rto: initial_rto,
            last_progress: 0.0,
            delivered: 0,
        }
    }

    /// Number of segments currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.next_seq.saturating_sub(self.cum_acked)
    }

    /// Whether the window allows sending another new segment.
    pub fn can_send(&self) -> bool {
        (self.in_flight() as f64) < self.cwnd.floor().max(1.0)
    }

    /// Whether the sender is currently in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Whether the sender is in fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.recovery_until.is_some()
    }

    /// Registers that a new segment was sent, returning its sequence number.
    pub fn on_send(&mut self, now: f64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.in_flight() == 1 {
            self.last_progress = now;
        }
        seq
    }

    /// Processes a cumulative acknowledgement `ack` (next expected sequence
    /// number) received at time `now`, with an optional RTT sample.
    ///
    /// `increase_per_segment` is the congestion-avoidance window increment to
    /// apply per newly acknowledged segment (Reno: `1/cwnd`; LIA: coupled
    /// value from [`crate::mptcp::lia_increase_per_ack`]). Slow start always
    /// adds one segment per newly acknowledged segment regardless.
    pub fn on_ack(
        &mut self,
        ack: u64,
        now: f64,
        rtt_sample: Option<f64>,
        increase_per_segment: f64,
    ) -> AckAction {
        if let Some(rtt) = rtt_sample {
            self.update_rtt(rtt);
        }
        if ack > self.cum_acked {
            let count = ack - self.cum_acked;
            self.cum_acked = ack;
            // After an RTO the send sequence is rewound (go-back-N); ACKs for
            // segments that were still in the network may then overtake it.
            self.next_seq = self.next_seq.max(ack);
            self.delivered += count;
            self.dup_acks = 0;
            self.last_progress = now;
            if let Some(until) = self.recovery_until {
                if ack >= until {
                    self.recovery_until = None;
                    self.cwnd = self.ssthresh.max(1.0);
                }
            }
            if !self.in_recovery() {
                for _ in 0..count {
                    if self.in_slow_start() {
                        self.cwnd += 1.0;
                    } else {
                        self.cwnd += increase_per_segment.max(0.0);
                    }
                }
            }
            AckAction::NewData { count }
        } else {
            // Duplicate cumulative ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery() && self.in_flight() > 0 {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.recovery_until = Some(self.next_seq);
                AckAction::FastRetransmit { seq: self.cum_acked }
            } else {
                AckAction::Duplicate
            }
        }
    }

    /// Handles an expired retransmission timer: collapse the window to one
    /// segment and go back to the first unacknowledged sequence number.
    /// Returns the sequence number to resend.
    pub fn on_timeout(&mut self, now: f64) -> u64 {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.recovery_until = None;
        self.next_seq = self.cum_acked;
        self.rto = (self.rto * 2.0).min(60.0);
        self.last_progress = now;
        self.cum_acked
    }

    /// Whether the retransmission timer has expired at `now` (only meaningful
    /// while data is in flight).
    pub fn timed_out(&self, now: f64) -> bool {
        self.in_flight() > 0 && now - self.last_progress > self.rto
    }

    fn update_rtt(&mut self, sample: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(srtt) => {
                let err = (sample - srtt).abs();
                self.rttvar = 0.75 * self.rttvar + 0.25 * err;
                self.srtt = Some(0.875 * srtt + 0.125 * sample);
            }
        }
        self.rto = (self.srtt.unwrap() + 4.0 * self.rttvar).max(0.01);
    }
}

/// TCP receiver state: tracks the next expected sequence number and buffers
/// out-of-order segments, producing cumulative ACK values.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    rcv_next: u64,
    out_of_order: std::collections::BTreeSet<u64>,
}

impl TcpReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes an arriving data segment and returns the cumulative ACK to
    /// send back (next expected sequence number).
    pub fn on_data(&mut self, seq: u64) -> u64 {
        if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.out_of_order.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
        } else if seq > self.rcv_next {
            self.out_of_order.insert(seq);
        }
        self.rcv_next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reno_increase(s: &TcpSender) -> f64 {
        1.0 / s.cwnd.max(1.0)
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(2.0, 1.0);
        assert!(s.in_slow_start());
        // Send 2, ack 2: window becomes 4.
        s.on_send(0.0);
        s.on_send(0.0);
        let inc = reno_increase(&s);
        assert_eq!(s.on_ack(2, 0.1, Some(0.1), inc), AckAction::NewData { count: 2 });
        assert!((s.cwnd - 4.0).abs() < 1e-9);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn congestion_avoidance_adds_one_per_rtt() {
        let mut s = TcpSender::new(10.0, 1.0);
        s.ssthresh = 5.0; // force congestion avoidance
        assert!(!s.in_slow_start());
        for _ in 0..10 {
            s.on_send(0.0);
        }
        // Ack all 10 with per-segment increase 1/cwnd: net ~ +1.
        for a in 1..=10u64 {
            let inc = reno_increase(&s);
            s.on_ack(a, 0.1, None, inc);
        }
        assert!((s.cwnd - 11.0).abs() < 0.05, "cwnd = {}", s.cwnd);
    }

    #[test]
    fn triple_duplicate_ack_triggers_fast_retransmit() {
        let mut s = TcpSender::new(8.0, 1.0);
        s.ssthresh = 4.0;
        for _ in 0..8 {
            s.on_send(0.0);
        }
        // Packet 0 lost: receiver keeps acking 0.
        assert_eq!(s.on_ack(0, 0.1, None, 0.1), AckAction::Duplicate);
        assert_eq!(s.on_ack(0, 0.2, None, 0.1), AckAction::Duplicate);
        let action = s.on_ack(0, 0.3, None, 0.1);
        assert_eq!(action, AckAction::FastRetransmit { seq: 0 });
        assert!(s.in_recovery());
        assert!((s.cwnd - 4.0).abs() < 1e-9, "window halved, cwnd = {}", s.cwnd);
        // Further dupacks do not retrigger.
        assert_eq!(s.on_ack(0, 0.4, None, 0.1), AckAction::Duplicate);
        // A new cumulative ack past the recovery point exits recovery.
        let out = s.on_ack(8, 0.5, None, 0.1);
        assert_eq!(out, AckAction::NewData { count: 8 });
        assert!(!s.in_recovery());
    }

    #[test]
    fn window_does_not_grow_during_recovery() {
        let mut s = TcpSender::new(8.0, 1.0);
        s.ssthresh = 2.0;
        for _ in 0..8 {
            s.on_send(0.0);
        }
        for _ in 0..3 {
            s.on_ack(0, 0.1, None, 0.5);
        }
        let cwnd_at_recovery = s.cwnd;
        // Partial ack (still below recovery point) acknowledges new data but
        // must not inflate the window.
        s.on_ack(4, 0.2, None, 0.5);
        assert!(s.cwnd <= cwnd_at_recovery + 1e-9);
    }

    #[test]
    fn timeout_collapses_window_and_goes_back() {
        let mut s = TcpSender::new(16.0, 0.5);
        s.ssthresh = 16.0;
        for _ in 0..10 {
            s.on_send(0.0);
        }
        assert!(!s.timed_out(0.4));
        assert!(s.timed_out(1.0));
        let resend = s.on_timeout(1.0);
        assert_eq!(resend, 0);
        assert_eq!(s.cwnd, 1.0);
        assert_eq!(s.next_seq, 0);
        assert!((s.ssthresh - 8.0).abs() < 1e-9);
        assert!(s.rto >= 1.0, "rto must back off");
        assert!(!s.timed_out(1.2));
    }

    #[test]
    fn can_send_respects_window() {
        let mut s = TcpSender::new(2.0, 1.0);
        assert!(s.can_send());
        s.on_send(0.0);
        assert!(s.can_send());
        s.on_send(0.0);
        assert!(!s.can_send());
        s.on_ack(1, 0.1, None, 0.5);
        assert!(s.can_send());
    }

    #[test]
    fn rtt_estimation_converges_and_sets_rto() {
        let mut s = TcpSender::new(4.0, 3.0);
        for i in 0..50 {
            s.on_send(i as f64);
            s.on_ack(i + 1, i as f64 + 0.2, Some(0.2), 0.1);
        }
        let srtt = s.srtt.unwrap();
        assert!((srtt - 0.2).abs() < 0.02);
        assert!(s.rto < 1.0 && s.rto >= 0.2);
    }

    #[test]
    fn receiver_cumulative_and_out_of_order() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(0), 1);
        assert_eq!(r.on_data(2), 1, "gap: ack stays at 1");
        assert_eq!(r.on_data(3), 1);
        assert_eq!(r.on_data(1), 4, "filling the gap drains the buffer");
        assert_eq!(r.rcv_next, 4);
        // Duplicate data does not regress the ACK.
        assert_eq!(r.on_data(2), 4);
    }
}
