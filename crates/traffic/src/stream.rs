//! Lazy flow streams: workloads as iterators.
//!
//! A [`FlowStream`] yields [`Flow`]s one at a time, so workloads whose flow
//! count is quadratic in the server count (all-to-all at a million servers)
//! never materialize a flow `Vec`: every consumer takes any
//! `IntoIterator<Item = Flow>`, and the ones that only need aggregates
//! ([`crate::switch_demands`], and through it the flow solver) run in memory
//! bounded by the aggregation state, not the flow count. There is no
//! conversion back to a resident matrix; a consumer that needs every flow
//! resident (the simulator's connection builder) collects them itself.
//!
//! Streams are deterministic: a stream is a pure function of the spec that
//! built it plus its seed, and iterating it twice (by rebuilding) yields the
//! identical flow sequence in the identical order — which is what keeps the
//! float accumulation order in [`crate::switch_demands`] byte-stable across
//! shards (see LINTS.md, rule D01).

use crate::Flow;
use std::fmt;

/// A lazy, epoch-aware iterator over the flows of one workload instance.
///
/// Created by the generators in [`crate::spec`]. Every generator knows its
/// flow count up front, so the stream is an [`ExactSizeIterator`].
pub struct FlowStream {
    inner: Box<dyn Iterator<Item = Flow> + Send>,
    len: usize,
}

impl fmt::Debug for FlowStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowStream").field("len", &self.len).finish_non_exhaustive()
    }
}

impl FlowStream {
    /// Wraps an iterator that yields exactly `len` flows as a stream.
    pub fn new(len: usize, inner: impl Iterator<Item = Flow> + Send + 'static) -> Self {
        FlowStream { inner: Box::new(inner), len }
    }

    /// A stream over an already-materialized flow list (the flows are
    /// moved, not copied).
    pub fn from_flows(flows: Vec<Flow>) -> Self {
        FlowStream::new(flows.len(), flows.into_iter())
    }

    /// Concatenates `parts` into one stream (epoch phases, mix components).
    pub fn concat(parts: Vec<FlowStream>) -> Self {
        let len = parts.iter().map(ExactSizeIterator::len).sum();
        FlowStream::new(len, parts.into_iter().flatten())
    }

    /// Scales every demand by `factor` (epoch weighting, `+scale_demand=`).
    pub fn scaled(self, factor: f64) -> FlowStream {
        let FlowStream { inner, len } = self;
        FlowStream::new(len, inner.map(move |f| Flow { demand: f.demand * factor, ..f }))
    }
}

impl Iterator for FlowStream {
    type Item = Flow;

    fn next(&mut self) -> Option<Flow> {
        let next = self.inner.next();
        if next.is_some() {
            self.len = self.len.saturating_sub(1);
        }
        next
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for FlowStream {}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(n: usize) -> Vec<Flow> {
        (0..n).map(|s| Flow { src: s, dst: (s + 1) % n, demand: 1.0 }).collect()
    }

    #[test]
    fn from_flows_round_trips_through_collect() {
        let fs = FlowStream::from_flows(flows(4));
        assert_eq!(fs.len(), 4);
        let collected: Vec<Flow> = fs.collect();
        assert_eq!(collected, flows(4));
    }

    #[test]
    fn scaled_multiplies_demands_and_keeps_len() {
        let fs = FlowStream::from_flows(flows(4)).scaled(0.25);
        assert_eq!(fs.len(), 4);
        for f in fs {
            assert!((f.demand - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn concat_chains_parts_in_order() {
        let a = FlowStream::from_flows(flows(2));
        let b = FlowStream::from_flows(flows(3));
        let c = FlowStream::concat(vec![a, b]);
        assert_eq!(c.len(), 5);
        let got: Vec<Flow> = c.collect();
        let mut want = flows(2);
        want.extend(flows(3));
        assert_eq!(got, want);
    }

    #[test]
    fn size_hint_tracks_consumption() {
        let mut fs = FlowStream::from_flows(flows(4));
        assert_eq!(fs.size_hint(), (4, Some(4)));
        fs.next();
        assert_eq!(fs.size_hint(), (3, Some(3)));
    }
}
