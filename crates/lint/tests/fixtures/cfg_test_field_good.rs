//! Known-good twin: the same struct and `#[cfg(test)]` field, and the
//! cached write is paired with a dirty mark.

pub(crate) struct StepState {
    cached_utility: f64,
    dirty_flows: Vec<u32>,
    #[cfg(test)]
    panic_on_flow: Option<u32>,
}

impl StepState {
    /// Publishes the utility and records the flow that moved it.
    pub(crate) fn publish(&mut self, total: f64, flow: u32) {
        self.cached_utility = total;
        self.dirty_flows.push(flow);
    }
}
