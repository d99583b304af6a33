//! Known-bad fixture: a `#[cfg(test)]` field closes its struct, and the
//! impl right after it writes cached state with no path to the dirty-set
//! API. The field's test region must end at the struct's `}`.

pub(crate) struct StepState {
    cached_utility: f64,
    dirty_flows: Vec<u32>,
    #[cfg(test)]
    panic_on_flow: Option<u32>,
}

impl StepState {
    /// Overwrites the cached utility and never marks anything dirty.
    pub(crate) fn clobber(&mut self, total: f64) {
        self.cached_utility = total;
    }
}
