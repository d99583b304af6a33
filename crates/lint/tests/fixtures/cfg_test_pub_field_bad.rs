//! Known-bad fixture (analyzed under a kernel label): a `#[cfg(test)]
//! pub(crate)` field closes its struct, and the impl right after it
//! allocates on the hot path. The field's test region must end at the
//! struct's `}`.

pub(crate) struct RateJob {
    pub(crate) dirty: Vec<u32>,
    #[cfg(test)]
    pub(crate) panic_on_flow: Option<u32>,
}

impl RateJob {
    /// Copies the dirty list into a fresh Vec on every call.
    pub(crate) fn dirty_copy(&self) -> Vec<u32> {
        self.dirty.iter().copied().collect()
    }
}
