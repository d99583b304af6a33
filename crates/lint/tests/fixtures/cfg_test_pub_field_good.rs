//! Known-good twin: the same struct and `#[cfg(test)] pub(crate)` field,
//! and the hot path fills the caller's buffer instead.

pub(crate) struct RateJob {
    pub(crate) dirty: Vec<u32>,
    #[cfg(test)]
    pub(crate) panic_on_flow: Option<u32>,
}

impl RateJob {
    /// Copies the dirty list into the caller's scratch buffer.
    pub(crate) fn dirty_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.dirty);
    }
}
