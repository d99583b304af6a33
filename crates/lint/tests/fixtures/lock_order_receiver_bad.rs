//! Known-bad fixture: `drain` calls itself through `self` while its own
//! `slot` guard is live, so the recursion re-takes a lock its caller holds.

impl Pool {
    /// Moves the slot's buffered results out, then recurses under the
    /// guard: `slot` → `slot`.
    pub fn drain(&self, out: &mut Vec<u32>) {
        let mut slot = self.slot.lock();
        out.extend(slot.buf.drain(..));
        if slot.again {
            self.drain(out);
        }
    }
}
