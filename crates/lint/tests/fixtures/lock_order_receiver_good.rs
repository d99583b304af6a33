//! Known-good twin: `drain` calls `drain` on the guarded buffer. The call
//! shares the fn's name but not its receiver, so it is `Vec::drain`, not a
//! recursive acquisition of `slot`.

impl Pool {
    /// Moves each slot's buffered results out under its lock.
    pub fn drain(&self, out: &mut Vec<u32>) {
        for slot in &self.slots {
            let mut slot = slot.lock();
            for x in slot.buf.drain(..) {
                out.push(x);
            }
        }
    }
}
