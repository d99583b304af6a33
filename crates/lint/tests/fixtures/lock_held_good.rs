//! Known-good fixture: guards are scoped or dropped before blocking.

/// The guard lives in its own block, closed before the join.
pub fn drain(state: &SharedState, handle: Handle) {
    {
        let guard = state.inner.lock_unpoisoned();
        finish(&guard);
    }
    handle.join();
}

/// Explicit drop before blocking.
pub fn poll(state: &SharedState) -> u64 {
    let snapshot = state.inner.read();
    let epoch = snapshot.epoch;
    drop(snapshot);
    sleep(POLL_INTERVAL);
    epoch
}

/// Condvar waits release the guard they are given: exempt.
pub fn await_work(state: &SharedState, cv: &Condvar) {
    let mut guard = state.inner.lock_unpoisoned();
    while guard.remaining > 0 {
        guard = cv.wait(guard);
    }
}
