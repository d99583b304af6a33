//! Known-bad fixture (analyzed under a kernel label): converting an
//! `impl Into<String>` parameter builds a `String` on every call.

/// Names the step's output on every call.
pub fn label(name: impl Into<String>) -> usize {
    let name: String = name.into();
    name.len()
}
