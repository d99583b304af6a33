//! Known-bad fixture: lane-batched f64 reduction in crates/core
//! library code.

/// Chunked reduction: reassociates the adds.
pub fn chunked_sum(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ch in xs.chunks_exact(4) {
        acc += ch[0] + ch[1] + ch[2] + ch[3];
    }
    acc
}

/// Manual two-lane unrolling, recombined at the end.
pub fn unrolled_sum(xs: &[f64]) -> f64 {
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut i = 0;
    while i + 1 < xs.len() {
        s0 += xs[i];
        s1 += xs[i + 1];
        i += 2;
    }
    s0 + s1
}
