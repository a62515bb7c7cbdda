//! Fixture: shared atomic tallies versus indexed per-element cells.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Forest {
    finds: AtomicU64,
    lines: (AtomicU64,),
    counts: Vec<AtomicU64>,
}

impl Forest {
    // ordering: Relaxed — fixture tallies, read after the workers join.
    pub fn find(&self, x: usize) -> usize {
        self.finds.fetch_add(1, Ordering::Relaxed);
        self.lines.0.fetch_add(1, Ordering::Relaxed);
        self.counts[x].fetch_add(1, Ordering::Relaxed);
        // analyze-allow: shared-tally -- fixture: a waived shared bump is counted, not reported
        self.finds.fetch_add(1, Ordering::Relaxed);
        x
    }
}

#[cfg(test)]
mod tests {
    // ordering: Relaxed — a test's own tally.
    fn tally(c: &std::sync::atomic::AtomicU64) {
        c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}
