//! Fixture: shared mutable state in what the test presents as a behavior
//! crate → shared-state-in-behavior (lines 5, 6, 9, 10 and 11). Touches no
//! wire messages; the `#[cfg(test)]` module is skipped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

pub struct Tally {
    seen: Arc<RwLock<Vec<u64>>>,
    next: AtomicU64,
    lock: std::sync::Mutex<()>,
}

impl Tally {
    pub fn bump(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
}
