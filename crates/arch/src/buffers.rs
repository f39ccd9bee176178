//! The per-array FIFOs of the §3.3 buffer hierarchy.
//!
//! Each array has small input/output FIFOs that decouple it from the bank
//! when NBVA stalls desynchronize the arrays. The bank's ping-pong input
//! window and output buffer are modeled by `rap-sim`'s bank run, which
//! executes them.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A bounded FIFO.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fifo<T> {
    capacity: usize,
    items: VecDeque<T>,
}

impl<T> Fifo<T> {
    /// Creates an empty FIFO with the given capacity. Storage grows with
    /// occupancy, so a capacity read from an untrusted plan costs only the
    /// entries actually buffered.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Fifo<T> {
        assert!(capacity > 0, "FIFO capacity must be positive");
        Fifo {
            capacity,
            items: VecDeque::new(),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the FIFO is full.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Enqueues an item; returns it back on overflow (caller must stall).
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let mut f = Fifo::new(2);
        assert!(f.push(1).is_ok());
        assert!(f.push(2).is_ok());
        assert_eq!(f.push(3), Err(3));
        assert!(f.is_full());
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.front(), Some(&2));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn fifo_zero_capacity_rejected() {
        let _: Fifo<u8> = Fifo::new(0);
    }
}
