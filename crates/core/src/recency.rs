//! An intrusive recency order over dense slot indices: O(1) LRU
//! bookkeeping for tables that keep their entries in a `Vec`.
//!
//! The GPHT's pattern rows and the decision engine's per-pid states both
//! evict their least recently used entry. A doubly linked list threaded
//! through the slot indices makes a touch and the victim pick O(1), with
//! one link per slot and no allocation once every slot has been used.

/// End-of-list marker.
const NIL: u32 = u32::MAX;

/// A slot's neighbours; an unlinked slot points at itself.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Neighbour toward the most recently used end.
    newer: u32,
    /// Neighbour toward the least recently used end.
    older: u32,
}

/// Slots ordered from most to least recently used.
///
/// ```
/// use livephase_core::RecencyList;
///
/// let mut order = RecencyList::new();
/// for slot in 0..3 {
///     order.touch(slot);
/// }
/// order.touch(0);
/// assert_eq!(order.lru(), Some(1));
/// order.remove(1);
/// assert_eq!(order.lru(), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct RecencyList {
    links: Vec<Link>,
    mru: u32,
    lru: u32,
}

impl Default for RecencyList {
    fn default() -> Self {
        Self::new()
    }
}

impl RecencyList {
    /// An empty order.
    #[must_use]
    pub fn new() -> Self {
        Self {
            links: Vec::new(),
            mru: NIL,
            lru: NIL,
        }
    }

    /// The least recently used linked slot, if any.
    #[must_use]
    pub fn lru(&self) -> Option<u32> {
        (self.lru != NIL).then_some(self.lru)
    }

    /// Makes `slot` the most recently used, linking it if it is not in
    /// the order yet. Slots are meant to be dense: touching a slot past
    /// the highest one seen so far reserves a link for each slot between.
    pub fn touch(&mut self, slot: u32) {
        while self.links.len() <= slot as usize {
            let unlinked = self.links.len() as u32;
            self.links.push(Link {
                newer: unlinked,
                older: unlinked,
            });
        }
        if self.mru == slot {
            return;
        }
        self.remove(slot);
        let old_mru = self.mru;
        if let Some(l) = self.links.get_mut(slot as usize) {
            l.newer = NIL;
            l.older = old_mru;
        }
        match self.links.get_mut(old_mru as usize) {
            Some(m) => m.newer = slot,
            None => self.lru = slot,
        }
        self.mru = slot;
    }

    /// Takes `slot` out of the order; a no-op if it is not linked.
    pub fn remove(&mut self, slot: u32) {
        let Some(&Link { newer, older }) = self.links.get(slot as usize) else {
            return;
        };
        if newer == slot {
            return;
        }
        match self.links.get_mut(newer as usize) {
            Some(n) => n.older = older,
            None => self.mru = older,
        }
        match self.links.get_mut(older as usize) {
            Some(o) => o.newer = newer,
            None => self.lru = newer,
        }
        if let Some(l) = self.links.get_mut(slot as usize) {
            *l = Link {
                newer: slot,
                older: slot,
            };
        }
    }

    /// Empties the order, keeping its storage.
    pub fn clear(&mut self) {
        self.links.clear();
        self.mru = NIL;
        self.lru = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the order from least to most recently used.
    fn drain(mut order: RecencyList) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(slot) = order.lru() {
            out.push(slot);
            order.remove(slot);
        }
        out
    }

    #[test]
    fn touches_reorder_and_removes_unlink() {
        let mut order = RecencyList::new();
        assert_eq!(order.lru(), None);
        for slot in [0, 1, 2, 3] {
            order.touch(slot);
        }
        order.touch(1);
        order.touch(3);
        order.remove(2);
        order.remove(2);
        assert_eq!(drain(order.clone()), vec![0, 1, 3]);
        order.touch(2);
        assert_eq!(drain(order.clone()), vec![0, 1, 3, 2]);
        order.clear();
        assert_eq!(order.lru(), None);
        order.touch(5);
        assert_eq!(drain(order), vec![5], "gap slots stay unlinked");
    }
}
