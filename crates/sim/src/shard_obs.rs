//! Per-shard dispatch accounting for the sharded kernel.
//!
//! The kernel's own metrics are two global histograms, so load skew
//! across quadrants and epoch-barrier stalls — the blockers ahead of true
//! OS-thread workers — would otherwise stay invisible. [`ShardObs`] holds
//! fixed per-slot arrays the sharded scheduler fills while it runs:
//! events dispatched, cross-shard events staged (when a dispatch pushes
//! them) and applied (when the barrier's mailbox exchange enters them
//! into their destination queue), barrier-stall units, and per-lane
//! queue depth. Every update is an array index; nothing allocates after
//! construction, and nothing is written into the kernel's own stats,
//! trace, or metrics — the bit-identical-observables contract of
//! [`crate::shard`] is untouched.
//!
//! Barrier-stall attribution: within one window every slot dispatches
//! independently and the epoch barrier waits for the straggler. With
//! deterministic lanes the wait is virtual, so the stall charged to a
//! slot is the skew proxy `straggler_events − own_events` — how many
//! dispatches the busiest shard performed while this shard's window was
//! already drained. Summed over windows it ranks exactly the quadrants
//! that would idle real OS threads.

/// Per-slot dispatch accounting filled by
/// [`Kernel::run_sharded`](crate::kernel::Kernel); slots are the
/// shards `0..shard_count` plus the global pseudo-shard at index
/// `shard_count`.
#[derive(Debug, Clone)]
pub struct ShardObs {
    shard_count: u32,
    events: Vec<u64>,
    cross_staged: Vec<u64>,
    cross_applied: Vec<u64>,
    barrier_stall: Vec<u64>,
    depth_max: Vec<u64>,
    depth_sum: Vec<u64>,
    /// Scratch: this window's per-slot dispatch counts.
    window_events: Vec<u64>,
    windows: u64,
    undercount: bool,
}

impl ShardObs {
    /// Accounting arrays for `shard_count` shards (plus the global slot).
    /// All storage is allocated here; recording is allocation-free.
    pub fn new(shard_count: u32) -> Self {
        let slots = shard_count as usize + 1;
        ShardObs {
            shard_count,
            events: vec![0; slots],
            cross_staged: vec![0; slots],
            cross_applied: vec![0; slots],
            barrier_stall: vec![0; slots],
            depth_max: vec![0; slots],
            depth_sum: vec![0; slots],
            window_events: vec![0; slots],
            windows: 0,
            undercount: false,
        }
    }

    /// Deliberately drops the first dispatch of every window from shard
    /// 0's event counter. Exists so TC010 can prove it notices a
    /// per-shard accounting leak — never use outside mutation tests.
    #[doc(hidden)]
    pub fn with_undercount_tap(mut self) -> Self {
        self.undercount = true;
        self
    }

    /// Shard count this accounting covers (excluding the global slot).
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// Number of processing slots: one per shard plus the global slot.
    pub fn slot_count(&self) -> usize {
        self.shard_count as usize + 1
    }

    /// Barrier windows completed.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Events dispatched on `slot`.
    pub fn events(&self, slot: usize) -> u64 {
        self.events[slot]
    }

    /// Sum of per-slot event counters (the quantity TC010 holds to the
    /// kernel's independent dispatch total).
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Cross-shard events staged *from* `slot` (outgoing).
    pub fn cross_staged(&self, slot: usize) -> u64 {
        self.cross_staged[slot]
    }

    /// Cross-shard events applied *into* `slot` (incoming).
    pub fn cross_applied(&self, slot: usize) -> u64 {
        self.cross_applied[slot]
    }

    /// Total cross-shard events (shard-to-shard; global-slot traffic is
    /// not counted — the certificate's closed form covers only the
    /// quadrant boundary).
    pub fn cross_total(&self) -> u64 {
        self.cross_applied.iter().sum()
    }

    /// Barrier-stall units charged to `slot` (see the module docs).
    pub fn barrier_stall(&self, slot: usize) -> u64 {
        self.barrier_stall[slot]
    }

    /// Deepest post-barrier queue observed on `slot`'s lane.
    pub fn depth_max(&self, slot: usize) -> u64 {
        self.depth_max[slot]
    }

    /// Sum of post-barrier queue depths on `slot` (divide by
    /// [`ShardObs::windows`] for the mean).
    pub fn depth_sum(&self, slot: usize) -> u64 {
        self.depth_sum[slot]
    }

    /// Records one dispatch on `slot` (in canonical barrier order).
    pub(crate) fn note_dispatch(&mut self, slot: usize) {
        if !(self.undercount && slot == 0 && self.window_events[0] == 0) {
            self.events[slot] += 1;
        }
        self.window_events[slot] += 1;
    }

    /// Records one cross-shard event staged from `from` toward `to`, at
    /// dispatch. Only shard-to-shard traffic counts; the global
    /// pseudo-slot is outside the certified boundary geometry.
    pub(crate) fn note_staged(&mut self, from: usize, to: usize) {
        if self.is_shard_pair(from, to) {
            self.cross_staged[from] += 1;
        }
    }

    /// Records one cross-shard event from `from` entering `to`'s queue
    /// at the barrier's mailbox exchange. Counted apart from
    /// [`ShardObs::note_staged`], so an event the exchange loses or
    /// duplicates unbalances the two totals.
    pub(crate) fn note_applied(&mut self, from: usize, to: usize) {
        if self.is_shard_pair(from, to) {
            self.cross_applied[to] += 1;
        }
    }

    fn is_shard_pair(&self, from: usize, to: usize) -> bool {
        let shards = self.shard_count as usize;
        from < shards && to < shards
    }

    /// Records `slot`'s post-exchange queue depth for this window.
    pub(crate) fn note_depth(&mut self, slot: usize, depth: u64) {
        if depth > self.depth_max[slot] {
            self.depth_max[slot] = depth;
        }
        self.depth_sum[slot] += depth;
    }

    /// Closes one window: charges barrier stall against the straggler and
    /// resets the scratch counters.
    pub(crate) fn end_window(&mut self) {
        let shards = self.shard_count as usize;
        let straggler = self.window_events[..shards]
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        for slot in 0..self.slot_count() {
            let own = self.window_events[slot];
            if slot < shards {
                self.barrier_stall[slot] += straggler - own;
            }
            self.window_events[slot] = 0;
        }
        self.windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_obs_accounts_dispatches_and_stall() {
        let mut obs = ShardObs::new(2);
        // Window 0: shard 0 dispatches 3, shard 1 dispatches 1.
        for _ in 0..3 {
            obs.note_dispatch(0);
        }
        obs.note_dispatch(1);
        obs.note_staged(0, 1);
        obs.note_applied(0, 1);
        obs.note_depth(0, 5);
        obs.note_depth(1, 2);
        obs.end_window();
        assert_eq!(obs.windows(), 1);
        assert_eq!(obs.events(0), 3);
        assert_eq!(obs.events(1), 1);
        assert_eq!(obs.total_events(), 4);
        // Stall: straggler did 3, shard 1 idled for 2 of them.
        assert_eq!(obs.barrier_stall(0), 0);
        assert_eq!(obs.barrier_stall(1), 2);
        assert_eq!(obs.cross_staged(0), 1);
        assert_eq!(obs.cross_applied(1), 1);
        assert_eq!(obs.cross_total(), 1);
        assert_eq!(obs.depth_max(0), 5);
    }

    #[test]
    fn global_slot_traffic_is_not_cross_shard() {
        let mut obs = ShardObs::new(2);
        for (from, to) in [(0, 2), (2, 1)] {
            // To, then from, the global slot.
            obs.note_staged(from, to);
            obs.note_applied(from, to);
        }
        assert_eq!(obs.cross_staged(0) + obs.cross_staged(1), 0);
        assert_eq!(obs.cross_total(), 0);
        // Staging alone applies nothing: the barrier's exchange does.
        obs.note_staged(1, 0);
        assert_eq!(obs.cross_staged(1), 1);
        assert_eq!(obs.cross_total(), 0);
        obs.note_applied(1, 0);
        assert_eq!(obs.cross_total(), 1);
    }

    #[test]
    fn undercount_tap_leaks_one_event_per_window() {
        let mut obs = ShardObs::new(2).with_undercount_tap();
        for _ in 0..3 {
            obs.note_dispatch(0);
        }
        obs.note_dispatch(1);
        obs.end_window();
        obs.note_dispatch(0);
        obs.end_window();
        // 4 + 1 dispatches, two windows with shard-0 activity: 2 leaked.
        assert_eq!(obs.total_events(), 3);
        // The stall still sees the true counts: shard 1 idled for 2 of
        // shard 0's 3 dispatches, then for its 1.
        assert_eq!(obs.barrier_stall(1), 3);
    }
}
