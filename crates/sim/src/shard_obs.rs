//! Per-shard dispatch accounting for the sharded kernel.
//!
//! The kernel's own metrics are two global histograms, so load skew
//! across quadrants and epoch-barrier stalls — the blockers ahead of true
//! OS-thread workers — would otherwise stay invisible. [`ShardObs`] holds
//! fixed per-shard arrays the sharded scheduler fills while it runs:
//! events dispatched, cross-shard events staged (when a dispatch pushes
//! them) and applied (when the barrier's mailbox exchange enters them
//! into their destination queue), barrier-stall units, and per-lane
//! queue depth. Every update is an array index; nothing allocates after
//! construction, and nothing is written into the kernel's own stats,
//! trace, or metrics — the bit-identical-observables contract of
//! [`crate::shard`] is untouched.
//!
//! Barrier-stall attribution: within one window every shard dispatches
//! independently and the epoch barrier waits for the straggler. With
//! deterministic lanes the wait is virtual, so the stall charged to a
//! shard is the skew proxy `straggler_events − own_events` — how many
//! dispatches the busiest shard performed while this shard's window was
//! already drained. Summed over windows it ranks exactly the quadrants
//! that would idle real OS threads.

/// Per-shard dispatch accounting filled by
/// [`Kernel::run_sharded`](crate::kernel::Kernel).
#[derive(Debug, Clone)]
pub struct ShardObs {
    shard_count: u32,
    events: Vec<u64>,
    cross_staged: Vec<u64>,
    cross_applied: Vec<u64>,
    barrier_stall: Vec<u64>,
    depth_max: Vec<u64>,
    depth_sum: Vec<u64>,
    /// Scratch: this window's per-shard dispatch counts.
    window_events: Vec<u64>,
    windows: u64,
    undercount: bool,
}

impl ShardObs {
    /// Accounting arrays for `shard_count` shards. All storage is
    /// allocated here; recording is allocation-free.
    pub fn new(shard_count: u32) -> Self {
        let n = shard_count as usize;
        ShardObs {
            shard_count,
            events: vec![0; n],
            cross_staged: vec![0; n],
            cross_applied: vec![0; n],
            barrier_stall: vec![0; n],
            depth_max: vec![0; n],
            depth_sum: vec![0; n],
            window_events: vec![0; n],
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

    /// Shard count this accounting covers.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// Barrier windows completed.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Events dispatched on `shard`.
    pub fn events(&self, shard: usize) -> u64 {
        self.events[shard]
    }

    /// Sum of per-shard event counters (the quantity TC010 holds to the
    /// kernel's independent dispatch total).
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Cross-shard events staged *from* `shard` (outgoing).
    pub fn cross_staged(&self, shard: usize) -> u64 {
        self.cross_staged[shard]
    }

    /// Cross-shard events applied *into* `shard` (incoming).
    pub fn cross_applied(&self, shard: usize) -> u64 {
        self.cross_applied[shard]
    }

    /// Total cross-shard events applied.
    pub fn cross_total(&self) -> u64 {
        self.cross_applied.iter().sum()
    }

    /// Barrier-stall units charged to `shard` (see the module docs).
    pub fn barrier_stall(&self, shard: usize) -> u64 {
        self.barrier_stall[shard]
    }

    /// Deepest post-barrier queue observed on `shard`'s lane.
    pub fn depth_max(&self, shard: usize) -> u64 {
        self.depth_max[shard]
    }

    /// Sum of post-barrier queue depths on `shard` (divide by
    /// [`ShardObs::windows`] for the mean).
    pub fn depth_sum(&self, shard: usize) -> u64 {
        self.depth_sum[shard]
    }

    /// Records one dispatch on `shard` (in canonical barrier order).
    pub(crate) fn note_dispatch(&mut self, shard: usize) {
        if !(self.undercount && shard == 0 && self.window_events[0] == 0) {
            self.events[shard] += 1;
        }
        self.window_events[shard] += 1;
    }

    /// Records one cross-shard event staged from `from`, at dispatch.
    pub(crate) fn note_staged(&mut self, from: usize) {
        self.cross_staged[from] += 1;
    }

    /// Records one cross-shard event entering `to`'s queue at the
    /// barrier's mailbox exchange. Counted apart from
    /// [`ShardObs::note_staged`], so an event the exchange loses or
    /// duplicates unbalances the two totals.
    pub(crate) fn note_applied(&mut self, to: usize) {
        self.cross_applied[to] += 1;
    }

    /// Records `shard`'s post-exchange queue depth for this window.
    pub(crate) fn note_depth(&mut self, shard: usize, depth: u64) {
        if depth > self.depth_max[shard] {
            self.depth_max[shard] = depth;
        }
        self.depth_sum[shard] += depth;
    }

    /// Closes one window: charges barrier stall against the straggler and
    /// resets the scratch counters.
    pub(crate) fn end_window(&mut self) {
        let straggler = self.window_events.iter().copied().max().unwrap_or(0);
        for (stall, own) in self.barrier_stall.iter_mut().zip(&mut self.window_events) {
            *stall += straggler - *own;
            *own = 0;
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
        obs.note_staged(0);
        obs.note_applied(1);
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
    fn staging_alone_applies_nothing() {
        let mut obs = ShardObs::new(2);
        // The barrier's exchange applies what a dispatch staged.
        obs.note_staged(1);
        assert_eq!(obs.cross_staged(1), 1);
        assert_eq!(obs.cross_total(), 0);
        obs.note_applied(0);
        assert_eq!(obs.cross_applied(0), 1);
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
