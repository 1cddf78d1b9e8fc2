//! Stall accounting and the idle fast-forward: how a cycle in which
//! nothing commits is counted (charged to exactly one [`StallBreakdown`]
//! counter, so the breakdown sums to `stall_cycles`), and when a run of
//! such cycles may be skipped in one jump.

use super::{Core, DEADLOCK_WINDOW};
use crate::policy::BlockSource;
use crate::stats::StallBreakdown;

/// Picks the [`StallBreakdown`] counter a stall cycle is charged to.
type StallCounter = fn(&mut StallBreakdown) -> &mut u64;

impl Core {
    /// The counter for the mechanism holding the ROB head back at
    /// `self.now`. Pure, so the fast-forward can charge a whole run of
    /// identical stall cycles at once.
    fn classify_stall(&self) -> StallCounter {
        let Some(head) = self.rob.front() else {
            // Empty ROB: the front end is the bottleneck — either a
            // squash-redirect penalty or an ordinary fetch stall.
            return if self.front.redirecting(self.now) {
                |b| &mut b.squash
            } else {
                |b| &mut b.frontend
            };
        };
        // A policy-blocked head load — or one still paying the memory
        // latency of its delayed (post-VP) issue — blames the policy.
        let policy_src = head.blocked.or((head.computed
            && head.ready_at > self.now
            && head.was_blocked)
            .then_some(head.block_memo)
            .flatten());
        if let Some(src) = policy_src {
            return match src {
                BlockSource::Isv => |b| &mut b.isv_fence,
                BlockSource::IsvMiss => |b| &mut b.isv_miss,
                BlockSource::Dsv | BlockSource::UnknownAlloc => |b| &mut b.dsv_fence,
                BlockSource::DsvmtMiss => |b| &mut b.dsvmt_miss,
                BlockSource::Fence | BlockSource::Dom | BlockSource::Stt => |b| &mut b.vp_wait,
            };
        }
        if !head.computed && head.fetch_ready > self.now {
            |b| &mut b.frontend
        } else {
            |b| &mut b.backend
        }
    }

    /// Account `n` stall cycles to `counter`.
    fn account_stalls(&mut self, counter: StallCounter, n: u64) {
        self.stats.stall_cycles += n;
        *counter(&mut self.stats.stalls) += n;
    }

    /// Account one stall cycle (nothing committed this cycle) to the
    /// mechanism holding the ROB head back.
    pub(super) fn record_stall(&mut self) {
        self.account_stalls(self.classify_stall(), 1);
    }

    /// Earliest future cycle at which any time-threshold comparison in
    /// `step` can change its outcome: an in-flight instruction leaving
    /// the front end (`fetch_ready`) or finishing (`ready_at`), or one of
    /// the front end's thresholds (the end of its stall, and of the
    /// squash-attribution window, which `classify_stall` reads).
    /// `u64::MAX` when none exists (a deadlock; the watchdog caps it).
    fn next_wake(&self) -> u64 {
        // The idle step just ran at `now - 1`; the next step runs at
        // `now`. A threshold at exactly `now` can already flip a
        // comparison for that step, so `t >= now` (not `t > now`) —
        // thresholds strictly in the past are settled by monotonicity.
        let now = self.now;
        let in_flight = self.rob.iter().map(|e| {
            if e.computed {
                e.ready_at
            } else {
                e.fetch_ready
            }
        });
        in_flight
            .chain(self.front.wake_thresholds())
            .filter(|&t| t >= now)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Bulk-advance the clock over a run of idle cycles.
    ///
    /// Called right after a `step` that made no progress: such a step is
    /// a pure function of `(state, now)` whose only effects are the
    /// clocks and one stall bump, and every time comparison it performs
    /// is a monotone threshold check — so it stays a no-op until
    /// [`Core::next_wake`]. Each skipped cycle is accounted exactly as the
    /// slow path would have. The jump is capped at the cycle-budget and
    /// deadlock-watchdog deadlines so both errors fire at the same cycle,
    /// with the same counters, as on the slow path.
    pub(super) fn fast_forward(&mut self, start_cycle: u64, max_cycles: u64) {
        let budget_deadline = start_cycle.saturating_add(max_cycles).saturating_add(1);
        let deadlock_deadline = self.last_commit_cycle + DEADLOCK_WINDOW + 1;
        let wake = self.next_wake().min(budget_deadline).min(deadlock_deadline);
        let delta = wake.saturating_sub(self.now);
        if delta == 0 {
            return;
        }
        self.account_stalls(self.classify_stall(), delta);
        self.advance_clock(delta);
        self.ff_skipped += delta;
    }
}
