//! Shared replay helpers used by both ML- and CCL-recovery.

use hlrc::{fresh_notices, NodeInner, WriteNotice};
use pagemem::VClock;

/// Re-apply a synchronization operation's notices during replay:
/// extend the history, observe the intervals, invalidate named remote
/// copies, and merge the piggybacked clock — the recovery-mode twin of
/// the driver's failure-free notice processing (without logging hooks).
///
/// Returns the notices that were fresh (not yet covered).
pub fn replay_apply_notices(
    inner: &mut NodeInner,
    notices: &[WriteNotice],
    vc_in: &VClock,
) -> Vec<WriteNotice> {
    let me = inner.me() as u32;
    let fresh = fresh_notices(&inner.vc, notices);
    for n in &fresh {
        inner.vc.observe(n.interval);
        inner.history.push(*n);
        if n.interval.node != me && !inner.pages.is_home(n.page) {
            inner.pages.invalidate(n.page, &mut inner.pool);
        }
    }
    inner.vc.join(vc_in);
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlrc::DsmConfig;
    use pagemem::{IntervalId, PageState};
    use simnet::{run_cluster, CostModel};

    #[test]
    fn replay_notices_invalidate_and_merge() {
        let cfg = DsmConfig::new(2, 4).with_page_size(64);
        run_cluster::<hlrc::Msg, _, _>(2, CostModel::default(), move |ctx| {
            if ctx.id() != 0 {
                return;
            }
            let mut inner = NodeInner::new(ctx, cfg);
            // Give node 0 a cached copy of remote page 2.
            inner
                .pages
                .install_copy(2, &[1u8; 64], PageState::ReadOnly, &mut inner.pool);
            let iv = IntervalId { node: 1, seq: 0 };
            let mut vc_in = VClock::new(2);
            vc_in.observe(iv);
            let fresh = replay_apply_notices(
                &mut inner,
                &[WriteNotice {
                    page: 2,
                    interval: iv,
                }],
                &vc_in,
            );
            assert_eq!(fresh.len(), 1);
            assert_eq!(inner.pages.entry(2).state, PageState::Invalid);
            assert!(inner.vc.covers(iv));
            // Replaying the same notices again is a no-op.
            let again = replay_apply_notices(
                &mut inner,
                &[WriteNotice {
                    page: 2,
                    interval: iv,
                }],
                &vc_in,
            );
            assert!(again.is_empty());
        });
    }
}
