//! Rate-limited page migration, queued as **spans**.
//!
//! Migrations queue up (from `mbind` with move semantics, or from the
//! AutoNUMA daemon) and drain each epoch at a bounded rate, consuming
//! memory-controller and interconnect bandwidth through the fabric: a
//! migration reads the page from its source node and writes it to its
//! destination. This is what makes the DWP tuner's incremental migration
//! *cost* something, reproducing the paper's <= 4 % tuner overhead.
//!
//! The queue stores [`PendingRange`]s — a segment plus a [`MoveSpan`]:
//! a page span with its recorded source pattern and its target pattern —
//! not individual pages. An `mbind` queues one entry per placement piece
//! (extent × policy block), so rebinding a million-page first-touch
//! segment to an interleave is one entry, not one per moving page. The
//! FIFO page *order* is the historical per-page queue's (entries hold
//! their pages in ascending order and split on partial completion), and
//! every page count — pending pages, the `(from, to)` demand of the next
//! `k` pages, the split point of a partial completion — comes from period
//! arithmetic on the entries.

use crate::mem::address_space::AddressSpace;
use crate::mem::frames::FramePools;
use crate::mem::pattern::{MoveSpan, Pattern};
use crate::mem::segment::SegmentId;
use bwap_topology::NodeId;
use std::collections::VecDeque;

/// One queue entry: a span of page moves inside one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRange {
    /// Segment the pages belong to.
    pub segment: SegmentId,
    /// The pages, where they were when queued and where they go.
    pub span: MoveSpan,
}

impl PendingRange {
    /// `len` pages of `segment` from `start`, all on `from`, all headed to
    /// `to` (the AutoNUMA shape).
    pub fn run(segment: SegmentId, start: u64, len: u64, from: NodeId, to: NodeId) -> Self {
        PendingRange { segment, span: MoveSpan::run(start, len, from, to) }
    }
}

/// FIFO queue of page-move spans for one process.
#[derive(Debug, Clone, Default)]
pub struct MigrationQueue {
    /// Entries in FIFO order; each holds at least one moving page.
    queue: VecDeque<PendingRange>,
    /// Moving pages across all queued entries (kept in sync with `queue`).
    pending_pages: u64,
    /// Conservative per-segment page spans `(segment, lo, hi)` covering
    /// every queued entry (spans only grow; reset when the queue drains).
    /// Lets `cancel_range` answer the common no-overlap case — e.g. the
    /// paper's Algorithm 1 issuing one `mbind` per *disjoint* sub-range —
    /// in O(segments) instead of walking the queue.
    seg_spans: Vec<(SegmentId, u64, u64)>,
    /// Total pages ever enqueued (stat).
    pub enqueued_total: u64,
    /// Total pages ever migrated (stat).
    pub migrated_total: u64,
}

/// Reused buffers of [`MigrationQueue::complete_and_apply`], so an epoch's
/// completion allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct CompletionScratch {
    /// Entries completed this epoch.
    completed: Vec<PendingRange>,
    /// `(segment, end of its last span)` over the open batch.
    seg_hi: Vec<(SegmentId, u64)>,
    /// Page writes of the open batch: `(segment, start, len, pattern)`.
    writes: Vec<(SegmentId, u64, u64, Pattern)>,
    /// `(pages arriving, pages leaving)` per node over the open batch.
    flow: Vec<(u64, u64)>,
}

impl MigrationQueue {
    /// Empty queue.
    pub fn new() -> Self {
        MigrationQueue::default()
    }

    /// Append entries (deterministic FIFO order). Entries that move no page
    /// are dropped; an entry that continues the tail page for page
    /// coalesces with it.
    pub fn enqueue_ranges(&mut self, ranges: impl IntoIterator<Item = PendingRange>) {
        for r in ranges {
            let pages = r.span.pages();
            if pages == 0 {
                continue;
            }
            let (start, end) = (r.span.start(), r.span.end());
            match self.seg_spans.iter_mut().find(|(s, ..)| *s == r.segment) {
                Some((_, lo, hi)) => {
                    *lo = (*lo).min(start);
                    *hi = (*hi).max(end);
                }
                None => self.seg_spans.push((r.segment, start, end)),
            }
            self.pending_pages += pages;
            self.enqueued_total += pages;
            if let Some(back) = self.queue.back_mut() {
                if back.segment == r.segment && back.span.try_extend(&r.span) {
                    continue;
                }
            }
            self.queue.push_back(r);
        }
    }

    /// Pending page count.
    pub fn pending(&self) -> usize {
        self.pending_pages as usize
    }

    /// Number of queued entries (diagnostics: rebinds stay O(placement
    /// pieces), never O(pages)).
    pub fn range_count(&self) -> usize {
        self.queue.len()
    }

    /// Whether no moves are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queued entries in FIFO order, without removing them.
    pub fn ranges(&self) -> impl Iterator<Item = &PendingRange> {
        self.queue.iter()
    }

    /// Visit the `(from, to, pages)` counts of the first `k` queued pages —
    /// `from` as recorded at enqueue — in order of first appearance (a pair
    /// may repeat). This is the demand the migration engine attempts in an
    /// epoch. O(period) per entry touched, however many pages it holds.
    pub fn for_each_head_pair(&self, k: u64, mut f: impl FnMut(NodeId, NodeId, u64)) {
        let mut left = k;
        for r in &self.queue {
            if left == 0 {
                break;
            }
            let take = r.span.pages().min(left);
            r.span.for_each_pair_in_head(take, &mut f);
            left -= take;
        }
    }

    /// Remove the first `k` *pages* from the queue into `out` (those that
    /// completed), splitting the boundary entry if needed. Returns the
    /// number of pages removed.
    pub fn complete_into(&mut self, k: usize, out: &mut Vec<PendingRange>) -> usize {
        let removed = (k as u64).min(self.pending_pages);
        let mut left = removed;
        while left > 0 {
            let front = self.queue.front_mut().expect("pending_pages tracks queue");
            if front.span.pages() <= left {
                left -= front.span.pages();
                out.push(self.queue.pop_front().expect("non-empty"));
            } else {
                out.push(PendingRange {
                    segment: front.segment,
                    span: front.span.split_off_head(left),
                });
                left = 0;
            }
        }
        self.pending_pages -= removed;
        self.migrated_total += removed;
        if self.queue.is_empty() {
            self.seg_spans.clear();
        }
        removed as usize
    }

    /// Remove and return the first `k` pages as entries (allocating
    /// convenience form of [`MigrationQueue::complete_into`]).
    pub fn complete(&mut self, k: usize) -> Vec<PendingRange> {
        let mut out = Vec::new();
        self.complete_into(k, &mut out);
        out
    }

    /// Complete the first `k` pages and apply them to the page table and
    /// the frame pools, exactly as moving them one page at a time in FIFO
    /// order would: a page already on its target stays, and a page whose
    /// destination has no free frame is dropped (stays put, leaves the
    /// queue). `on_move(from, to, pages)` reports each moved chunk in
    /// order. Returns the number of entries completed.
    ///
    /// The completed entries are cut into batches in which no entry
    /// overlaps an earlier one of its segment (one batch, in practice);
    /// within a batch no move depends on another, so each segment takes
    /// its batch's writes in one [`Segment::write_spans`] merge pass. When
    /// every entry's span still holds its recorded source and every
    /// destination has room for its whole share, the batch lands in bulk:
    /// each span takes its target pattern and the frame pools move in one
    /// step per node. Otherwise frames are charged chunk by chunk in page
    /// order against the page table, and only the chunks that land are
    /// written.
    ///
    /// [`Segment::write_spans`]: crate::mem::segment::Segment::write_spans
    pub fn complete_and_apply(
        &mut self,
        k: usize,
        aspace: &mut AddressSpace,
        frames: &mut FramePools,
        ws: &mut CompletionScratch,
        mut on_move: impl FnMut(NodeId, NodeId, u64),
    ) -> usize {
        let CompletionScratch { completed, seg_hi, writes, flow } = ws;
        completed.clear();
        self.complete_into(k, completed);
        seg_hi.clear();
        let mut lo = 0;
        for (i, r) in completed.iter().enumerate() {
            let hi = seg_hi.iter().find(|(s, _)| *s == r.segment).map(|&(_, hi)| hi);
            if hi.is_some_and(|hi| r.span.start() < hi) {
                apply_batch(&completed[lo..i], aspace, frames, writes, flow, &mut on_move);
                lo = i;
                seg_hi.clear();
            }
            match seg_hi.iter_mut().find(|(s, _)| *s == r.segment) {
                Some((_, hi)) => *hi = (*hi).max(r.span.end()),
                None => seg_hi.push((r.segment, r.span.end())),
            }
        }
        apply_batch(&completed[lo..], aspace, frames, writes, flow, &mut on_move);
        completed.len()
    }

    /// Drop all pending moves (e.g. when the process exits).
    pub fn clear(&mut self) {
        self.queue.clear();
        self.seg_spans.clear();
        self.pending_pages = 0;
    }

    /// Drop pending moves for pages of `segment` in `[start, start+len)`.
    /// A fresh `mbind` over a range supersedes queued moves for it — the
    /// latest policy wins, as with Linux's synchronous `mbind`. Entries
    /// are trimmed in place (an entry covering the range on both sides
    /// splits in two). Returns how many page moves were cancelled.
    /// Cancels that cannot touch anything — checked against the
    /// per-segment span index — return without scanning the queue.
    pub fn cancel_range(&mut self, segment: SegmentId, start: u64, len: u64) -> usize {
        if len == 0 {
            return 0;
        }
        let end = start + len;
        let possible =
            self.seg_spans.iter().any(|&(s, lo, hi)| s == segment && start < hi && end > lo);
        if !possible {
            return 0;
        }
        let mut cancelled = 0u64;
        // Tails of split entries, with their index among the kept entries.
        let mut kept = 0usize;
        let mut tails: Vec<(usize, PendingRange)> = Vec::new();
        self.queue.retain_mut(|r| {
            let (rs, re) = (r.span.start(), r.span.end());
            if r.segment != segment || re <= start || rs >= end {
                kept += 1;
                return true;
            }
            let head = (rs < start).then(|| r.span.trimmed(rs, start)).filter(|h| h.pages() > 0);
            let tail = (re > end).then(|| r.span.trimmed(end, re)).filter(|t| t.pages() > 0);
            cancelled += r.span.pages()
                - head.as_ref().map_or(0, MoveSpan::pages)
                - tail.as_ref().map_or(0, MoveSpan::pages);
            match (head, tail) {
                (None, None) => false,
                (Some(part), None) | (None, Some(part)) => {
                    r.span = part;
                    kept += 1;
                    true
                }
                (Some(head), Some(tail)) => {
                    r.span = head;
                    kept += 1;
                    tails.push((kept, PendingRange { segment, span: tail }));
                    true
                }
            }
        });
        for (j, (at, tail)) in tails.into_iter().enumerate() {
            self.queue.insert(at + j, tail);
        }
        self.pending_pages -= cancelled;
        cancelled as usize
    }
}

/// Visit the moving-page runs of `batch` in FIFO order, coalescing runs
/// that continue each other (same segment and `(from, to)`, adjacent
/// pages) across entry boundaries: `f(segment, start, len, from, to)`.
fn for_each_queued_run(
    batch: &[PendingRange],
    mut f: impl FnMut(SegmentId, u64, u64, NodeId, NodeId),
) {
    let mut run: Option<(SegmentId, u64, u64, NodeId, NodeId)> = None;
    for r in batch {
        r.span.for_each_run(|start, len, from, to| {
            if let Some((seg, s, l, rf, rt)) = run.as_mut() {
                if *seg == r.segment && *s + *l == start && (*rf, *rt) == (from, to) {
                    *l += len;
                    return;
                }
            }
            if let Some((seg, s, l, rf, rt)) = run.take() {
                f(seg, s, l, rf, rt);
            }
            run = Some((r.segment, start, len, from, to));
        });
    }
    if let Some((seg, s, l, rf, rt)) = run {
        f(seg, s, l, rf, rt);
    }
}

/// Apply one batch of completed entries in which no entry overlaps an
/// earlier one of its segment (see [`MigrationQueue::complete_and_apply`]).
fn apply_batch(
    batch: &[PendingRange],
    aspace: &mut AddressSpace,
    frames: &mut FramePools,
    writes: &mut Vec<(SegmentId, u64, u64, Pattern)>,
    flow: &mut Vec<(u64, u64)>,
    on_move: &mut impl FnMut(NodeId, NodeId, u64),
) {
    if batch.is_empty() {
        return;
    }
    writes.clear();
    flow.clear();
    flow.resize(frames.node_count(), (0, 0));
    let mut bulk = true;
    for r in batch {
        let seg = aspace.segment(r.segment).expect("segment exists");
        if !seg.holds(r.span.start(), r.span.len(), r.span.from()) {
            bulk = false;
            break;
        }
        r.span.for_each_pair_in_head(r.span.pages(), |from, to, c| {
            flow[to.idx()].0 += c;
            flow[from.idx()].1 += c;
        });
    }
    bulk = bulk
        && flow.iter().enumerate().all(|(i, &(arrive, _))| arrive <= frames.free(NodeId(i as u16)));
    if bulk {
        // Every moving page is on its recorded source and lands: frames
        // move in one step per node, each span takes its target.
        for (i, &(arrive, leave)) in flow.iter().enumerate() {
            let node = NodeId(i as u16);
            frames.alloc(node, arrive).expect("room checked");
            frames.release(node, leave);
        }
        for_each_queued_run(batch, |_, _, len, from, to| on_move(from, to, len));
        writes.extend(
            batch.iter().map(|r| (r.segment, r.span.start(), r.span.len(), r.span.to().clone())),
        );
    } else {
        for_each_queued_run(batch, |segment, start, len, _, to| {
            // An overlapping later range may have moved these pages since
            // they were queued: trust the page table, not the recorded
            // source.
            let seg = aspace.segment(segment).expect("segment exists");
            seg.for_each_run(start, len, |run_start, run_len, current| {
                if current == to {
                    return true;
                }
                // Best-effort: drop what the destination cannot hold (free
                // frames of `to` only shrink along a run, so its first `m`
                // pages land, as page by page).
                let m = run_len.min(frames.free(to));
                if m > 0 {
                    frames.alloc(to, m).expect("free frames checked");
                    frames.release(current, m);
                    on_move(current, to, m);
                    writes.push((segment, run_start, m, Pattern::Const(to)));
                }
                true
            });
        });
    }
    // One merge pass per segment; a stable sort keeps each segment's
    // writes ascending.
    if writes.windows(2).any(|w| w[0].0 > w[1].0) {
        writes.sort_by_key(|w| w.0);
    }
    let mut i = 0;
    while i < writes.len() {
        let segment = writes[i].0;
        let j = i + writes[i..].iter().take_while(|w| w.0 == segment).count();
        aspace
            .segment_mut(segment)
            .expect("segment exists")
            .write_spans(writes[i..j].iter().map(|(_, start, len, pat)| (*start, *len, pat)));
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rg(start: u64, len: u64, from: u16, to: u16) -> PendingRange {
        PendingRange::run(SegmentId(0), start, len, NodeId(from), NodeId(to))
    }

    #[test]
    fn fifo_order() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 1, 0, 1), rg(1, 1, 0, 1), rg(2, 1, 1, 0)]);
        assert_eq!(q.pending(), 3);
        assert_eq!(q.range_count(), 2, "contiguous same-pair moves coalesce");
        let done = q.complete(2);
        assert_eq!(done, vec![rg(0, 2, 0, 1)]);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.migrated_total, 2);
        assert_eq!(q.enqueued_total, 3);
    }

    #[test]
    fn complete_splits_boundary_entry() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 10, 0, 1)]);
        let done = q.complete(4);
        assert_eq!(done, vec![rg(0, 4, 0, 1)]);
        assert_eq!(q.pending(), 6);
        let rest = q.complete(100);
        assert_eq!(rest, vec![rg(4, 6, 0, 1)]);
        assert!(q.is_empty());
        assert_eq!(q.migrated_total, 10);
    }

    #[test]
    fn complete_splits_a_cycle_entry_after_the_kth_moving_page() {
        // Pages on node 0 rebound to a 0/1/2 cycle: pages 1, 2, 4, 5, ...
        // move.
        let to = Pattern::cycle(&[NodeId(0), NodeId(1), NodeId(2)], 0);
        let span = MoveSpan::new(0, 9, Pattern::Const(NodeId(0)), to);
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([PendingRange { segment: SegmentId(0), span }]);
        assert_eq!(q.pending(), 6);
        assert_eq!(q.range_count(), 1);
        let done = q.complete(3);
        assert_eq!(done[0].span.start(), 0);
        assert_eq!(done[0].span.end(), 5, "the third moving page is page 4");
        assert_eq!(q.pending(), 3);
    }

    #[test]
    fn complete_more_than_pending_is_safe() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 1, 0, 1)]);
        let done = q.complete(10);
        assert_eq!(done.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn ranges_do_not_consume() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 1, 0, 1), rg(1, 1, 1, 2)]);
        let peeked: Vec<_> = q.ranges().cloned().collect();
        assert_eq!(peeked.len(), 2);
        assert_eq!(q.pending(), 2);
    }

    #[test]
    fn non_moving_entries_are_dropped() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 5, 2, 2)]);
        assert!(q.is_empty());
        assert_eq!(q.enqueued_total, 0);
    }

    #[test]
    fn clear_empties() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 1, 0, 1)]);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn cancel_range_is_segment_and_range_scoped() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 1, 0, 1), rg(5, 1, 0, 1), rg(10, 1, 0, 1)]);
        q.enqueue_ranges([PendingRange::run(SegmentId(1), 5, 1, NodeId(0), NodeId(1))]);
        // cancel pages [0, 8) of segment 0
        let cancelled = q.cancel_range(SegmentId(0), 0, 8);
        assert_eq!(cancelled, 2);
        assert_eq!(q.pending(), 2);
        // segment 1's move and segment 0's page 10 survive
        let rest: Vec<_> = q.complete(10);
        assert!(rest.iter().any(|r| r.segment == SegmentId(1)));
        assert!(rest.iter().any(|r| r.span.start() == 10 && r.segment == SegmentId(0)));
    }

    #[test]
    fn cancel_range_splits_covering_entry() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 100, 2, 3), rg(200, 10, 1, 0)]);
        let cancelled = q.cancel_range(SegmentId(0), 40, 20);
        assert_eq!(cancelled, 20);
        assert_eq!(q.pending(), 90);
        let rest = q.complete(1000);
        assert_eq!(rest, vec![rg(0, 40, 2, 3), rg(60, 40, 2, 3), rg(200, 10, 1, 0)]);
    }
}
