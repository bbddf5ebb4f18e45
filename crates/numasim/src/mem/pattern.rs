//! Periodic page-to-node patterns: the shared vocabulary of segment
//! extents and migration-queue entries.
//!
//! A [`Pattern`] maps *segment-absolute* page indices to nodes, so a span
//! can be trimmed or split without touching its pattern. A [`MoveSpan`]
//! pairs two patterns over a page span — where the page lives and where a
//! policy wants it — and answers page-count questions about the pages
//! that move by period arithmetic, never by walking them one at a time.

use bwap_topology::NodeId;
use std::sync::Arc;

/// A page-to-node rule in segment-absolute page coordinates.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// Every page lives on one node.
    Const(NodeId),
    /// Page `p` lives on `nodes[(p + phase) % nodes.len()]` — the shape a
    /// round-robin interleave lays down. Built by [`Pattern::cycle`], so
    /// `nodes` has at least two entries, not all equal, and
    /// `phase < nodes.len()`. The node list is shared: cloning or
    /// re-anchoring a span never copies it.
    Cycle {
        /// The repeating node sequence.
        nodes: Arc<[NodeId]>,
        /// Slot offset of page 0.
        phase: u64,
    },
}

impl Pattern {
    /// The cycle `nodes` with slot 0 at page `origin`. An all-equal cycle
    /// is the constant pattern.
    pub fn cycle(nodes: &[NodeId], origin: u64) -> Pattern {
        assert!(!nodes.is_empty(), "a cycle needs at least one node");
        if nodes.iter().all(|&n| n == nodes[0]) {
            return Pattern::Const(nodes[0]);
        }
        let k = nodes.len() as u64;
        Pattern::Cycle { nodes: nodes.into(), phase: (k - origin % k) % k }
    }

    /// Node of absolute page `page`.
    pub fn node_at(&self, page: u64) -> NodeId {
        match self {
            Pattern::Const(n) => *n,
            Pattern::Cycle { nodes, phase } => {
                nodes[((page % nodes.len() as u64 + phase) % nodes.len() as u64) as usize]
            }
        }
    }

    /// The nodes of pages `page, page + 1, ...`, stepping through the
    /// cycle without a division per page.
    fn nodes_from(&self, page: u64) -> impl Iterator<Item = NodeId> + '_ {
        let (nodes, first) = match self {
            Pattern::Const(n) => (std::slice::from_ref(n), 0),
            Pattern::Cycle { nodes, phase } => {
                let k = nodes.len() as u64;
                (&nodes[..], ((page % k + phase) % k) as usize)
            }
        };
        nodes[first..].iter().chain(nodes.iter().cycle()).copied()
    }

    /// Length of the repeat, pages (1 for a constant).
    pub(crate) fn period(&self) -> u64 {
        match self {
            Pattern::Const(_) => 1,
            Pattern::Cycle { nodes, .. } => nodes.len() as u64,
        }
    }

    /// Visit `(node, pages)` counts for the absolute page range `[a, b)`.
    pub fn for_each_count(&self, a: u64, b: u64, mut f: impl FnMut(NodeId, u64)) {
        debug_assert!(a <= b);
        if a == b {
            return;
        }
        match self {
            Pattern::Const(n) => f(*n, b - a),
            Pattern::Cycle { nodes, phase } => {
                let k = nodes.len() as u64;
                for (j, &n) in nodes.iter().enumerate() {
                    // Slot j holds the pages p with (p + phase) % k == j.
                    let c = slot_count(a, b, k, (j as u64 + k - phase) % k);
                    if c > 0 {
                        f(n, c);
                    }
                }
            }
        }
    }
}

/// Patterns are equal when they map every page to the same node.
impl PartialEq for Pattern {
    fn eq(&self, other: &Pattern) -> bool {
        match (self, other) {
            (Pattern::Const(a), Pattern::Const(b)) => a == b,
            (Pattern::Cycle { nodes: a, phase: pa }, Pattern::Cycle { nodes: b, phase: pb }) => {
                a.len() == b.len()
                    && ((Arc::ptr_eq(a, b) && pa == pb)
                        || (0..a.len() as u64).all(|p| self.node_at(p) == other.node_at(p)))
            }
            // A cycle is never all-equal, so it never matches a constant.
            _ => false,
        }
    }
}

impl Eq for Pattern {}

/// Number of integers `i` in `[a, b)` with `i % k == j`.
fn slot_count(a: u64, b: u64, k: u64, j: u64) -> u64 {
    let upto = |x: u64| if x <= j { 0 } else { (x - j - 1) / k + 1 };
    upto(b) - upto(a)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A span of page moves: every page `p` of `[start, start + len)` with
/// `from.node_at(p) != to.node_at(p)` moves from the one node to the
/// other. `from` is the placement recorded when the span was queued (the
/// demand accounting uses it; completion re-reads the page table).
///
/// This is the unit the migration queue holds: an `mbind` queues one span
/// per placement piece (extent × policy block), whatever the number of
/// pages that move inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveSpan {
    start: u64,
    len: u64,
    from: Pattern,
    to: Pattern,
    /// Moving pages in the span (cached).
    pages: u64,
}

impl MoveSpan {
    /// The moves of `[start, start + len)` from `from` to `to`.
    pub fn new(start: u64, len: u64, from: Pattern, to: Pattern) -> MoveSpan {
        let mut span = MoveSpan { start, len, from, to, pages: 0 };
        span.pages = span.count_in(start, start + len);
        span
    }

    /// `len` pages starting at `start`, all on `from`, all headed to `to`.
    pub fn run(start: u64, len: u64, from: NodeId, to: NodeId) -> MoveSpan {
        MoveSpan::new(start, len, Pattern::Const(from), Pattern::Const(to))
    }

    /// First page of the span.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Pages in the span, moving or not.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the span covers no page.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the last page of the span.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Recorded source placement.
    pub fn from(&self) -> &Pattern {
        &self.from
    }

    /// Target placement.
    pub fn to(&self) -> &Pattern {
        &self.to
    }

    /// Pages that move.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// `(from, to)` of page `p` if it moves.
    fn move_at(&self, p: u64) -> Option<(NodeId, NodeId)> {
        let (f, t) = (self.from.node_at(p), self.to.node_at(p));
        (f != t).then_some((f, t))
    }

    /// Period after which the move set repeats.
    fn period(&self) -> u64 {
        let (a, b) = (self.from.period(), self.to.period());
        a / gcd(a, b) * b
    }

    /// Moving pages in `[a, b)`: whole periods counted once, the tail
    /// page by page. O(period).
    fn count_in(&self, a: u64, b: u64) -> u64 {
        if let (Pattern::Const(f), Pattern::Const(t)) = (&self.from, &self.to) {
            return if f == t { 0 } else { b - a };
        }
        let l = self.period();
        let full = (b - a) / l;
        let per =
            if full > 0 { (a..a + l).filter(|&p| self.move_at(p).is_some()).count() } else { 0 };
        let tail = a + full * l;
        full * per as u64 + (tail..b).filter(|&p| self.move_at(p).is_some()).count() as u64
    }

    /// The page just past the `k`-th moving page (`1 <= k <= pages`).
    fn end_of_kth(&self, k: u64) -> u64 {
        debug_assert!(k >= 1 && k <= self.pages);
        if let (Pattern::Const(_), Pattern::Const(_)) = (&self.from, &self.to) {
            return self.start + k;
        }
        let l = self.period();
        let mut pos = self.start;
        let mut need = k;
        if self.len >= l {
            let per = self.count_in(self.start, self.start + l);
            let skip = (k - 1) / per;
            pos += skip * l;
            need -= skip * per;
        }
        loop {
            if self.move_at(pos).is_some() {
                need -= 1;
                if need == 0 {
                    return pos + 1;
                }
            }
            pos += 1;
        }
    }

    /// Split off and return the head holding the first `k` moving pages
    /// (`1 <= k < pages`); `self` keeps the rest.
    pub(crate) fn split_off_head(&mut self, k: u64) -> MoveSpan {
        debug_assert!(k >= 1 && k < self.pages);
        let cut = self.end_of_kth(k);
        let head = MoveSpan {
            start: self.start,
            len: cut - self.start,
            from: self.from.clone(),
            to: self.to.clone(),
            pages: k,
        };
        self.len = self.end() - cut;
        self.start = cut;
        self.pages -= k;
        head
    }

    /// The part of the span inside `[a, b)` (which must overlap it).
    pub(crate) fn trimmed(&self, a: u64, b: u64) -> MoveSpan {
        let (a, b) = (a.max(self.start), b.min(self.end()));
        debug_assert!(a <= b);
        MoveSpan::new(a, b - a, self.from.clone(), self.to.clone())
    }

    /// Extend the span by `next` if it continues it page for page (same
    /// patterns, adjacent). Returns whether it did.
    pub(crate) fn try_extend(&mut self, next: &MoveSpan) -> bool {
        if self.end() != next.start || self.from != next.from || self.to != next.to {
            return false;
        }
        self.len += next.len;
        self.pages += next.pages;
        true
    }

    /// Visit the `(from, to, pages)` counts of the first `k` moving pages,
    /// pairs in order of first appearance (a pair may repeat). O(period).
    pub fn for_each_pair_in_head(&self, k: u64, mut f: impl FnMut(NodeId, NodeId, u64)) {
        let k = k.min(self.pages);
        if k == 0 {
            return;
        }
        let end = if k == self.pages { self.end() } else { self.end_of_kth(k) };
        let l = self.period();
        // Every residue class mod the period first appears within its first
        // period; count the class over the whole head at once.
        for p in self.start..end.min(self.start + l) {
            if let Some((from, to)) = self.move_at(p) {
                f(from, to, slot_count(self.start, end, l, p % l));
            }
        }
    }

    /// Visit the maximal runs of moving pages with one `(from, to)` pair,
    /// in ascending page order: `f(run_start, run_len, from, to)`.
    /// O(runs) for constant patterns, O(pages) through a cycle.
    pub fn for_each_run(&self, mut f: impl FnMut(u64, u64, NodeId, NodeId)) {
        if let (Pattern::Const(from), Pattern::Const(to)) = (&self.from, &self.to) {
            if from != to && self.len > 0 {
                f(self.start, self.len, *from, *to);
            }
            return;
        }
        let mut run: Option<(u64, u64, NodeId, NodeId)> = None;
        let pages = self.from.nodes_from(self.start).zip(self.to.nodes_from(self.start));
        for (p, (from, to)) in (self.start..self.end()).zip(pages) {
            let mv = (from != to).then_some((from, to));
            if let (Some((_, l, rf, rt)), Some(pair)) = (run.as_mut(), mv) {
                if (*rf, *rt) == pair {
                    *l += 1;
                    continue;
                }
            }
            if let Some((s, l, from, to)) = run.take() {
                f(s, l, from, to);
            }
            run = mv.map(|(from, to)| (p, 1, from, to));
        }
        if let Some((s, l, from, to)) = run {
            f(s, l, from, to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u16]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn per_page(span: &MoveSpan) -> Vec<(u64, NodeId, NodeId)> {
        (span.start()..span.end()).filter_map(|p| span.move_at(p).map(|(f, t)| (p, f, t))).collect()
    }

    #[test]
    fn slot_count_is_exact() {
        for k in 1..5u64 {
            for a in 0..10u64 {
                for b in a..12u64 {
                    for j in 0..k {
                        let naive = (a..b).filter(|i| i % k == j).count() as u64;
                        assert_eq!(slot_count(a, b, k, j), naive, "a={a} b={b} k={k} j={j}");
                    }
                }
            }
        }
    }

    #[test]
    fn cycle_is_anchored_at_its_origin() {
        let c = Pattern::cycle(&nodes(&[3, 1, 2]), 10);
        assert_eq!(c.node_at(10), NodeId(3));
        assert_eq!(c.node_at(11), NodeId(1));
        assert_eq!(c.node_at(12), NodeId(2));
        assert_eq!(c.node_at(13), NodeId(3));
        assert_eq!(c.node_at(9), NodeId(2));
        assert_eq!(Pattern::cycle(&nodes(&[4, 4]), 7), Pattern::Const(NodeId(4)));
        // Same mapping, different anchors: equal.
        assert_eq!(Pattern::cycle(&nodes(&[1, 2, 3]), 1), Pattern::cycle(&nodes(&[2, 3, 1]), 2));
        assert_ne!(Pattern::cycle(&nodes(&[1, 2, 3]), 0), Pattern::cycle(&nodes(&[1, 2, 3]), 1));
    }

    #[test]
    fn counts_match_page_walk() {
        let c = Pattern::cycle(&nodes(&[0, 1, 1, 2]), 5);
        for a in 0..12u64 {
            for b in a..20u64 {
                let mut got = [0u64; 3];
                c.for_each_count(a, b, |n, k| got[n.idx()] += k);
                let mut want = [0u64; 3];
                (a..b).for_each(|p| want[c.node_at(p).idx()] += 1);
                assert_eq!(got, want, "[{a}, {b})");
            }
        }
    }

    #[test]
    fn span_arithmetic_matches_page_walk() {
        let from = Pattern::cycle(&nodes(&[0, 1]), 3);
        let to = Pattern::cycle(&nodes(&[0, 1, 2]), 0);
        for start in 0..7u64 {
            for len in 0..40u64 {
                let span = MoveSpan::new(start, len, from.clone(), to.clone());
                let pages = per_page(&span);
                assert_eq!(span.pages(), pages.len() as u64);
                let mut runs = Vec::new();
                span.for_each_run(|s, l, f, t| runs.extend((s..s + l).map(|p| (p, f, t))));
                assert_eq!(runs, pages);
                for k in 1..span.pages() {
                    let mut tail = span.clone();
                    let head = tail.split_off_head(k);
                    assert_eq!(per_page(&head), pages[..k as usize]);
                    assert_eq!(per_page(&tail), pages[k as usize..]);
                    let mut got: Vec<(NodeId, NodeId, u64)> = Vec::new();
                    span.for_each_pair_in_head(k, |f, t, c| {
                        match got.iter_mut().find(|(gf, gt, _)| (*gf, *gt) == (f, t)) {
                            Some(e) => e.2 += c,
                            None => got.push((f, t, c)),
                        }
                    });
                    let mut want: Vec<(NodeId, NodeId, u64)> = Vec::new();
                    for &(_, f, t) in &pages[..k as usize] {
                        match want.iter_mut().find(|(wf, wt, _)| (*wf, *wt) == (f, t)) {
                            Some(e) => e.2 += 1,
                            None => want.push((f, t, 1)),
                        }
                    }
                    assert_eq!(got, want, "start {start} len {len} k {k}");
                }
            }
        }
    }

    #[test]
    fn constant_runs_are_one_run() {
        let span = MoveSpan::run(4, 10, NodeId(0), NodeId(2));
        assert_eq!(span.pages(), 10);
        let mut runs = Vec::new();
        span.for_each_run(|s, l, f, t| runs.push((s, l, f, t)));
        assert_eq!(runs, vec![(4, 10, NodeId(0), NodeId(2))]);
        assert_eq!(MoveSpan::run(0, 10, NodeId(1), NodeId(1)).pages(), 0);
    }
}
