//! Virtual memory segments and their page-to-node mapping, kept as
//! run-length **extents** instead of a per-page array.
//!
//! # Representation
//!
//! A segment's placement is a sorted, disjoint, covering list of
//! extents. Each extent maps a contiguous page range either to one
//! node (`Const`) or to a repeating node cycle (`Cycle` — the periodic
//! pattern a round-robin interleave produces, stored once instead of per
//! page). The paper's placement policies are piecewise-regular, so real
//! layouts compress to a handful of extents: a 1M-page
//! weighted-interleave segment is one `Const` extent per positive-weight
//! node, not a megabyte of `u16`s.
//!
//! # Invariants
//!
//! * extents are sorted by `start`, disjoint, and cover `[0, len)`;
//! * every extent has `len > 0`; `Cycle` patterns have ≥ 2 nodes and are
//!   never all-equal (those normalize to `Const`);
//! * adjacent `Const` extents never share a node (they merge on write);
//! * `node_counts` always equals the histogram implied by the extents.
//!
//! All mutators preserve the exact page-to-node mapping the historical
//! per-page implementation produced — placement math binary-searches the
//! *same* `MemPolicy::target_node` predicate rather than re-deriving
//! boundaries in floating point, and batched frame allocation replicates
//! the per-page spill loop (see `place`). The golden campaign reports
//! pin this equivalence end-to-end.

use crate::error::SimError;
use crate::mem::frames::FramePools;
use crate::mem::pattern::{MoveSpan, Pattern};
use crate::mem::policy::MemPolicy;
use bwap_topology::NodeId;

/// Identifier of a segment within one process's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub usize);

/// What a segment holds, which decides who accesses it in the demand model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Shared data accessed uniformly by all threads (the paper's shared
    /// pages assumption).
    Shared,
    /// Thread-private data of one thread (index within the process).
    Private {
        /// Index of the owning thread.
        thread: usize,
    },
}

/// A run of contiguous pages sharing one placement rule.
#[derive(Debug, Clone, PartialEq)]
struct Extent {
    start: u64,
    len: u64,
    pat: Pattern,
}

impl Extent {
    /// Node of absolute page `page` (must lie inside the extent).
    fn node_at(&self, page: u64) -> NodeId {
        debug_assert!(page >= self.start && page < self.start + self.len);
        self.pat.node_at(page)
    }

    fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Decompose `policy` over the `range_len` pages starting at page
/// `start` into blocks of regular structure, each
/// `(rel_start, len, pattern)` with the pattern in absolute page
/// coordinates. Exactly mirrors `MemPolicy::target_node` page by page:
/// weighted-interleave block boundaries are found by binary search over
/// the *original* per-page predicate (its mapping is monotone in the page
/// index), so no float re-derivation can drift from the historical
/// placement.
fn policy_blocks(
    policy: &MemPolicy,
    start: u64,
    range_len: u64,
    toucher: NodeId,
) -> Vec<(u64, u64, Pattern)> {
    if range_len == 0 {
        return Vec::new();
    }
    match policy {
        MemPolicy::FirstTouch => vec![(0, range_len, Pattern::Const(toucher))],
        MemPolicy::Bind(n) => vec![(0, range_len, Pattern::Const(*n))],
        // Relative page `r` of the range targets `nodes[r % nodes.len()]`.
        MemPolicy::Interleave(set) => vec![(0, range_len, Pattern::cycle(&set.to_vec(), start))],
        MemPolicy::WeightedInterleave(_) => {
            let mut blocks = Vec::new();
            let mut cur = 0u64;
            while cur < range_len {
                let node = policy.target_node(cur, range_len, toucher);
                // First index past `cur` with a different target.
                let (mut lo, mut hi) = (cur, range_len);
                while lo + 1 < hi {
                    let mid = lo + (hi - lo) / 2;
                    if policy.target_node(mid, range_len, toucher) == node {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                blocks.push((cur, hi - cur, Pattern::Const(node)));
                cur = hi;
            }
            blocks
        }
    }
}

/// A contiguous range of virtual pages, each mapped to a physical node.
/// All pages are populated at creation (the paper's applications touch
/// their full working set during initialization, before `BWAP-init`).
#[derive(Debug, Clone)]
pub struct Segment {
    kind: SegmentKind,
    /// Length in pages.
    len: u64,
    /// Sorted, disjoint, covering placement runs.
    extents: Vec<Extent>,
    /// Cached histogram: pages per node.
    node_counts: Vec<u64>,
    /// Extent count that triggers the next compaction pass (doubles when
    /// compaction cannot shrink the list, so aperiodic fragmentation
    /// degrades gracefully instead of re-scanning every write).
    compact_watermark: usize,
    /// Policy the segment was created under (later `mbind`s move pages but
    /// the creation policy records provenance for debugging).
    creation_policy: MemPolicy,
}

/// Extent count below which compaction never runs.
const COMPACT_WATERMARK: usize = 64;
/// Extents at most this long are expanded page-by-page during compaction
/// (longer ones are structural and pass through unchanged).
const COMPACT_SHORT: u64 = 4;
/// Longest cycle period the compactor searches for.
const COMPACT_MAX_PERIOD: usize = 64;

impl Segment {
    /// Allocate and place `len` pages under `policy`. `toucher` is the node
    /// of the first-touching thread (the master thread for shared segments,
    /// the owner for private ones). `fallback` gives the spill order when
    /// the target node is full (nearest-first, like Linux zone fallback).
    ///
    /// The placement is computed analytically per policy block — a
    /// million-page bind is a handful of pool operations — but lands every
    /// page on exactly the node the historical page-at-a-time loop chose:
    /// free counts only shrink during placement, so "first node of
    /// `[target] + fallback` with a free frame" is constant between pool
    /// exhaustions and whole runs can be granted at once (see
    /// [`FramePools::alloc_run`]).
    pub fn place(
        kind: SegmentKind,
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
        frames: &mut FramePools,
        fallback: &[Vec<NodeId>],
    ) -> Result<Self, SimError> {
        let node_count = frames.node_count();
        policy.validate(node_count)?;
        if fallback.len() < node_count {
            return Err(SimError::InvalidNodes(format!(
                "fallback table covers {} of {node_count} nodes",
                fallback.len()
            )));
        }
        let mut seg = Segment {
            kind,
            len: 0,
            extents: Vec::new(),
            node_counts: vec![0u64; node_count],
            compact_watermark: COMPACT_WATERMARK,
            creation_policy: policy.clone(),
        };
        for (_, block_len, pat) in policy_blocks(policy, 0, len, toucher) {
            match pat {
                Pattern::Const(target) => {
                    for (node, granted) in
                        frames.alloc_run(target, &fallback[target.idx()], block_len)?
                    {
                        seg.push_const(node, granted);
                    }
                }
                // Anchored at page 0, so `nodes` starts at the block's slot 0.
                Pattern::Cycle { nodes, .. } => {
                    seg.place_cycle(&nodes, block_len, frames, fallback)?
                }
            }
        }
        debug_assert_eq!(seg.len, len);
        Ok(seg)
    }

    /// Place `total` pages round-robin over `nodes`, spilling exactly like
    /// the per-page loop. Between pool exhaustions the *effective* target
    /// of each cycle slot (first free node of its spill chain) is fixed,
    /// so whole batches of cycles collapse into one `Cycle` extent; each
    /// exhaustion starts a new regime.
    fn place_cycle(
        &mut self,
        nodes: &[NodeId],
        total: u64,
        frames: &mut FramePools,
        fallback: &[Vec<NodeId>],
    ) -> Result<(), SimError> {
        let k = nodes.len();
        debug_assert!(k >= 2);
        let mut placed = 0u64;
        let mut eff = vec![NodeId(0); k];
        let mut share: Vec<(NodeId, u64)> = Vec::with_capacity(k);
        while placed < total {
            for (j, &n) in nodes.iter().enumerate() {
                eff[j] = frames.first_free(n, &fallback[n.idx()])?;
            }
            // Pages each node receives per full cycle under this regime.
            share.clear();
            for &e in &eff {
                match share.iter_mut().find(|(n, _)| *n == e) {
                    Some((_, c)) => *c += 1,
                    None => share.push((e, 1)),
                }
            }
            let cycles = share.iter().map(|&(n, s)| frames.free(n) / s).min().expect("k >= 2");
            if cycles == 0 {
                // Not a full cycle of room: step page by page (each step can
                // exhaust a pool and change the spill picture) until the
                // next cycle boundary.
                let boundary = placed + (k as u64 - placed % k as u64);
                while placed < boundary.min(total) {
                    let slot = (placed % k as u64) as usize;
                    let target = nodes[slot];
                    let node = frames.first_free(target, &fallback[target.idx()])?;
                    frames.alloc(node, 1)?;
                    self.push_const(node, 1);
                    placed += 1;
                }
                continue;
            }
            let pages = (total - placed).min(cycles * k as u64);
            // Grant every node its exact share of these `pages`, starting
            // at the current cycle phase.
            let phase = (placed % k as u64) as usize;
            let full = pages / k as u64;
            let rem = (pages % k as u64) as usize;
            for j in 0..k {
                let node = eff[(phase + j) % k];
                let cnt = full + u64::from(j < rem);
                if cnt > 0 {
                    frames.alloc(node, cnt)?;
                }
            }
            let rotated: Vec<NodeId> = (0..k).map(|j| eff[(phase + j) % k]).collect();
            self.push_cycle(&rotated, pages);
            placed += pages;
        }
        Ok(())
    }

    /// Append `len` pages on `node` to the tail of the segment, merging
    /// with the previous extent when possible.
    fn push_const(&mut self, node: NodeId, len: u64) {
        if len == 0 {
            return;
        }
        self.node_counts[node.idx()] += len;
        if let Some(last) = self.extents.last_mut() {
            if matches!(&last.pat, Pattern::Const(n) if *n == node) {
                last.len += len;
                self.len += len;
                return;
            }
        }
        self.extents.push(Extent { start: self.len, len, pat: Pattern::Const(node) });
        self.len += len;
    }

    /// Append `len` pages cycling over `nodes` (phase already folded into
    /// the rotation). Degenerate cycles normalize to `Const`.
    fn push_cycle(&mut self, nodes: &[NodeId], len: u64) {
        if len == 0 {
            return;
        }
        let pat = if len == 1 { Pattern::Const(nodes[0]) } else { Pattern::cycle(nodes, self.len) };
        if let Pattern::Const(n) = pat {
            self.push_const(n, len);
            return;
        }
        pat.for_each_count(self.len, self.len + len, |n, c| self.node_counts[n.idx()] += c);
        self.extents.push(Extent { start: self.len, len, pat });
        self.len += len;
    }

    /// Segment kind.
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// Length in pages.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment has no pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of extents currently describing the placement (diagnostics /
    /// perf assertions: regular placements stay O(nodes), never O(pages)).
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Approximate heap footprint of the placement bookkeeping, bytes.
    pub fn approx_heap_bytes(&self) -> usize {
        let ext = self.extents.capacity() * std::mem::size_of::<Extent>();
        let cycles: usize = self
            .extents
            .iter()
            .map(|e| match &e.pat {
                Pattern::Const(_) => 0,
                Pattern::Cycle { nodes, .. } => nodes.len() * std::mem::size_of::<NodeId>(),
            })
            .sum();
        ext + cycles + self.node_counts.capacity() * std::mem::size_of::<u64>()
    }

    /// Index of the extent containing `page`.
    fn extent_index(&self, page: u64) -> usize {
        debug_assert!(page < self.len, "page {page} out of bounds ({})", self.len);
        self.extents.partition_point(|e| e.start <= page) - 1
    }

    /// Node currently holding page `i`.
    pub fn node_of(&self, i: u64) -> NodeId {
        assert!(i < self.len, "page {i} out of bounds ({})", self.len);
        self.extents[self.extent_index(i)].node_at(i)
    }

    /// Pages per node.
    pub fn node_counts(&self) -> &[u64] {
        &self.node_counts
    }

    /// Fraction of pages per node (all zeros for an empty segment).
    pub fn distribution(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.node_counts.len()];
        self.fill_distribution(&mut out);
        out
    }

    /// Write the per-node page fractions into `out` (allocation-free
    /// epoch-loop variant of [`Segment::distribution`]).
    pub fn fill_distribution(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.node_counts.len());
        let total = self.len as f64;
        if total == 0.0 {
            out.fill(0.0);
            return;
        }
        for (o, &c) in out.iter_mut().zip(&self.node_counts) {
            *o = c as f64 / total;
        }
    }

    /// Policy the segment was created under.
    pub fn creation_policy(&self) -> &MemPolicy {
        &self.creation_policy
    }

    /// Move page `i` to `to`, updating the histogram. The caller is
    /// responsible for frame accounting (this keeps migration atomic with
    /// respect to [`FramePools`] in one place, the migration engine).
    pub fn relocate(&mut self, i: u64, to: NodeId) {
        if self.node_of(i) == to {
            return;
        }
        self.relocate_run(i, 1, to);
    }

    /// Move the `len` pages starting at `start` to `to` (one
    /// [`Segment::write_spans`] pass).
    pub fn relocate_run(&mut self, start: u64, len: u64, to: NodeId) {
        self.write_spans([(start, len, &Pattern::Const(to))]);
    }

    /// Whether every page of `[start, start+len)` lives where `pat` says.
    /// O(extents in the range × pattern period).
    pub(crate) fn holds(&self, start: u64, len: u64, pat: &Pattern) -> bool {
        assert!(start + len <= self.len, "holds out of bounds");
        if len == 0 {
            return true;
        }
        let end = start + len;
        let mut pos = start;
        let mut idx = self.extent_index(start);
        while pos < end {
            let e = &self.extents[idx];
            let piece_end = e.end().min(end);
            let same = match (&e.pat, pat) {
                (Pattern::Const(a), Pattern::Const(b)) => a == b,
                (a, b) => {
                    // Both sides repeat within the product of their periods.
                    let span = (a.period() * b.period()).min(piece_end - pos);
                    (pos..pos + span).all(|p| a.node_at(p) == b.node_at(p))
                }
            };
            if !same {
                return false;
            }
            pos = piece_end;
            idx += 1;
        }
        true
    }

    /// Overwrite ascending, disjoint page spans `(start, len, pattern)`
    /// with new placements in **one** merge pass over the extent list:
    /// untouched extents are carried over, cut extents are re-anchored
    /// without copying their cycles, and each span becomes one extent
    /// (merged with equal neighbors). The histogram follows; frame
    /// accounting is the caller's (the migration engine keeps it in one
    /// place). O(extents + spans), then a compaction check.
    pub fn write_spans<'a>(&mut self, spans: impl IntoIterator<Item = (u64, u64, &'a Pattern)>) {
        let old = std::mem::take(&mut self.extents);
        let mut out: Vec<Extent> = Vec::with_capacity(old.len() + 2);
        let mut rest = old.into_iter();
        // The not-yet-consumed part of the current old extent.
        let mut cur = rest.next();
        let mut last_end = 0u64;
        for (ws, wl, pat) in spans {
            if wl == 0 {
                continue;
            }
            let we = ws + wl;
            assert!(ws >= last_end && we <= self.len, "spans must ascend inside the segment");
            last_end = we;
            // Carry over everything before the span, cutting the extent
            // that straddles its start.
            loop {
                let e = cur.as_mut().expect("span lies inside the segment");
                if e.end() <= ws {
                    append_extent(&mut out, cur.take().expect("checked"));
                    cur = rest.next();
                    continue;
                }
                if e.start < ws {
                    append_extent(
                        &mut out,
                        Extent { start: e.start, len: ws - e.start, pat: e.pat.clone() },
                    );
                    e.len = e.end() - ws;
                    e.start = ws;
                }
                break;
            }
            // Drop the overwritten pages' old homes from the histogram.
            loop {
                let e = cur.as_mut().expect("span lies inside the segment");
                let (a, b, e_end) = (e.start, e.end().min(we), e.end());
                let counts = &mut self.node_counts;
                e.pat.for_each_count(a, b, |n, c| counts[n.idx()] -= c);
                if e_end > we {
                    e.start = we;
                    e.len = e_end - we;
                    break;
                }
                cur = rest.next();
                if e_end == we {
                    break;
                }
            }
            let counts = &mut self.node_counts;
            pat.for_each_count(ws, we, |n, c| counts[n.idx()] += c);
            append_extent(&mut out, Extent { start: ws, len: wl, pat: pat.clone() });
        }
        for e in cur.into_iter().chain(rest) {
            append_extent(&mut out, e);
        }
        self.extents = out;
        self.maybe_compact();
    }

    /// Run a compaction pass when fragmentation crosses the watermark.
    /// Migrating a range *into* an interleave pattern page by page (the
    /// capacity-drop path, AutoNUMA) splits constant extents into per-page
    /// singletons; the drained region is exactly periodic, so compaction
    /// re-fuses those stretches into `Cycle` extents and the list stays
    /// O(pattern) instead of O(pages). Purely representational: the
    /// page-to-node mapping is untouched.
    fn maybe_compact(&mut self) {
        if self.extents.len() <= self.compact_watermark {
            return;
        }
        self.compact();
        // If the list would not shrink (genuinely aperiodic placement),
        // back off so writes stay O(watermark) amortized.
        self.compact_watermark = (self.extents.len() * 2).max(COMPACT_WATERMARK);
    }

    /// Rebuild the extent list, expanding stretches of short extents and
    /// re-encoding them as the shortest periodic cycle (or merged constant
    /// runs). Long extents pass through and re-merge at the seams.
    fn compact(&mut self) {
        let old = std::mem::take(&mut self.extents);
        let mut out: Vec<Extent> = Vec::with_capacity(old.len().min(256));
        let mut seq: Vec<NodeId> = Vec::new();
        let mut seq_start = 0u64;
        for e in old {
            if e.len <= COMPACT_SHORT {
                if seq.is_empty() {
                    seq_start = e.start;
                }
                for p in e.start..e.end() {
                    seq.push(e.node_at(p));
                }
            } else {
                flush_seq(&mut out, seq_start, &mut seq);
                append_extent(&mut out, e);
            }
        }
        flush_seq(&mut out, seq_start, &mut seq);
        self.extents = out;
    }

    /// Visit the maximal constant-node runs covering `[start, start+len)`
    /// in ascending page order: `f(run_start, run_len, node)`. O(runs) for
    /// `Const` extents; `Cycle` extents yield their per-page alternation.
    pub fn for_each_run(&self, start: u64, len: u64, mut f: impl FnMut(u64, u64, NodeId) -> bool) {
        assert!(start + len <= self.len, "run walk out of bounds");
        if len == 0 {
            return;
        }
        let end = start + len;
        let mut idx = self.extent_index(start);
        let mut run_start = start;
        let mut run_node = self.extents[idx].node_at(start);
        let mut pos = start;
        while pos < end {
            let e = &self.extents[idx];
            let e_end = e.end().min(end);
            match &e.pat {
                Pattern::Const(n) => {
                    if *n != run_node {
                        if !f(run_start, pos - run_start, run_node) {
                            return;
                        }
                        run_start = pos;
                        run_node = *n;
                    }
                    pos = e_end;
                }
                pat @ Pattern::Cycle { .. } => {
                    while pos < e_end {
                        let n = pat.node_at(pos);
                        if n != run_node {
                            if !f(run_start, pos - run_start, run_node) {
                                return;
                            }
                            run_start = pos;
                            run_node = n;
                        }
                        pos += 1;
                    }
                }
            }
            idx += 1;
        }
        f(run_start, end - run_start, run_node);
    }

    /// The pages of `[start, start+len)` that are **not** on the node
    /// `policy` assigns them (relative to this range) — the page set an
    /// `MPOL_MF_MOVE` `mbind` migrates — as [`MoveSpan`]s in ascending
    /// page order: one span per placement piece (extent × policy block)
    /// holding a moving page, recording the piece's current pattern and
    /// its target. O(extents + policy blocks), however many pages move: a
    /// first-touch run rebound to a uniform interleave is one span, not
    /// one entry per page. Wholly complying pieces — including a
    /// re-applied interleave whose cycle matches the existing extents —
    /// emit nothing.
    pub fn non_complying_spans(
        &self,
        start: u64,
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
    ) -> Result<Vec<MoveSpan>, SimError> {
        if start + len > self.len {
            return Err(SimError::RangeOutOfBounds { start, len, segment_len: self.len });
        }
        let mut spans: Vec<MoveSpan> = Vec::new();
        if matches!(policy, MemPolicy::FirstTouch) || len == 0 {
            // First-touch never migrates existing pages.
            return Ok(spans);
        }
        let blocks = policy_blocks(policy, start, len, toucher);
        let end = start + len;
        let mut pos = start;
        let mut ext_idx = self.extent_index(start);
        let mut blk_idx = 0usize;
        while pos < end {
            let e = &self.extents[ext_idx];
            let (b_rel, b_len, b_pat) = &blocks[blk_idx];
            let b_end = start + b_rel + b_len;
            let piece_end = e.end().min(b_end);
            let span = MoveSpan::new(pos, piece_end - pos, e.pat.clone(), b_pat.clone());
            if span.pages() > 0 && !spans.last_mut().is_some_and(|last| last.try_extend(&span)) {
                spans.push(span);
            }
            pos = piece_end;
            if pos == e.end() {
                ext_idx += 1;
            }
            if pos == b_end {
                blk_idx += 1;
            }
        }
        Ok(spans)
    }

    /// The non-complying pages of `[start, start+len)` under `policy`, one
    /// `(page, target)` per page, from `node_of` and
    /// `MemPolicy::target_node` alone — the per-page oracle
    /// [`Segment::non_complying_spans`] is tested against.
    pub fn non_complying(
        &self,
        start: u64,
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
    ) -> Result<Vec<(u64, NodeId)>, SimError> {
        if start + len > self.len {
            return Err(SimError::RangeOutOfBounds { start, len, segment_len: self.len });
        }
        if matches!(policy, MemPolicy::FirstTouch) {
            return Ok(Vec::new());
        }
        Ok((0..len)
            .map(|rel| (start + rel, policy.target_node(rel, len, toucher)))
            .filter(|&(p, target)| self.node_of(p) != target)
            .collect())
    }
}

/// Append `e` to an extent list, merging it into the tail when both map
/// their pages alike (same-node constants; cycles of equal mapping).
/// Single-page cycles normalize to constants first.
fn append_extent(out: &mut Vec<Extent>, mut e: Extent) {
    if e.len == 1 && matches!(e.pat, Pattern::Cycle { .. }) {
        e.pat = Pattern::Const(e.node_at(e.start));
    }
    if let Some(last) = out.last_mut() {
        debug_assert_eq!(last.end(), e.start);
        if last.pat == e.pat {
            last.len += e.len;
            return;
        }
    }
    out.push(e);
}

/// Longest prefix of `s` that is `k`-periodic (`s[j] == s[j-k]` for all
/// `k <= j <` the returned length).
fn periodic_run(s: &[NodeId], k: usize) -> usize {
    let mut l = k.min(s.len());
    while l < s.len() && s[l] == s[l - k] {
        l += 1;
    }
    l
}

/// Re-encode an expanded page-to-node sequence starting at `seq_start` by
/// greedily emitting the longest periodic run at each position — the
/// shape a drained user-level interleave leaves behind is piecewise
/// periodic (one pattern per Algorithm-1 sub-range, seams between them),
/// and greedy segmentation compresses each piece independently. Clears
/// `seq`.
fn flush_seq(out: &mut Vec<Extent>, seq_start: u64, seq: &mut Vec<NodeId>) {
    let mut i = 0usize;
    while i < seq.len() {
        let rest = &seq[i..];
        // Longest periodic run over all candidate periods; ties prefer the
        // shortest period (a k-run is also a 2k-run).
        let mut best_k = 1;
        let mut best_l = periodic_run(rest, 1);
        for k in 2..=COMPACT_MAX_PERIOD.min(rest.len()) {
            if best_l == rest.len() {
                break;
            }
            let l = periodic_run(rest, k);
            if l > best_l {
                best_k = k;
                best_l = l;
            }
        }
        let start = seq_start + i as u64;
        let pat = Pattern::cycle(&rest[..best_k], start);
        append_extent(out, Extent { start, len: best_l as u64, pat });
        i += best_l;
    }
    seq.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::{machines, NodeSet};

    fn frames() -> FramePools {
        FramePools::from_machine(&machines::machine_b())
    }

    fn no_fallback(n: usize) -> Vec<Vec<NodeId>> {
        vec![Vec::new(); n]
    }

    #[test]
    fn first_touch_places_on_toucher() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            100,
            &MemPolicy::FirstTouch,
            NodeId(2),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert_eq!(s.node_counts()[2], 100);
        assert_eq!(f.used(NodeId(2)), 100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.extent_count(), 1);
    }

    #[test]
    fn interleave_places_round_robin() {
        let mut f = frames();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(3)]);
        let s = Segment::place(
            SegmentKind::Shared,
            10,
            &MemPolicy::Interleave(set),
            NodeId(1),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert_eq!(s.node_counts(), &[5, 0, 0, 5]);
        assert_eq!(s.node_of(0), NodeId(0));
        assert_eq!(s.node_of(1), NodeId(3));
        assert_eq!(s.extent_count(), 1, "round-robin is one cycle extent");
    }

    #[test]
    fn weighted_places_proportionally() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            1000,
            &MemPolicy::WeightedInterleave(vec![0.1, 0.2, 0.3, 0.4]),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert_eq!(s.node_counts(), &[100, 200, 300, 400]);
        let d = s.distribution();
        assert!((d[3] - 0.4).abs() < 1e-12);
        assert_eq!(s.extent_count(), 4, "one block per positive weight");
    }

    #[test]
    fn weighted_interleave_memory_is_o_extents() {
        // The acceptance bound: a 1M-page weighted-interleave segment must
        // cost O(extents) bookkeeping (< 10 KiB), not ~2 MiB of per-page
        // node ids.
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            1_000_000,
            &MemPolicy::WeightedInterleave(vec![0.1, 0.2, 0.3, 0.4]),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert_eq!(s.node_counts(), &[100_000, 200_000, 300_000, 400_000]);
        assert!(s.extent_count() <= 4, "{} extents", s.extent_count());
        assert!(s.approx_heap_bytes() < 10 * 1024, "{} bytes", s.approx_heap_bytes());
    }

    #[test]
    fn spill_when_node_full() {
        let m = machines::twin();
        let mut f = FramePools::from_machine(&m);
        let cap0 = f.capacity(NodeId(0));
        f.alloc(NodeId(0), cap0 - 10).unwrap();
        let fallback = vec![vec![NodeId(1)], vec![NodeId(0)]];
        let s = Segment::place(
            SegmentKind::Shared,
            30,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &fallback,
        )
        .unwrap();
        assert_eq!(s.node_counts(), &[10, 20]);
        assert_eq!(s.extent_count(), 2);
    }

    #[test]
    fn interleave_spill_matches_per_page_semantics() {
        // Interleave over {0, 1} with node 0 nearly full: once node 0
        // drains, its cycle slots spill to node 1 — same as the historical
        // per-page alloc_with_fallback loop.
        let m = machines::twin();
        let mut f = FramePools::from_machine(&m);
        let cap0 = f.capacity(NodeId(0));
        f.alloc(NodeId(0), cap0 - 3).unwrap();
        let fallback = vec![vec![NodeId(1)], vec![NodeId(0)]];
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let s = Segment::place(
            SegmentKind::Shared,
            10,
            &MemPolicy::Interleave(set),
            NodeId(0),
            &mut f,
            &fallback,
        )
        .unwrap();
        // Per-page: pages 0,2,4 land on node 0 (3 free), pages 1,3,5,7,9 on
        // node 1, and pages 6,8 (slot 0, node 0 full) spill to node 1.
        assert_eq!(s.node_counts(), &[3, 7]);
        for i in [0u64, 2, 4] {
            assert_eq!(s.node_of(i), NodeId(0), "page {i}");
        }
        for i in [1u64, 3, 5, 6, 7, 8, 9] {
            assert_eq!(s.node_of(i), NodeId(1), "page {i}");
        }
    }

    #[test]
    fn relocate_updates_histogram() {
        let mut f = frames();
        let mut s = Segment::place(
            SegmentKind::Private { thread: 0 },
            4,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        s.relocate(1, NodeId(3));
        assert_eq!(s.node_counts(), &[3, 0, 0, 1]);
        assert_eq!(s.node_of(1), NodeId(3));
        // no-op relocate
        s.relocate(1, NodeId(3));
        assert_eq!(s.node_counts(), &[3, 0, 0, 1]);
        assert_eq!(s.node_of(0), NodeId(0));
        assert_eq!(s.node_of(2), NodeId(0));
        assert_eq!(s.node_of(3), NodeId(0));
    }

    #[test]
    fn relocate_run_splits_and_merges_extents() {
        let mut f = frames();
        let mut s = Segment::place(
            SegmentKind::Shared,
            100,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        s.relocate_run(10, 30, NodeId(2));
        assert_eq!(s.node_counts(), &[70, 0, 30, 0]);
        assert_eq!(s.extent_count(), 3);
        assert_eq!(s.node_of(9), NodeId(0));
        assert_eq!(s.node_of(10), NodeId(2));
        assert_eq!(s.node_of(39), NodeId(2));
        assert_eq!(s.node_of(40), NodeId(0));
        // Moving it back re-merges into a single extent.
        s.relocate_run(10, 30, NodeId(0));
        assert_eq!(s.extent_count(), 1);
        assert_eq!(s.node_counts(), &[100, 0, 0, 0]);
    }

    #[test]
    fn relocate_inside_cycle_extent_splits_phases() {
        let mut f = frames();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let mut s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::Interleave(set),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        s.relocate(4, NodeId(3));
        assert_eq!(s.node_counts(), &[3, 4, 0, 1]);
        let expect = [0u16, 1, 0, 1, 3, 1, 0, 1];
        for (i, &n) in expect.iter().enumerate() {
            assert_eq!(s.node_of(i as u64), NodeId(n), "page {i}");
        }
    }

    #[test]
    fn for_each_run_yields_maximal_runs() {
        let mut f = frames();
        let mut s = Segment::place(
            SegmentKind::Shared,
            10,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        s.relocate_run(4, 2, NodeId(2));
        let mut runs = Vec::new();
        s.for_each_run(0, 10, |a, l, n| {
            runs.push((a, l, n));
            true
        });
        assert_eq!(runs, vec![(0, 4, NodeId(0)), (4, 2, NodeId(2)), (6, 4, NodeId(0))]);
        // Sub-range walk.
        runs.clear();
        s.for_each_run(3, 3, |a, l, n| {
            runs.push((a, l, n));
            true
        });
        assert_eq!(runs, vec![(3, 1, NodeId(0)), (4, 2, NodeId(2))]);
    }

    #[test]
    fn non_complying_lists_moves() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let moves = s.non_complying(0, 8, &MemPolicy::Interleave(set), NodeId(0)).unwrap();
        // round-robin targets: 0,1,0,1,... -> odd indices move to node 1
        assert_eq!(moves, vec![(1, NodeId(1)), (3, NodeId(1)), (5, NodeId(1)), (7, NodeId(1))]);
    }

    #[test]
    fn non_complying_sub_range_uses_relative_indices() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::FirstTouch,
            NodeId(1),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        let moves = s.non_complying(4, 4, &MemPolicy::Bind(NodeId(1)), NodeId(0)).unwrap();
        assert!(moves.is_empty()); // already on node 1
        let moves = s.non_complying(4, 4, &MemPolicy::Bind(NodeId(2)), NodeId(0)).unwrap();
        assert_eq!(moves.len(), 4);
        assert_eq!(moves[0], (4, NodeId(2)));
    }

    #[test]
    fn non_complying_spans_are_per_piece_and_skip_aligned_cycles() {
        let mut f = frames();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let s = Segment::place(
            SegmentKind::Shared,
            1000,
            &MemPolicy::Interleave(set),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        // Re-applying the same interleave is a no-op detected at the
        // extent level, without touching pages.
        let spans = s.non_complying_spans(0, 1000, &MemPolicy::Interleave(set), NodeId(0)).unwrap();
        assert!(spans.is_empty());
        // Binding everything to node 0 moves exactly the node-1 slots: one
        // span, 500 moving pages.
        let spans = s.non_complying_spans(0, 1000, &MemPolicy::Bind(NodeId(0)), NodeId(0)).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].pages(), 500);
        let mut runs = Vec::new();
        spans[0].for_each_run(|a, l, from, to| runs.push((a, l, from, to)));
        assert_eq!(runs.len(), 500);
        assert!(runs.iter().all(|r| r.1 == 1 && r.2 == NodeId(1) && r.3 == NodeId(0)));
        // A bind over a constant extent is a single constant span.
        let mut f2 = frames();
        let s2 = Segment::place(
            SegmentKind::Shared,
            1000,
            &MemPolicy::FirstTouch,
            NodeId(2),
            &mut f2,
            &no_fallback(4),
        )
        .unwrap();
        let spans =
            s2.non_complying_spans(0, 1000, &MemPolicy::Bind(NodeId(3)), NodeId(0)).unwrap();
        assert_eq!(spans, vec![MoveSpan::run(0, 1000, NodeId(2), NodeId(3))]);
        // Rebinding it to a four-way interleave is one span too.
        let all = NodeSet::first(4);
        let spans =
            s2.non_complying_spans(0, 1000, &MemPolicy::Interleave(all), NodeId(0)).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].pages(), 750);
    }

    #[test]
    fn write_spans_overwrites_in_one_pass() {
        let mut f = frames();
        let mut s = Segment::place(
            SegmentKind::Shared,
            100,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        let cyc = Pattern::cycle(&[NodeId(1), NodeId(2)], 10);
        s.write_spans([(10, 20, &cyc), (30, 10, &cyc), (50, 1, &Pattern::Const(NodeId(3)))]);
        // [10, 40) is one cycle extent: the two spans continue each other.
        assert_eq!(s.extent_count(), 5);
        assert_eq!(s.node_counts(), &[69, 15, 15, 1]);
        for p in 0..100u64 {
            let want = match p {
                10..=39 => NodeId(1 + (p % 2) as u16),
                50 => NodeId(3),
                _ => NodeId(0),
            };
            assert_eq!(s.node_of(p), want, "page {p}");
        }
        assert!(s.holds(10, 30, &cyc));
        assert!(!s.holds(9, 30, &cyc));
        assert!(s.holds(40, 10, &Pattern::Const(NodeId(0))));
    }

    #[test]
    fn short_fallback_table_is_an_error_not_a_panic() {
        let mut f = frames(); // 4-node machine
        let r = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::Bind(NodeId(3)),
            NodeId(0),
            &mut f,
            &no_fallback(2), // too short: indexing node 3 used to panic
        );
        assert!(matches!(r, Err(crate::error::SimError::InvalidNodes(_))), "{r:?}");
        // Nothing was allocated.
        for n in 0..4u16 {
            assert_eq!(f.used(NodeId(n)), 0);
        }
    }

    #[test]
    fn non_complying_rejects_bad_range() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert!(s.non_complying(5, 4, &MemPolicy::Bind(NodeId(1)), NodeId(0)).is_err());
    }

    #[test]
    fn first_touch_mbind_never_moves() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::Bind(NodeId(2)),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        let moves = s.non_complying(0, 8, &MemPolicy::FirstTouch, NodeId(0)).unwrap();
        assert!(moves.is_empty());
    }
}
