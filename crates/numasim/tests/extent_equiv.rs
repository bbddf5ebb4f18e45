//! Equivalence suite: the extent-based [`Segment`] against a naive
//! per-page reference model (the historical `Vec<u16>` implementation,
//! re-stated here verbatim). Random machines, random pre-pressure on the
//! frame pools (to force spill), random policies and random
//! place/relocate/mbind traces must agree on every observable: `node_of`
//! for every page, `node_counts`, distributions, frame accounting, the
//! non-complying move set, and the expanded contents of the migration
//! queue. The span migration queue is checked the same way against a
//! per-page reference queue drained one page at a time.

use bwap_topology::{machines, MemClass, NodeId, NodeSet, NodeSpec, TopologyBuilder};
use numasim::mem::address_space::AddressSpace;
use numasim::mem::frames::FramePools;
use numasim::mem::migrate::{CompletionScratch, MigrationQueue, PendingRange};
use numasim::mem::segment::{Segment, SegmentId, SegmentKind};
use numasim::MemPolicy;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The historical per-page segment: one `u16` per page, every operation a
/// page-at-a-time loop. This is the semantics oracle.
struct RefSegment {
    pages: Vec<u16>,
    counts: Vec<u64>,
}

impl RefSegment {
    fn place(
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
        frames: &mut FramePools,
        fallback: &[Vec<NodeId>],
    ) -> Option<RefSegment> {
        let mut pages = Vec::with_capacity(len as usize);
        let mut counts = vec![0u64; frames.node_count()];
        for i in 0..len {
            let target = policy.target_node(i, len, toucher);
            let got = frames.alloc_with_fallback(target, &fallback[target.idx()]).ok()?;
            pages.push(got.0);
            counts[got.idx()] += 1;
        }
        Some(RefSegment { pages, counts })
    }

    fn relocate(&mut self, i: u64, to: NodeId) {
        let from = self.pages[i as usize];
        if from == to.0 {
            return;
        }
        self.counts[from as usize] -= 1;
        self.counts[to.idx()] += 1;
        self.pages[i as usize] = to.0;
    }

    fn non_complying(
        &self,
        start: u64,
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
    ) -> Vec<(u64, NodeId)> {
        let mut moves = Vec::new();
        if matches!(policy, MemPolicy::FirstTouch) {
            return moves;
        }
        for rel in 0..len {
            let abs = start + rel;
            let target = policy.target_node(rel, len, toucher);
            if self.pages[abs as usize] != target.0 {
                moves.push((abs, target));
            }
        }
        moves
    }
}

/// A small random machine with a random expander subset (see
/// `tests/props.rs`).
fn random_machine(seed: u64) -> bwap_topology::MachineTopology {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=6usize);
    let mut b = TopologyBuilder::new("prop");
    for i in 0..n {
        let mem_gib = rng.gen_range(1..=4) as f64 / 256.0;
        if i > 0 && rng.gen_bool(0.3) {
            b = b.node(NodeSpec::memory_only(mem_gib, 10.0, MemClass::new("slow", 0.5, 2.0)));
        } else {
            b = b.node(NodeSpec::new(2, mem_gib, 10.0, 16.0));
        }
    }
    for i in 0..n {
        b = b.symmetric_link(NodeId(i as u16), NodeId(((i + 1) % n) as u16), 6.0);
    }
    b.auto_routes()
        .default_path_caps()
        .hop_latencies(90.0, 50.0)
        .build()
        .expect("random ring validates")
}

fn random_policy(rng: &mut impl Rng, n: usize) -> MemPolicy {
    match rng.gen_range(0..4) {
        0 => MemPolicy::FirstTouch,
        1 => MemPolicy::Bind(NodeId(rng.gen_range(0..n) as u16)),
        2 => {
            let picked: Vec<NodeId> =
                (0..n).filter(|_| rng.gen_bool(0.5)).map(|i| NodeId(i as u16)).collect();
            let set = if picked.is_empty() {
                NodeSet::single(NodeId(rng.gen_range(0..n) as u16))
            } else {
                NodeSet::from_nodes(picked)
            };
            MemPolicy::Interleave(set)
        }
        _ => {
            let raw: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(0.1..4.0) })
                .collect();
            let sum: f64 = raw.iter().sum();
            if sum == 0.0 {
                MemPolicy::FirstTouch
            } else {
                MemPolicy::WeightedInterleave(raw.iter().map(|w| w / sum).collect())
            }
        }
    }
}

fn nearest_fallback(m: &bwap_topology::MachineTopology) -> Vec<Vec<NodeId>> {
    let n = m.node_count();
    (0..n)
        .map(|t| {
            let mut others: Vec<NodeId> =
                (0..n).filter(|&i| i != t).map(|i| NodeId(i as u16)).collect();
            others.sort_by(|a, b| {
                m.latency_ns()
                    .get(*a, NodeId(t as u16))
                    .partial_cmp(&m.latency_ns().get(*b, NodeId(t as u16)))
                    .unwrap()
                    .then(a.0.cmp(&b.0))
            });
            others
        })
        .collect()
}

/// The queue's pages in FIFO order, one `(segment, page, from, to)` each.
fn expand(q: &MigrationQueue) -> Vec<(usize, u64, NodeId, NodeId)> {
    let mut pages = Vec::new();
    for r in q.ranges() {
        r.span.for_each_run(|a, len, from, to| {
            pages.extend((a..a + len).map(|p| (r.segment.0, p, from, to)));
        });
    }
    pages
}

fn assert_equal(seg: &Segment, reference: &RefSegment) {
    assert_eq!(seg.len(), reference.pages.len() as u64);
    assert_eq!(seg.node_counts(), &reference.counts[..]);
    for i in 0..seg.len() {
        assert_eq!(seg.node_of(i), NodeId(reference.pages[i as usize]), "page {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Placement under every policy, including forced spill, lands every
    /// page exactly where the per-page loop did — and leaves the frame
    /// pools in the same state.
    #[test]
    fn place_matches_per_page_reference(seed in 0u64..4000) {
        let m = random_machine(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x51ce);
        let n = m.node_count();
        let fallback = nearest_fallback(&m);
        let mut frames = FramePools::from_machine(&m);
        // Random pre-pressure so some placements spill mid-run.
        for i in 0..n {
            let node = NodeId(i as u16);
            let cap = frames.capacity(node);
            let used = rng.gen_range(0..=cap);
            frames.alloc(node, used).unwrap();
        }
        let mut ref_frames = frames.clone();
        let policy = random_policy(&mut rng, n);
        let toucher = NodeId(rng.gen_range(0..n) as u16);
        let len = rng.gen_range(0..800u64);
        let seg = Segment::place(SegmentKind::Shared, len, &policy, toucher, &mut frames, &fallback);
        let reference = RefSegment::place(len, &policy, toucher, &mut ref_frames, &fallback);
        match (&seg, &reference) {
            (Ok(seg), Some(reference)) => {
                assert_equal(seg, reference);
                for i in 0..n {
                    prop_assert_eq!(frames.used(NodeId(i as u16)), ref_frames.used(NodeId(i as u16)));
                }
            }
            (Err(_), None) => {} // both out of memory
            (got, want) => prop_assert!(false, "divergent outcome: {:?} vs ref {:?}",
                got.is_ok(), want.is_some()),
        }
    }

    /// Random relocate / relocate_run / non_complying traces keep the
    /// extent segment and the per-page reference in lock-step, and the
    /// range queue expands to exactly the per-page move list.
    #[test]
    fn mutation_trace_matches_per_page_reference(seed in 0u64..4000) {
        let m = random_machine(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed_f00d);
        let n = m.node_count();
        let fallback = nearest_fallback(&m);
        let mut frames = FramePools::from_machine(&m);
        let mut ref_frames = frames.clone();
        let len = rng.gen_range(1..600u64);
        let policy = random_policy(&mut rng, n);
        let toucher = NodeId(rng.gen_range(0..n) as u16);
        let mut seg = match Segment::place(SegmentKind::Shared, len, &policy, toucher, &mut frames, &fallback) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let mut reference = RefSegment::place(len, &policy, toucher, &mut ref_frames, &fallback)
            .expect("extent place succeeded");
        for _ in 0..40 {
            match rng.gen_range(0..3) {
                0 => {
                    let i = rng.gen_range(0..len);
                    let to = NodeId(rng.gen_range(0..n) as u16);
                    seg.relocate(i, to);
                    reference.relocate(i, to);
                }
                1 => {
                    let start = rng.gen_range(0..len);
                    let l = rng.gen_range(0..=(len - start).min(64));
                    let to = NodeId(rng.gen_range(0..n) as u16);
                    if l > 0 {
                        seg.relocate_run(start, l, to);
                        for p in start..start + l {
                            reference.relocate(p, to);
                        }
                    }
                }
                _ => {
                    let start = rng.gen_range(0..len);
                    let l = rng.gen_range(0..=len - start);
                    let q_policy = random_policy(&mut rng, n);
                    let q_toucher = NodeId(rng.gen_range(0..n) as u16);
                    let spans = seg
                        .non_complying_spans(start, l, &q_policy, q_toucher)
                        .expect("range in bounds");
                    let mut expanded: Vec<(u64, NodeId)> = Vec::new();
                    for span in &spans {
                        span.for_each_run(|a, len, from, to| {
                            for p in a..a + len {
                                // `from` on every moving page matches the
                                // page table.
                                assert_eq!(from, seg.node_of(p), "page {p}");
                                expanded.push((p, to));
                            }
                        });
                    }
                    let want = reference.non_complying(start, l, &q_policy, q_toucher);
                    prop_assert_eq!(&expanded, &want);
                    prop_assert_eq!(
                        seg.non_complying(start, l, &q_policy, q_toucher).expect("in bounds"),
                        want.clone()
                    );
                    // Queue round-trip: enqueued spans expand to the same
                    // page sequence, FIFO order preserved.
                    let mut q = MigrationQueue::new();
                    q.enqueue_ranges(
                        spans.into_iter().map(|span| PendingRange { segment: SegmentId(0), span }),
                    );
                    prop_assert_eq!(q.pending(), want.len());
                    let queued: Vec<(u64, NodeId)> =
                        expand(&q).into_iter().map(|(_, p, _, to)| (p, to)).collect();
                    prop_assert_eq!(&queued, &want);
                }
            }
        }
        assert_equal(&seg, &reference);
        let mut dist = vec![0.0; n];
        seg.fill_distribution(&mut dist);
        prop_assert_eq!(seg.distribution(), dist);
    }

    /// `cancel_range` on the range queue drops exactly the pages a
    /// per-page `retain` would.
    #[test]
    fn cancel_range_matches_per_page_retain(seed in 0u64..2000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut q = MigrationQueue::new();
        let mut model: Vec<(usize, u64, NodeId, NodeId)> = Vec::new(); // (segment, page, from, to)
        for _ in 0..rng.gen_range(1..30usize) {
            let segment = rng.gen_range(0..3usize);
            let start = rng.gen_range(0..200u64);
            let l = rng.gen_range(1..40u64);
            let from = NodeId(rng.gen_range(0..4) as u16);
            let to = NodeId(rng.gen_range(0..4) as u16);
            q.enqueue_ranges([PendingRange::run(SegmentId(segment), start, l, from, to)]);
            // A page already on its target is not a move.
            if from != to {
                for p in start..start + l {
                    model.push((segment, p, from, to));
                }
            }
        }
        for _ in 0..5 {
            let segment = rng.gen_range(0..3usize);
            let start = rng.gen_range(0..220u64);
            let l = rng.gen_range(0..60u64);
            let cancelled = q.cancel_range(SegmentId(segment), start, l);
            let before = model.len();
            model.retain(|&(s, p, ..)| !(s == segment && p >= start && p < start + l));
            prop_assert_eq!(cancelled, before - model.len());
            prop_assert_eq!(q.pending(), model.len());
        }
        prop_assert_eq!(expand(&q), model);
    }
}

/// A queued page move: `(segment, page, from, to)`.
type PageMove = (usize, u64, NodeId, NodeId);

/// The historical per-page migration queue: one entry per moving page,
/// drained one page at a time. The semantics oracle for the span queue.
#[derive(Default)]
struct RefQueue {
    moves: VecDeque<PageMove>,
}

impl RefQueue {
    /// `mbind` with move semantics: drop the range's queued moves, then
    /// queue its non-complying pages in ascending order.
    fn mbind(&mut self, segs: &[RefSegment], seg: usize, start: u64, len: u64, policy: &MemPolicy) {
        self.moves.retain(|&(s, p, ..)| !(s == seg && p >= start && p < start + len));
        for (p, to) in segs[seg].non_complying(start, len, policy, NodeId(0)) {
            self.moves.push_back((seg, p, NodeId(segs[seg].pages[p as usize]), to));
        }
    }

    /// `(from, to, pages)` of the first `k` moves, pairs in first-appearance
    /// order.
    fn head_pairs(&self, k: u64) -> Vec<(NodeId, NodeId, u64)> {
        let mut pairs = Vec::new();
        for &(_, _, from, to) in self.moves.iter().take(k as usize) {
            add_pair(&mut pairs, from, to, 1);
        }
        pairs
    }

    /// Complete the first `k` moves page by page: a page already on its
    /// target stays, a page whose destination is full is dropped.
    /// Returns the pages moved per `(from, to)`.
    fn complete(
        &mut self,
        k: usize,
        segs: &mut [RefSegment],
        frames: &mut FramePools,
    ) -> Vec<(NodeId, NodeId, u64)> {
        let mut moved = Vec::new();
        for _ in 0..k.min(self.moves.len()) {
            let (seg, p, _, to) = self.moves.pop_front().expect("bounded by len");
            let current = NodeId(segs[seg].pages[p as usize]);
            if current == to || frames.free(to) == 0 {
                continue;
            }
            frames.alloc(to, 1).unwrap();
            frames.release(current, 1);
            segs[seg].relocate(p, to);
            add_pair(&mut moved, current, to, 1);
        }
        moved
    }
}

fn add_pair(pairs: &mut Vec<(NodeId, NodeId, u64)>, from: NodeId, to: NodeId, pages: u64) {
    match pairs.iter_mut().find(|(f, t, _)| (*f, *t) == (from, to)) {
        Some(e) => e.2 += pages,
        None => pairs.push((from, to, pages)),
    }
}

fn head_pairs(q: &MigrationQueue, k: u64) -> Vec<(NodeId, NodeId, u64)> {
    let mut pairs = Vec::new();
    q.for_each_head_pair(k, |from, to, pages| add_pair(&mut pairs, from, to, pages));
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The span queue and the per-page reference queue, driven by the same
    /// random trace — `mbind` and re-`mbind` over overlapping and partly
    /// drained ranges of constant and cyclic placements, AutoNUMA-style
    /// range enqueues that overlap queued moves, and `complete(k)` batches
    /// under frame pressure — agree after every step on the pending count,
    /// the FIFO page order, the `(from, to)` demand of the next pages,
    /// every page's node, the per-node histograms and the frame pools.
    #[test]
    fn span_queue_matches_per_page_reference_queue(seed in 0u64..4000) {
        let m = random_machine(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let n = m.node_count();
        let fallback = nearest_fallback(&m);
        let mut frames = FramePools::from_machine(&m);
        let mut ref_frames = frames.clone();
        let mut aspace = AddressSpace::new();
        let mut refs: Vec<RefSegment> = Vec::new();
        for _ in 0..rng.gen_range(1..=3) {
            let len = rng.gen_range(1..300u64);
            let policy = random_policy(&mut rng, n);
            let toucher = NodeId(rng.gen_range(0..n) as u16);
            let placed = aspace.create_segment(
                SegmentKind::Shared, len, &policy, toucher, &mut frames, &fallback,
            );
            let reference = RefSegment::place(len, &policy, toucher, &mut ref_frames, &fallback);
            match (placed, reference) {
                (Ok(_), Some(reference)) => refs.push(reference),
                _ => return Ok(()), // out of memory; covered by the placement test
            }
        }
        // Frame pressure: leave some nodes only a handful of free frames so
        // completions drop pages.
        for i in 0..n {
            let node = NodeId(i as u16);
            if rng.gen_bool(0.5) {
                let keep = rng.gen_range(0..20u64).min(frames.free(node));
                let take = frames.free(node) - keep;
                frames.alloc(node, take).unwrap();
                ref_frames.alloc(node, take).unwrap();
            }
        }
        let mut q = MigrationQueue::new();
        let mut rq = RefQueue::default();
        let mut ws = CompletionScratch::default();
        for _ in 0..40 {
            let seg = rng.gen_range(0..refs.len());
            let id = SegmentId(seg);
            let seg_len = refs[seg].pages.len() as u64;
            let start = rng.gen_range(0..seg_len);
            let len = rng.gen_range(1..=seg_len - start);
            match rng.gen_range(0..4) {
                0 => {
                    let policy = random_policy(&mut rng, n);
                    let spans = aspace
                        .segment(id)
                        .unwrap()
                        .non_complying_spans(start, len, &policy, NodeId(0))
                        .unwrap();
                    q.cancel_range(id, start, len);
                    q.enqueue_ranges(spans.into_iter().map(|span| PendingRange { segment: id, span }));
                    rq.mbind(&refs, seg, start, len, &policy);
                }
                1 => {
                    // AutoNUMA: current placement runs toward one node, no
                    // cancel, so these may duplicate queued pages.
                    let to = NodeId(rng.gen_range(0..n) as u16);
                    let mut ranges = Vec::new();
                    aspace.segment(id).unwrap().for_each_run(start, len, |a, l, at| {
                        ranges.push(PendingRange::run(id, a, l, at, to));
                        true
                    });
                    q.enqueue_ranges(ranges);
                    for p in start..start + len {
                        let at = NodeId(refs[seg].pages[p as usize]);
                        if at != to {
                            rq.moves.push_back((seg, p, at, to));
                        }
                    }
                }
                _ => {
                    let k = rng.gen_range(0..=q.pending() + 3);
                    let mut moved = Vec::new();
                    q.complete_and_apply(k, &mut aspace, &mut frames, &mut ws, |from, to, pages| {
                        add_pair(&mut moved, from, to, pages);
                    });
                    let mut want = rq.complete(k, &mut refs, &mut ref_frames);
                    moved.sort();
                    want.sort();
                    prop_assert_eq!(moved, want);
                }
            }
            prop_assert_eq!(q.pending(), rq.moves.len());
            prop_assert_eq!(expand(&q), rq.moves.iter().copied().collect::<Vec<_>>());
            let attempt = rng.gen_range(0..=q.pending() as u64 + 2);
            prop_assert_eq!(head_pairs(&q, attempt), rq.head_pairs(attempt));
            for (i, reference) in refs.iter().enumerate() {
                assert_equal(aspace.segment(SegmentId(i)).unwrap(), reference);
            }
            for i in 0..n {
                let node = NodeId(i as u16);
                prop_assert_eq!(frames.used(node), ref_frames.used(node));
            }
        }
    }
}

/// Rebinding a first-touch segment of 1M pages queues at most one entry
/// per policy block, not one per moving page — for a weighted interleave
/// (one block per positive weight) and for a uniform interleave (one
/// cyclic block). Re-binding a partly drained segment queues at most one
/// entry per placement piece (extents + blocks), and draining keeps the
/// extent list just as small.
#[test]
fn rebinding_a_million_pages_queues_o_blocks_entries() {
    let m = machines::machine_b();
    let mut frames = FramePools::from_machine(&m);
    let fallback = vec![Vec::new(); m.node_count()];
    let mut aspace = AddressSpace::new();
    let len = 1u64 << 20;
    let seg = aspace
        .create_segment(
            SegmentKind::Shared,
            len,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut frames,
            &fallback,
        )
        .unwrap();
    let weighted = MemPolicy::WeightedInterleave(vec![0.1, 0.2, 0.3, 0.4]);
    let uniform = MemPolicy::Interleave(NodeSet::first(4));
    let mut q = MigrationQueue::new();
    let mut ws = CompletionScratch::default();
    for (policy, blocks) in [(&weighted, 4), (&uniform, 1), (&weighted, 4)] {
        let extents = aspace.segment(seg).unwrap().extent_count();
        let spans =
            aspace.segment(seg).unwrap().non_complying_spans(0, len, policy, NodeId(0)).unwrap();
        q.cancel_range(seg, 0, len);
        q.enqueue_ranges(spans.into_iter().map(|span| PendingRange { segment: seg, span }));
        assert!(q.pending() > 100_000, "{policy:?} queued {} pages", q.pending());
        let pieces = if extents == 1 { blocks } else { extents + blocks };
        assert!(
            q.range_count() <= pieces,
            "{policy:?}: {} entries for {blocks} policy blocks over {extents} extents",
            q.range_count()
        );
        for _ in 0..64 {
            q.complete_and_apply(4096, &mut aspace, &mut frames, &mut ws, |_, _, _| {});
        }
        let extents = aspace.segment(seg).unwrap().extent_count();
        assert!(extents <= 16, "{policy:?}: {extents} extents after a partial drain");
    }
}
