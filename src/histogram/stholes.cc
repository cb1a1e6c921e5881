#include "histogram/stholes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>

#include "core/binfmt.h"
#include "core/check.h"
#include "core/simd.h"
#include "histogram/bucket_index.h"
#include "histogram/robustness.h"
#include "obs/trace.h"

namespace sthist {

/// One node of the bucket tree. The bucket's region is `box` minus the boxes
/// of `children`; `frequency` counts tuples in the region only.
///
/// Children are shared_ptr handles because snapshots share subtrees with the
/// working tree (DESIGN.md §17): a node is mutated only after refinement has
/// established exclusive ownership of it (use_count == 1) via path copying,
/// so a shared node — reachable from any published snapshot — is immutable.
struct STHoles::Bucket {
  Box box;
  double frequency = 0.0;
  std::vector<std::shared_ptr<Bucket>> children;
  /// Region volume as of the last index (re)build; only read on the indexed
  /// estimation path, which guarantees it is fresh (bitwise equal to
  /// RegionVolume) whenever IndexState::ready holds. A relaxed-atomic cell
  /// because the working tree and each snapshot build their own index, and
  /// those builds write bitwise-identical values into shared nodes.
  RegionCache cached_region;
};

/// Spatial index over the bucket tree plus its build/validity state.
struct STHoles::IndexState {
  // Serializes builds; probes run lock-free once `ready` is observed true
  // (acquire) after the builder's release store.
  std::mutex mutex;
  BucketTreeIndex<Bucket> index;
  std::atomic<bool> ready{false};
  // Estimates served since the last structural change. The lazy build waits
  // for a few of them so a lone estimate inside an Estimate/Refine interleave
  // (learn-during-sim) doesn't pay an O(n log n) rebuild per query.
  std::atomic<uint32_t> estimates_since_change{0};
  // Estimate-path rejections; atomic because EstimateBatch runs Estimate
  // concurrently. Refine-path counters stay in stats_ (Refine is exclusive).
  std::atomic<size_t> rejected_estimates{0};
};

namespace {

// Relative tolerance for box-equality decisions during drilling.
constexpr double kBoxEps = 1e-9;

// Estimates that must repeat on an unchanged bucket tree before the lazy
// index build triggers (see IndexState::estimates_since_change).
constexpr uint32_t kIndexBuildAfter = 2;

}  // namespace

STHoles::STHoles(const Box& domain, double total_tuples,
                 const STHolesConfig& config)
    : config_(config) {
  STHIST_CHECK(domain.dim() > 0);
  STHIST_CHECK(domain.Volume() > 0);
  STHIST_CHECK(total_tuples >= 0);
  root_ = std::make_shared<Bucket>();
  root_->box = domain;
  root_->frequency = total_tuples;
  bucket_count_ = 1;
  index_ = std::make_unique<IndexState>();

  obs::MetricsRegistry* reg =
      config.metrics != nullptr ? config.metrics : obs::GlobalMetrics();
  metrics_.estimates = reg->counter("histogram.stholes.estimates");
  metrics_.refines = reg->counter("histogram.stholes.refines");
  metrics_.drills = reg->counter("histogram.stholes.drills");
  metrics_.merges = reg->counter("histogram.stholes.merges");
  metrics_.migrated_children =
      reg->counter("histogram.stholes.migrated_children");
  metrics_.buckets = reg->gauge("histogram.stholes.buckets");
  metrics_.refine_seconds = reg->latency("histogram.stholes.refine_seconds");
  metrics_.drill_seconds = reg->latency("histogram.stholes.drill_seconds");
  metrics_.merge_seconds = reg->latency("histogram.stholes.merge_seconds");
  metrics_.index_builds = reg->counter("index.bucket_tree.builds");
  metrics_.index_appends = reg->counter("index.bucket_tree.appends");
  metrics_.index_invalidations = reg->counter("index.bucket_tree.invalidations");
  metrics_.index_probes = reg->counter("index.bucket_tree.probes");
  metrics_.index_node_visits = reg->counter("index.bucket_tree.node_visits");
  metrics_.flat_probes = reg->counter("index.flat.probes");
  metrics_.flat_entry_blocks = reg->counter("index.flat.entry_blocks");
  metrics_.flat_simd_level = reg->gauge("index.flat.simd_level");
  metrics_.flat_simd_level.Set(static_cast<double>(simd::ActiveLevel()));
  metrics_.cow_copied = reg->counter("histogram.cow.copied_nodes");
  metrics_.cow_snapshots = reg->counter("histogram.cow.snapshots");
  metrics_.cow_shared = reg->gauge("histogram.cow.shared_nodes");
}

STHoles::~STHoles() = default;

const Box& STHoles::domain() const { return root_->box; }

double STHoles::MinVolume() const {
  return config_.min_volume_fraction * root_->box.Volume();
}

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

double STHoles::RegionVolume(const Bucket& b) {
  double v = b.box.Volume();
  for (const auto& child : b.children) v -= child->box.Volume();
  return std::max(v, 0.0);
}

double STHoles::RegionIntersectionVolume(const Bucket& b, const Box& query) {
  double v = b.box.IntersectionVolume(query);
  for (const auto& child : b.children) {
    v -= child->box.IntersectionVolume(query);
  }
  return std::max(v, 0.0);
}

// ---------------------------------------------------------------------------
// Estimation (paper eq. 1)
// ---------------------------------------------------------------------------

double STHoles::Estimate(const Box& query) const {
  metrics_.estimates.Inc();
  if (!IsEstimableQuery(root_->box, query)) {
    index_->rejected_estimates.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  if (!index_->ready.load(std::memory_order_acquire)) {
    // Cold index: serve linearly until estimates repeat on this structure,
    // then build. Both paths return bitwise-identical values, so the policy
    // is observable only as wall-clock time.
    const uint32_t repeats = index_->estimates_since_change.fetch_add(
                                 1, std::memory_order_relaxed) +
                             1;
    if (repeats < kIndexBuildAfter) return EstimateNode(*root_, query);
    EnsureIndex();
  }
  // Thread-local scratch: probe buffers reach steady-state capacity after a
  // few queries and the hottest read path in the system stops allocating
  // (asserted by tests/flat_index_test.cc via an operator-new hook).
  static thread_local BucketGroups<Bucket> groups;
  const FlatBoxIndex::ProbeStats stats = index_->index.Probe(query, &groups);
  metrics_.index_probes.Inc();
  metrics_.index_node_visits.Inc(stats.node_visits);
  metrics_.flat_probes.Inc();
  metrics_.flat_entry_blocks.Inc(stats.entry_blocks);
  return EstimateIndexed(*root_, query, groups, MinVolume());
}

double STHoles::EstimateLinear(const Box& query) const {
  if (!IsEstimableQuery(root_->box, query)) {
    index_->rejected_estimates.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  return EstimateNode(*root_, query);
}

void STHoles::EnsureIndex() const {
  std::lock_guard<std::mutex> lock(index_->mutex);
  if (index_->ready.load(std::memory_order_relaxed)) return;
  index_->index.Rebuild(root_.get());
  metrics_.index_builds.Inc();
  index_->ready.store(true, std::memory_order_release);
}

void STHoles::InvalidateIndex() {
  if (index_->ready.load(std::memory_order_relaxed)) {
    metrics_.index_invalidations.Inc();
  }
  index_->ready.store(false, std::memory_order_relaxed);
  index_->estimates_since_change.store(0, std::memory_order_relaxed);
}

RobustnessStats STHoles::robustness() const {
  RobustnessStats stats = stats_;
  stats.rejected_queries +=
      index_->rejected_estimates.load(std::memory_order_relaxed);
  return stats;
}

double STHoles::EstimateNode(const Bucket& b, const Box& query) const {
  if (!b.box.Intersects(query)) return 0.0;
  double est = 0.0;
  double region = RegionVolume(b);
  if (region > MinVolume()) {
    double overlap = std::min(RegionIntersectionVolume(b, query), region);
    est += b.frequency * (overlap / region);
  } else if (query.Contains(b.box)) {
    // Degenerate region fully swallowed by the query: all its mass matches.
    est += b.frequency;
  }
  for (const auto& child : b.children) {
    est += EstimateNode(*child, query);
  }
  return est;
}

double STHoles::TotalFrequency() const {
  double total = 0.0;
  std::vector<const Bucket*> stack = {root_.get()};
  while (!stack.empty()) {
    const Bucket* b = stack.back();
    stack.pop_back();
    total += b->frequency;
    for (const auto& child : b->children) stack.push_back(child.get());
  }
  return total;
}

// ---------------------------------------------------------------------------
// Refinement: drilling candidate holes (paper §2, STHoles §4.2)
// ---------------------------------------------------------------------------

void STHoles::Refine(const Box& query, const CardinalityOracle& oracle) {
  metrics_.refines.Inc();
  obs::ScopedTimer timer(metrics_.refine_seconds);
  // Query boxes and oracle counts are untrusted: repair what is repairable,
  // drop what is not, and never abort.
  std::optional<Box> sanitized =
      SanitizeFeedbackQuery(root_->box, query, &stats_);
  if (!sanitized.has_value()) return;
  Box q = std::move(*sanitized);
  if (q.Volume() <= MinVolume()) {
    ++stats_.rejected_queries;
    return;
  }
  SanitizingOracle safe(oracle, &stats_);

  // Snapshot the buckets the query intersects before mutating the tree: holes
  // drilled by this very query must not be drilled into again. The collection
  // descent also re-establishes exclusive ownership of exactly those buckets
  // (the touched spine), so everything drilled or frequency-corrected below
  // is guaranteed unshared from any published snapshot.
  std::vector<Bucket*> intersecting;
  CollectIntersecting(EnsureExclusiveRoot(), q, &intersecting);

  for (Bucket* b : intersecting) {
    Box candidate = ShrinkCandidate(*b, q);
    if (candidate.Volume() <= MinVolume()) continue;
    DrillHole(b, candidate, safe);
  }

  EnforceBudget();
  metrics_.buckets.Set(static_cast<double>(bucket_count()));
}

void STHoles::CollectIntersecting(Bucket* b, const Box& query,
                                  std::vector<Bucket*>* out) {
  // Precondition: b is exclusively owned (the caller unshared it). Children
  // are unshared right before descending, and only the intersecting ones —
  // the intersecting set is upward-closed (a child's box nests inside its
  // parent's), so this copies exactly the touched spine and nothing else.
  out->push_back(b);
  for (size_t slot = 0; slot < b->children.size(); ++slot) {
    if (b->children[slot]->box.IntersectionVolume(query) <= 0.0) continue;
    CollectIntersecting(EnsureExclusiveChild(b, slot), query, out);
  }
}

Box STHoles::ShrinkCandidate(const Bucket& b, const Box& query) const {
  Box c = b.box.Intersection(query);
  const size_t dim = c.dim();

  while (true) {
    // A child that swallows the whole candidate means the queried region
    // belongs to that hole, not to b: nothing to drill here.
    const Bucket* participant = nullptr;
    for (const auto& child : b.children) {
      if (!child->box.Intersects(c)) continue;
      if (child->box.Contains(c)) {
        return Box::Cube(dim, c.lo(0), c.lo(0));  // Degenerate: volume 0.
      }
      if (!c.Contains(child->box)) {
        participant = child.get();
        break;
      }
    }
    if (participant == nullptr) return c;

    // Exclude some participant along the single dimension that preserves the
    // most candidate volume (the STHoles greedy shrink). Re-scan all
    // participants for the globally best cut.
    double best_volume = -1.0;
    size_t best_dim = 0;
    bool best_cut_low = false;  // true: raise c.lo, false: lower c.hi.
    double best_value = 0.0;
    for (const auto& child : b.children) {
      if (!child->box.Intersects(c) || c.Contains(child->box) ||
          child->box.Contains(c)) {
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        // Raise the low edge to the participant's high edge.
        if (child->box.hi(d) > c.lo(d) && child->box.hi(d) < c.hi(d)) {
          double v = c.Volume() / c.Extent(d) * (c.hi(d) - child->box.hi(d));
          if (v > best_volume) {
            best_volume = v;
            best_dim = d;
            best_cut_low = true;
            best_value = child->box.hi(d);
          }
        }
        // Lower the high edge to the participant's low edge.
        if (child->box.lo(d) < c.hi(d) && child->box.lo(d) > c.lo(d)) {
          double v = c.Volume() / c.Extent(d) * (child->box.lo(d) - c.lo(d));
          if (v > best_volume) {
            best_volume = v;
            best_dim = d;
            best_cut_low = false;
            best_value = child->box.lo(d);
          }
        }
      }
    }
    if (best_volume < 0.0) {
      // No admissible cut (participants cover the candidate's extent in every
      // cuttable dimension). Give up on this bucket.
      return Box::Cube(dim, c.lo(0), c.lo(0));
    }
    if (best_cut_low) {
      c.set_lo(best_dim, best_value);
    } else {
      c.set_hi(best_dim, best_value);
    }
  }
}

void STHoles::SetExactFrequency(Bucket* b, const CardinalityOracle& oracle) {
  double f = oracle.Count(b->box);
  for (const auto& child : b->children) {
    f -= oracle.Count(child->box);
  }
  if (!std::isfinite(f)) {
    ++stats_.repaired_buckets;
    f = 0.0;
  }
  b->frequency = std::max(f, 0.0);
}

void STHoles::DrillHole(Bucket* b, const Box& candidate,
                        const CardinalityOracle& oracle) {
  // Times the whole call, including the frequency-correction shortcuts; the
  // drills counter moves only when a hole bucket is actually created.
  obs::ScopedTimer drill_timer(metrics_.drill_seconds);
  // Coordinate tolerance for box equality, relative to the domain scale.
  double max_extent = 0.0;
  for (size_t d = 0; d < root_->box.dim(); ++d) {
    max_extent = std::max(max_extent, root_->box.Extent(d));
  }
  const double eps = kBoxEps * (1.0 + max_extent);

  if (candidate.ApproxEquals(b->box, eps)) {
    // The query feedback covers b entirely: correct its frequency in place.
    SetExactFrequency(b, oracle);
    return;
  }

  // Children fully contained in the candidate migrate into the new hole.
  // A child whose box *is* the candidate just gets its frequency corrected —
  // unshared explicitly, because the tolerance can match a child the
  // collection descent skipped (zero-volume intersection under eps).
  for (size_t slot = 0; slot < b->children.size(); ++slot) {
    if (b->children[slot]->box.ApproxEquals(candidate, eps)) {
      SetExactFrequency(EnsureExclusiveChild(b, slot), oracle);
      return;
    }
  }

  auto hole = std::make_shared<Bucket>();
  hole->box = candidate;

  // Moving child *handles* between the exclusively-owned b and the fresh
  // hole never mutates the children themselves, so migrated subtrees may
  // stay shared with snapshots.
  double moved_mass = 0.0;
  std::vector<std::shared_ptr<Bucket>> kept;
  kept.reserve(b->children.size());
  for (auto& child : b->children) {
    if (candidate.Contains(child->box)) {
      moved_mass += oracle.Count(child->box);
      hole->children.push_back(std::move(child));
    } else {
      kept.push_back(std::move(child));
    }
  }
  b->children = std::move(kept);

  hole->frequency = std::max(oracle.Count(candidate) - moved_mass, 0.0);
  if (!std::isfinite(hole->frequency)) {
    ++stats_.repaired_buckets;
    hole->frequency = 0.0;
  }
  b->frequency = std::max(b->frequency - hole->frequency, 0.0);
  const size_t migrated_children = hole->children.size();
  b->children.push_back(std::move(hole));
  ++bucket_count_;
  ++fresh_since_snapshot_;
  metrics_.drills.Inc();
  metrics_.migrated_children.Inc(migrated_children);

  if (migrated_children > 0) {
    // Children moved under the hole: slots shifted, the index is stale.
    InvalidateIndex();
  } else if (index_->ready.load(std::memory_order_relaxed)) {
    // Pure append: existing slots are untouched, so the index follows
    // incrementally instead of rebuilding.
    index_->index.AppendChild(b);
    metrics_.index_appends.Inc();
  } else {
    index_->estimates_since_change.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Merging (paper §2 "Removing buckets", STHoles §4.3)
// ---------------------------------------------------------------------------

void STHoles::EnforceBudget() {
  while (bucket_count() > config_.max_buckets) {
    MergeCandidate merge = FindBestMerge();
    if (merge.parent == nullptr) {
      // Budget exhaustion with nothing mergeable: keep the extra buckets
      // rather than aborting, and make the degradation observable.
      ++stats_.repaired_buckets;
      return;
    }
    // The merge mutates the parent node (frequency, children list), which
    // FindBestMerge may have picked outside the spine this Refine already
    // unshared. Re-establish exclusive ownership down to it first; the
    // children handles survive a parent copy, so merge.first/second stay
    // valid either way.
    merge.parent = UnsharePathTo(merge.parent);
    ApplyMerge(merge);
  }
}

STHoles::MergeCandidate STHoles::FindBestMerge() const {
  MergeCandidate best;
  best.penalty = std::numeric_limits<double>::infinity();

  // Sibling merges are ranked by a cheap penalty proxy first (the enclosure
  // without the grow-to-swallow-participants step), and only the most
  // promising pairs get the exact evaluation. This turns the O(k^3) exact
  // scan over k siblings into O(k^2) + a constant number of exact checks,
  // which dominates refinement cost at large bucket budgets.
  struct CheapSibling {
    Bucket* parent;
    Bucket* b1;
    Bucket* b2;
    double cheap_penalty;
  };
  std::vector<CheapSibling> sibling_candidates;

  std::vector<Bucket*> stack = {root_.get()};
  std::vector<double> child_region;  // Scratch: per-child region volumes.
  while (!stack.empty()) {
    Bucket* parent = stack.back();
    stack.pop_back();
    const double vp = RegionVolume(*parent);
    const size_t k = parent->children.size();

    child_region.resize(k);
    for (size_t i = 0; i < k; ++i) {
      Bucket* child = parent->children[i].get();
      stack.push_back(child);
      child_region[i] = RegionVolume(*child);

      // Parent-child merge (bp, bc) -> bn with box(bn) = box(bp); the exact
      // penalty is already O(1) given the region volumes.
      double vn = vp + child_region[i];
      double penalty = 0.0;
      if (vn > 0.0) {
        double dn = (parent->frequency + child->frequency) / vn;
        penalty = std::abs(parent->frequency - dn * vp) +
                  std::abs(child->frequency - dn * child_region[i]);
      }
      if (penalty < best.penalty) {
        best.parent = parent;
        best.first = child;
        best.second = nullptr;
        best.penalty = penalty;
      }
    }

    for (size_t i = 0; i < k; ++i) {
      Bucket* b1 = parent->children[i].get();
      for (size_t j = i + 1; j < k; ++j) {
        Bucket* b2 = parent->children[j].get();
        Box enc = Box::Enclosure(b1->box, b2->box);
        double vold = std::max(
            enc.Volume() - b1->box.Volume() - b2->box.Volume(), 0.0);
        double from_parent =
            vp > 0.0 ? parent->frequency * std::min(vold / vp, 1.0) : 0.0;
        double fn = b1->frequency + b2->frequency + from_parent;
        double vn = child_region[i] + child_region[j] + vold;
        double penalty = 0.0;
        if (vn > 0.0) {
          double dn = fn / vn;
          penalty = std::abs(b1->frequency - dn * child_region[i]) +
                    std::abs(b2->frequency - dn * child_region[j]) +
                    std::abs(from_parent - dn * vold);
        }
        sibling_candidates.push_back({parent, b1, b2, penalty});
      }
    }
  }

  // Exact evaluation of the most promising sibling pairs.
  constexpr size_t kExactEvaluations = 32;
  size_t exact = std::min(kExactEvaluations, sibling_candidates.size());
  std::partial_sort(sibling_candidates.begin(),
                    sibling_candidates.begin() + exact,
                    sibling_candidates.end(),
                    [](const CheapSibling& a, const CheapSibling& b) {
                      return a.cheap_penalty < b.cheap_penalty;
                    });
  for (size_t i = 0; i < exact; ++i) {
    MergeCandidate sibling;
    ComputeSiblingMerge(sibling_candidates[i].parent,
                        sibling_candidates[i].b1, sibling_candidates[i].b2,
                        &sibling);
    if (sibling.penalty < best.penalty) best = sibling;
  }
  return best;
}

void STHoles::ComputeSiblingMerge(Bucket* parent, Bucket* b1, Bucket* b2,
                                  MergeCandidate* out) const {
  // Grow the enclosure until it cleanly contains or excludes every sibling
  // (paper Figure 3).
  Box bn = Box::Enclosure(b1->box, b2->box);
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& sibling : parent->children) {
      Bucket* s = sibling.get();
      if (s == b1 || s == b2) continue;
      if (bn.Intersects(s->box) && !bn.Contains(s->box)) {
        bn.ExtendToContain(s->box);
        grew = true;
      }
    }
  }

  // vold: the slice of the parent's own region swallowed by bn.
  double enclosed_boxes = b1->box.Volume() + b2->box.Volume();
  for (const auto& sibling : parent->children) {
    Bucket* s = sibling.get();
    if (s == b1 || s == b2) continue;
    if (bn.Contains(s->box)) enclosed_boxes += s->box.Volume();
  }
  double vold = std::max(bn.Volume() - enclosed_boxes, 0.0);

  double vp = RegionVolume(*parent);
  double from_parent =
      vp > 0.0 ? parent->frequency * std::min(vold / vp, 1.0) : 0.0;
  double v1 = RegionVolume(*b1);
  double v2 = RegionVolume(*b2);
  double fn = b1->frequency + b2->frequency + from_parent;
  double vn = v1 + v2 + vold;

  double penalty = 0.0;
  if (vn > 0.0) {
    double dn = fn / vn;
    penalty = std::abs(b1->frequency - dn * v1) +
              std::abs(b2->frequency - dn * v2) +
              std::abs(from_parent - dn * vold);
  }

  out->parent = parent;
  out->first = b1;
  out->second = b2;
  out->penalty = penalty;
  out->merged_box = bn;
}

void STHoles::ApplyMerge(const MergeCandidate& merge) {
  obs::ScopedTimer merge_timer(metrics_.merge_seconds);
  metrics_.merges.Inc();
  // Every merge moves buckets between children lists; the index's
  // (parent, slot) references are stale either way.
  InvalidateIndex();
  Bucket* parent = merge.parent;

  if (merge.second == nullptr) {
    // Parent-child: the child's mass and holes float up into the parent.
    // The dying child may still be shared with a snapshot, so its grandchild
    // handles are *copied* up, never moved out — moving would gut a node a
    // snapshot is still reading.
    Bucket* child = merge.first;
    parent->frequency += child->frequency;
    auto it = std::find_if(
        parent->children.begin(), parent->children.end(),
        [child](const std::shared_ptr<Bucket>& b) { return b.get() == child; });
    STHIST_CHECK(it != parent->children.end());
    std::shared_ptr<Bucket> owned = *it;  // Keep alive across the erase.
    parent->children.erase(it);
    for (const auto& grandchild : owned->children) {
      parent->children.push_back(grandchild);
    }
    --bucket_count_;
    return;
  }

  // Sibling-sibling.
  const Box& bn = merge.merged_box;
  double vp = RegionVolume(*parent);
  double enclosed_boxes = 0.0;
  for (const auto& sibling : parent->children) {
    if (bn.Contains(sibling->box)) enclosed_boxes += sibling->box.Volume();
  }
  double vold = std::max(bn.Volume() - enclosed_boxes, 0.0);
  double from_parent =
      vp > 0.0 ? parent->frequency * std::min(vold / vp, 1.0) : 0.0;

  auto merged = std::make_shared<Bucket>();
  merged->box = bn;
  merged->frequency =
      merge.first->frequency + merge.second->frequency + from_parent;
  parent->frequency = std::max(parent->frequency - from_parent, 0.0);

  std::vector<std::shared_ptr<Bucket>> kept;
  kept.reserve(parent->children.size());
  for (auto& sibling : parent->children) {
    Bucket* s = sibling.get();
    if (s == merge.first || s == merge.second) {
      // Their holes live on inside the merged bucket — grandchild handles
      // are copied, not moved: the dying siblings may be shared with a
      // snapshot that is still reading them.
      for (const auto& grandchild : s->children) {
        merged->children.push_back(grandchild);
      }
    } else if (bn.Contains(s->box)) {
      // Participants become children of the merged bucket, intact; only the
      // handle moves (from the exclusively-owned parent), never the node.
      merged->children.push_back(std::move(sibling));
    } else {
      kept.push_back(std::move(sibling));
    }
  }
  parent->children = std::move(kept);
  parent->children.push_back(std::move(merged));
  ++fresh_since_snapshot_;
  --bucket_count_;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<STHoles::BucketInfo> STHoles::Dump() const {
  std::vector<BucketInfo> out;
  out.reserve(bucket_count_);
  // Pre-order with explicit depth tracking.
  std::vector<std::pair<const Bucket*, size_t>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    auto [b, depth] = stack.back();
    stack.pop_back();
    BucketInfo info;
    info.box = b->box;
    info.frequency = b->frequency;
    info.depth = depth;
    info.children = b->children.size();
    out.push_back(std::move(info));
    for (auto it = b->children.rbegin(); it != b->children.rend(); ++it) {
      stack.push_back({it->get(), depth + 1});
    }
  }
  return out;
}

std::shared_ptr<STHoles::Bucket> STHoles::CopySubtree(const Bucket& b) {
  auto copy = std::make_shared<Bucket>();
  copy->box = b.box;
  copy->frequency = b.frequency;
  copy->children.reserve(b.children.size());
  for (const auto& child : b.children) {
    copy->children.push_back(CopySubtree(*child));
  }
  return copy;
}

std::unique_ptr<Histogram> STHoles::Clone() const {
  auto clone = std::unique_ptr<STHoles>(
      new STHoles(root_->box, root_->frequency, config_));
  clone->root_ = CopySubtree(*root_);
  clone->bucket_count_ = bucket_count_;
  // Fold the estimate-path rejections (held as an atomic in IndexState) into
  // the clone's plain counters so its robustness() totals match the source's
  // at the moment of cloning; the clone's own IndexState starts at zero.
  clone->stats_ = robustness();
  return clone;
}

std::shared_ptr<const Histogram> STHoles::Snapshot() const {
  // Shares the whole tree: the snapshot holds a second reference to root_,
  // and refinement of this histogram path-copies away from every node it
  // touches before mutating (CollectIntersecting / UnsharePathTo), so what
  // the snapshot answers is frozen at this moment. The snapshot itself never
  // refines — it is published as const — so its tree never diverges.
  auto snap = std::unique_ptr<STHoles>(
      new STHoles(root_->box, root_->frequency, config_));
  snap->root_ = root_;
  snap->bucket_count_ = bucket_count_;
  snap->stats_ = robustness();
  metrics_.cow_snapshots.Inc();
  // Everything materialized since the previous snapshot (path copies plus
  // drilled/merged buckets) is what this snapshot does NOT share with it.
  const size_t fresh = std::min(fresh_since_snapshot_, bucket_count_);
  metrics_.cow_shared.Set(static_cast<double>(bucket_count_ - fresh));
  fresh_since_snapshot_ = 0;
  return std::shared_ptr<const Histogram>(std::move(snap));
}

// ---------------------------------------------------------------------------
// Copy-on-write plumbing (DESIGN.md §17)
// ---------------------------------------------------------------------------

std::shared_ptr<STHoles::Bucket> STHoles::ShallowCopy(const Bucket& b) {
  auto copy = std::make_shared<Bucket>();
  copy->box = b.box;
  copy->frequency = b.frequency;
  copy->children = b.children;  // Handle copies: child subtrees stay shared.
  copy->cached_region = b.cached_region;
  return copy;
}

STHoles::Bucket* STHoles::EnsureExclusiveRoot() {
  if (root_.use_count() > 1) {
    root_ = ShallowCopy(*root_);
    ++cow_copied_total_;
    ++fresh_since_snapshot_;
    metrics_.cow_copied.Inc();
    // The index holds raw pointers into the superseded node.
    InvalidateIndex();
  }
  return root_.get();
}

STHoles::Bucket* STHoles::EnsureExclusiveChild(Bucket* parent, size_t slot) {
  // An exclusively-owned parent does NOT imply exclusively-owned children: a
  // snapshot's copied ancestor still holds handles to the same child nodes,
  // so the reference count is checked at every level of the descent.
  std::shared_ptr<Bucket>& child = parent->children[slot];
  if (child.use_count() > 1) {
    child = ShallowCopy(*child);
    ++cow_copied_total_;
    ++fresh_since_snapshot_;
    metrics_.cow_copied.Inc();
    InvalidateIndex();
  }
  return child.get();
}

bool STHoles::FindPath(const Bucket* node, const Bucket* target,
                       std::vector<size_t>* slots) {
  if (node == target) return true;
  for (size_t slot = 0; slot < node->children.size(); ++slot) {
    slots->push_back(slot);
    if (FindPath(node->children[slot].get(), target, slots)) return true;
    slots->pop_back();
  }
  return false;
}

STHoles::Bucket* STHoles::UnsharePathTo(Bucket* target) {
  std::vector<size_t> slots;
  STHIST_CHECK_MSG(FindPath(root_.get(), target, &slots),
                   "UnsharePathTo target is not a node of this tree");
  Bucket* node = EnsureExclusiveRoot();
  for (size_t slot : slots) node = EnsureExclusiveChild(node, slot);
  return node;
}

size_t STHoles::SharedNodeCount() const {
  // Sharing is transitive: every node below a multiply-referenced handle is
  // physically shared with some snapshot even though its own handle count
  // is 1 (only the subtree root's handle is duplicated by a path copy).
  size_t shared = 0;
  std::vector<std::pair<const Bucket*, bool>> stack;
  stack.emplace_back(root_.get(), root_.use_count() > 1);
  while (!stack.empty()) {
    const auto [b, inherited] = stack.back();
    stack.pop_back();
    if (inherited) ++shared;
    for (const auto& child : b->children) {
      stack.emplace_back(child.get(), inherited || child.use_count() > 1);
    }
  }
  return shared;
}

std::string STHoles::Serialize() const {
  std::string out = "STHoles v1 dim=" + std::to_string(root_->box.dim()) +
                    " buckets=" + std::to_string(bucket_count_) + "\n";
  char buf[64];
  std::vector<std::pair<const Bucket*, size_t>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    auto [b, depth] = stack.back();
    stack.pop_back();
    out += std::to_string(depth);
    for (size_t d = 0; d < b->box.dim(); ++d) {
      std::snprintf(buf, sizeof(buf), " %.17g %.17g", b->box.lo(d),
                    b->box.hi(d));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), " %.17g\n", b->frequency);
    out += buf;
    for (auto it = b->children.rbegin(); it != b->children.rend(); ++it) {
      stack.push_back({it->get(), depth + 1});
    }
  }
  return out;
}

std::unique_ptr<STHoles> STHoles::Deserialize(const std::string& text,
                                              const STHolesConfig& config) {
  size_t dim = 0, buckets = 0;
  int header_len = 0;
  if (std::sscanf(text.c_str(), "STHoles v1 dim=%zu buckets=%zu\n%n", &dim,
                  &buckets, &header_len) != 2 ||
      dim == 0 || buckets == 0) {
    return nullptr;
  }
  // Size sanity before any allocation scales with the header's claims: every
  // bucket line carries at least 2*dim numbers separated by spaces (>= 4
  // characters per dimension) plus a depth, so headers promising more than
  // the text could possibly hold are corrupt — reject them instead of
  // attempting a multi-gigabyte reserve.
  if (dim > text.size() / 4 || buckets > text.size()) return nullptr;

  const char* cursor = text.c_str() + header_len;
  std::unique_ptr<STHoles> hist;
  std::vector<Bucket*> path;  // path[i] = last bucket seen at depth i.

  for (size_t line = 0; line < buckets; ++line) {
    int consumed = 0;
    size_t depth = 0;
    if (std::sscanf(cursor, "%zu%n", &depth, &consumed) != 1) return nullptr;
    cursor += consumed;

    std::vector<double> lo(dim), hi(dim);
    for (size_t d = 0; d < dim; ++d) {
      if (std::sscanf(cursor, "%lf %lf%n", &lo[d], &hi[d], &consumed) != 2) {
        return nullptr;
      }
      // Explicit finiteness checks: scanf happily parses "nan" and "inf",
      // and NaN slips through ordering comparisons (NaN > x is false), so
      // `lo > hi` alone would admit poisoned bounds.
      if (!std::isfinite(lo[d]) || !std::isfinite(hi[d]) || lo[d] > hi[d]) {
        return nullptr;
      }
      cursor += consumed;
    }
    double frequency = 0.0;
    if (std::sscanf(cursor, "%lf%n", &frequency, &consumed) != 1) {
      return nullptr;
    }
    cursor += consumed;
    if (!std::isfinite(frequency) || frequency < 0.0) return nullptr;

    if (line == 0) {
      if (depth != 0) return nullptr;
      Box domain(std::move(lo), std::move(hi));
      if (domain.Volume() <= 0.0) return nullptr;
      hist = std::unique_ptr<STHoles>(
          new STHoles(domain, frequency, config));
      path = {hist->root_.get()};
      continue;
    }
    if (depth == 0 || depth > path.size()) return nullptr;

    auto bucket = std::make_shared<Bucket>();
    bucket->box = Box(std::move(lo), std::move(hi));
    bucket->frequency = frequency;
    Bucket* parent = path[depth - 1];
    if (!parent->box.Contains(bucket->box)) return nullptr;
    for (const auto& sibling : parent->children) {
      if (sibling->box.Intersects(bucket->box)) return nullptr;
    }
    Bucket* raw = bucket.get();
    parent->children.push_back(std::move(bucket));
    ++hist->bucket_count_;
    path.resize(depth);
    path.push_back(raw);
  }
  // The header's bucket count is the whole payload; anything besides
  // trailing whitespace after the last bucket line is corruption.
  cursor += std::strspn(cursor, " \t\r\n");
  if (*cursor != '\0') return nullptr;
  return hist;
}

// ---------------------------------------------------------------------------
// Binary snapshot format (DESIGN.md §17)
// ---------------------------------------------------------------------------
//
// Layout (all integers little-endian, doubles as raw IEEE-754 bit patterns):
//   header (24 bytes): magic "STHB" | u32 version | u64 payload_size
//                      | u64 FNV-1a checksum of the payload
//   payload: u32 dim | u64 bucket_count
//            | bucket_count pre-order records of
//              u32 depth | dim x (f64 lo, f64 hi) | f64 frequency
// Records are fixed-size given dim, so payload_size is an exact function of
// (dim, bucket_count) and any truncation or padding is a framing error.

namespace {
constexpr char kBinaryMagic[] = "STHB";
}  // namespace

std::string STHoles::SerializeBinary() const {
  using binfmt::AppendF64;
  using binfmt::AppendU32;
  using binfmt::AppendU64;
  const size_t dim = root_->box.dim();
  std::string payload;
  payload.reserve(12 + bucket_count_ * (4 + dim * 16 + 8));
  AppendU32(&payload, static_cast<uint32_t>(dim));
  AppendU64(&payload, bucket_count_);
  std::vector<std::pair<const Bucket*, uint32_t>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    auto [b, depth] = stack.back();
    stack.pop_back();
    AppendU32(&payload, depth);
    for (size_t d = 0; d < dim; ++d) {
      AppendF64(&payload, b->box.lo(d));
      AppendF64(&payload, b->box.hi(d));
    }
    AppendF64(&payload, b->frequency);
    for (auto it = b->children.rbegin(); it != b->children.rend(); ++it) {
      stack.push_back({it->get(), depth + 1});
    }
  }
  return binfmt::Frame(kBinaryMagic, kBinaryFormatVersion, payload);
}

StatusOr<std::unique_ptr<STHoles>> STHoles::DeserializeBinary(
    std::string_view bytes, const STHolesConfig& config) {
  using binfmt::ReadF64;
  using binfmt::ReadU32;
  using binfmt::ReadU64;
  // Framing: every check fails closed before any payload byte is trusted.
  StatusOr<std::string_view> framed =
      binfmt::Unframe(kBinaryMagic, kBinaryFormatVersion, bytes);
  if (!framed.ok()) return framed.status();
  const std::string_view payload = *framed;
  const uint64_t payload_size = payload.size();
  if (payload_size < 12) {
    return Status::InvalidArgument("snapshot payload shorter than its "
                                   "dim/bucket-count preamble");
  }
  const uint32_t dim = ReadU32(payload.data());
  const uint64_t buckets = ReadU64(payload.data() + 4);
  if (dim == 0 || buckets == 0) {
    return Status::InvalidArgument(
        "snapshot declares zero dimensions or zero buckets");
  }
  // Records are fixed-size, so the payload length must match exactly; this
  // also rejects headers whose claimed counts could not possibly fit,
  // before anything allocates proportionally to them. record <= 2^36 + 12,
  // and buckets is bounded by payload_size / record before the multiply, so
  // nothing here can overflow.
  const uint64_t record = 4ull + 16ull * dim + 8ull;
  if (buckets > (payload_size - 12) / record ||
      12 + buckets * record != payload_size) {
    return StatusF(StatusCode::kInvalidArgument,
                   "snapshot payload size inconsistent with dim=%u "
                   "buckets=%llu",
                   dim, static_cast<unsigned long long>(buckets));
  }

  const char* cursor = payload.data() + 12;
  std::unique_ptr<STHoles> hist;
  std::vector<Bucket*> path;  // path[i] = last bucket seen at depth i.
  for (uint64_t line = 0; line < buckets; ++line) {
    const uint32_t depth = ReadU32(cursor);
    cursor += 4;
    std::vector<double> lo(dim), hi(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      lo[d] = ReadF64(cursor);
      hi[d] = ReadF64(cursor + 8);
      cursor += 16;
      if (!std::isfinite(lo[d]) || !std::isfinite(hi[d]) || lo[d] > hi[d]) {
        return StatusF(StatusCode::kInvalidArgument,
                       "snapshot bucket %llu has a non-finite or inverted "
                       "bound in dimension %u",
                       static_cast<unsigned long long>(line), d);
      }
    }
    const double frequency = ReadF64(cursor);
    cursor += 8;
    if (!std::isfinite(frequency) || frequency < 0.0) {
      return StatusF(StatusCode::kInvalidArgument,
                     "snapshot bucket %llu has a non-finite or negative "
                     "frequency",
                     static_cast<unsigned long long>(line));
    }

    if (line == 0) {
      if (depth != 0) {
        return Status::InvalidArgument("snapshot root bucket is not depth 0");
      }
      Box domain(std::move(lo), std::move(hi));
      if (domain.Volume() <= 0.0) {
        return Status::InvalidArgument("snapshot domain has zero volume");
      }
      hist = std::unique_ptr<STHoles>(new STHoles(domain, frequency, config));
      path = {hist->root_.get()};
      continue;
    }
    if (depth == 0 || depth > path.size()) {
      return StatusF(StatusCode::kInvalidArgument,
                     "snapshot bucket %llu has out-of-order depth %u",
                     static_cast<unsigned long long>(line), depth);
    }
    auto bucket = std::make_shared<Bucket>();
    bucket->box = Box(std::move(lo), std::move(hi));
    bucket->frequency = frequency;
    Bucket* parent = path[depth - 1];
    if (!parent->box.Contains(bucket->box)) {
      return StatusF(StatusCode::kInvalidArgument,
                     "snapshot bucket %llu escapes its parent",
                     static_cast<unsigned long long>(line));
    }
    for (const auto& sibling : parent->children) {
      if (sibling->box.Intersects(bucket->box)) {
        return StatusF(StatusCode::kInvalidArgument,
                       "snapshot bucket %llu overlaps a sibling",
                       static_cast<unsigned long long>(line));
      }
    }
    Bucket* raw = bucket.get();
    parent->children.push_back(std::move(bucket));
    ++hist->bucket_count_;
    path.resize(depth);
    path.push_back(raw);
  }
  // The exact-size check above means the cursor lands precisely on the end;
  // nothing can trail.
  STHIST_DCHECK(cursor == payload.data() + payload.size());
  return hist;
}

void STHoles::CheckInvariants() const {
  size_t counted = 0;
  std::vector<const Bucket*> stack = {root_.get()};
  while (!stack.empty()) {
    const Bucket* b = stack.back();
    stack.pop_back();
    ++counted;
    CheckNode(*b);
    for (const auto& child : b->children) stack.push_back(child.get());
  }
  STHIST_CHECK(counted == bucket_count_);
}

void STHoles::CheckNode(const Bucket& b) const {
  STHIST_CHECK(b.frequency >= 0.0);
  for (size_t i = 0; i < b.children.size(); ++i) {
    STHIST_CHECK_MSG(b.box.Contains(b.children[i]->box),
                     "child %s escapes parent %s",
                     b.children[i]->box.ToString().c_str(),
                     b.box.ToString().c_str());
    for (size_t j = i + 1; j < b.children.size(); ++j) {
      STHIST_CHECK_MSG(!b.children[i]->box.Intersects(b.children[j]->box),
                       "siblings %s and %s overlap",
                       b.children[i]->box.ToString().c_str(),
                       b.children[j]->box.ToString().c_str());
    }
  }
}

}  // namespace sthist
