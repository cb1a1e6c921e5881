#include "histogram/isomer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>

#include "core/check.h"
#include "core/simd.h"
#include "histogram/bucket_index.h"
#include "histogram/robustness.h"
#include "obs/trace.h"

namespace sthist {

struct IsomerHistogram::Bucket {
  Box box;
  double frequency = 0.0;
  std::vector<std::unique_ptr<Bucket>> children;
  /// Region volume as of the last index (re)build; see STHoles::Bucket.
  RegionCache cached_region;
};

/// Spatial index over the bucket tree plus its build/validity state
/// (mirrors STHoles::IndexState; see DESIGN.md §10).
struct IsomerHistogram::IndexState {
  std::mutex mutex;
  BucketTreeIndex<Bucket> index;
  std::atomic<bool> ready{false};
  std::atomic<uint32_t> estimates_since_change{0};
  std::atomic<size_t> rejected_estimates{0};
};

namespace {

// Estimates that must repeat on an unchanged bucket tree before the lazy
// index build triggers (matches STHoles).
constexpr uint32_t kIndexBuildAfter = 2;

}  // namespace

IsomerHistogram::IsomerHistogram(const Box& domain, double total_tuples,
                                 const IsomerConfig& config)
    : config_(config), total_tuples_(total_tuples) {
  STHIST_CHECK(domain.dim() > 0);
  STHIST_CHECK(domain.Volume() > 0);
  STHIST_CHECK(total_tuples >= 0);
  root_ = std::make_unique<Bucket>();
  root_->box = domain;
  root_->frequency = total_tuples;
  bucket_count_ = 1;
  index_ = std::make_unique<IndexState>();

  obs::MetricsRegistry* reg =
      config.metrics != nullptr ? config.metrics : obs::GlobalMetrics();
  metrics_.estimates = reg->counter("histogram.isomer.estimates");
  metrics_.refines = reg->counter("histogram.isomer.refines");
  metrics_.constraints = reg->gauge("histogram.isomer.constraints");
  metrics_.refine_seconds = reg->latency("histogram.isomer.refine_seconds");
  metrics_.solve_seconds = reg->latency("histogram.isomer.solve_seconds");
  metrics_.index_builds = reg->counter("index.bucket_tree.builds");
  metrics_.index_invalidations = reg->counter("index.bucket_tree.invalidations");
  metrics_.index_probes = reg->counter("index.bucket_tree.probes");
  metrics_.index_node_visits = reg->counter("index.bucket_tree.node_visits");
  metrics_.flat_probes = reg->counter("index.flat.probes");
  metrics_.flat_entry_blocks = reg->counter("index.flat.entry_blocks");
  metrics_.flat_simd_level = reg->gauge("index.flat.simd_level");
  metrics_.flat_simd_level.Set(static_cast<double>(simd::ActiveLevel()));

  // The relation cardinality is a permanent constraint: the max-entropy
  // solution must always integrate to the table size.
  constraints_.push_back({domain, total_tuples});
}

IsomerHistogram::~IsomerHistogram() = default;

size_t IsomerHistogram::bucket_count() const { return bucket_count_ - 1; }

double IsomerHistogram::MinVolume() const {
  return 1e-12 * root_->box.Volume();
}

// ---------------------------------------------------------------------------
// Geometry + estimation (as STHoles eq. 1)
// ---------------------------------------------------------------------------

double IsomerHistogram::RegionVolume(const Bucket& b) {
  double v = b.box.Volume();
  for (const auto& child : b.children) v -= child->box.Volume();
  return std::max(v, 0.0);
}

double IsomerHistogram::RegionIntersectionVolume(const Bucket& b,
                                                 const Box& query) {
  double v = b.box.IntersectionVolume(query);
  for (const auto& child : b.children) {
    v -= child->box.IntersectionVolume(query);
  }
  return std::max(v, 0.0);
}

double IsomerHistogram::Estimate(const Box& query) const {
  metrics_.estimates.Inc();
  if (!IsEstimableQuery(root_->box, query)) {
    index_->rejected_estimates.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  if (!index_->ready.load(std::memory_order_acquire)) {
    const uint32_t repeats = index_->estimates_since_change.fetch_add(
                                 1, std::memory_order_relaxed) +
                             1;
    if (repeats < kIndexBuildAfter) return EstimateNode(*root_, query);
    EnsureIndex();
  }
  // Thread-local scratch: see STHoles::Estimate.
  static thread_local BucketGroups<Bucket> groups;
  const FlatBoxIndex::ProbeStats stats = index_->index.Probe(query, &groups);
  metrics_.index_probes.Inc();
  metrics_.index_node_visits.Inc(stats.node_visits);
  metrics_.flat_probes.Inc();
  metrics_.flat_entry_blocks.Inc(stats.entry_blocks);
  return EstimateIndexed(*root_, query, groups, MinVolume());
}

double IsomerHistogram::EstimateLinear(const Box& query) const {
  if (!IsEstimableQuery(root_->box, query)) {
    index_->rejected_estimates.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  return EstimateNode(*root_, query);
}

void IsomerHistogram::EnsureIndex() const {
  std::lock_guard<std::mutex> lock(index_->mutex);
  if (index_->ready.load(std::memory_order_relaxed)) return;
  index_->index.Rebuild(root_.get());
  metrics_.index_builds.Inc();
  index_->ready.store(true, std::memory_order_release);
}

void IsomerHistogram::InvalidateIndex() {
  if (index_->ready.load(std::memory_order_relaxed)) {
    metrics_.index_invalidations.Inc();
  }
  index_->ready.store(false, std::memory_order_relaxed);
  index_->estimates_since_change.store(0, std::memory_order_relaxed);
}

void IsomerHistogram::NoteStructureChange() { ++structure_epoch_; }

RobustnessStats IsomerHistogram::robustness() const {
  RobustnessStats stats = stats_;
  stats.rejected_queries +=
      index_->rejected_estimates.load(std::memory_order_relaxed);
  return stats;
}

double IsomerHistogram::EstimateNode(const Bucket& b, const Box& query) const {
  if (!b.box.Intersects(query)) return 0.0;
  double est = 0.0;
  double region = RegionVolume(b);
  if (region > MinVolume()) {
    double overlap = std::min(RegionIntersectionVolume(b, query), region);
    est += b.frequency * (overlap / region);
  } else if (query.Contains(b.box)) {
    est += b.frequency;
  }
  for (const auto& child : b.children) {
    est += EstimateNode(*child, query);
  }
  return est;
}

double IsomerHistogram::TotalFrequency() const {
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
// Structure learning (drilling, as STHoles — but mass-conserving)
// ---------------------------------------------------------------------------

void IsomerHistogram::CollectIntersecting(Bucket* b, const Box& query,
                                          std::vector<Bucket*>* out) {
  if (b->box.IntersectionVolume(query) <= 0.0) return;
  out->push_back(b);
  for (const auto& child : b->children) {
    CollectIntersecting(child.get(), query, out);
  }
}

Box IsomerHistogram::ShrinkCandidate(const Bucket& b, const Box& query) const {
  Box c = b.box.Intersection(query);
  const size_t dim = c.dim();

  while (true) {
    const Bucket* participant = nullptr;
    for (const auto& child : b.children) {
      if (!child->box.Intersects(c)) continue;
      if (child->box.Contains(c)) {
        return Box::Cube(dim, c.lo(0), c.lo(0));
      }
      if (!c.Contains(child->box)) {
        participant = child.get();
        break;
      }
    }
    if (participant == nullptr) return c;

    double best_volume = -1.0;
    size_t best_dim = 0;
    bool best_cut_low = false;
    double best_value = 0.0;
    for (const auto& child : b.children) {
      if (!child->box.Intersects(c) || c.Contains(child->box) ||
          child->box.Contains(c)) {
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        if (child->box.hi(d) > c.lo(d) && child->box.hi(d) < c.hi(d)) {
          double v = c.Volume() / c.Extent(d) * (c.hi(d) - child->box.hi(d));
          if (v > best_volume) {
            best_volume = v;
            best_dim = d;
            best_cut_low = true;
            best_value = child->box.hi(d);
          }
        }
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
      return Box::Cube(dim, c.lo(0), c.lo(0));
    }
    if (best_cut_low) {
      c.set_lo(best_dim, best_value);
    } else {
      c.set_hi(best_dim, best_value);
    }
  }
}

void IsomerHistogram::DrillHole(Bucket* b, const Box& candidate,
                                const CardinalityOracle& oracle) {
  double max_extent = 0.0;
  for (size_t d = 0; d < root_->box.dim(); ++d) {
    max_extent = std::max(max_extent, root_->box.Extent(d));
  }
  const double eps = 1e-9 * (1.0 + max_extent);

  // Candidate covers the whole bucket, or coincides with an existing child:
  // the structure already supports the constraint.
  if (candidate.ApproxEquals(b->box, eps)) return;
  for (const auto& child : b->children) {
    if (child->box.ApproxEquals(candidate, eps)) return;
  }

  auto hole = std::make_unique<Bucket>();
  hole->box = candidate;

  double moved_mass = 0.0;
  std::vector<std::unique_ptr<Bucket>> kept;
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

  // Seed the hole with the observed count (as ISOMER's add-hole step does);
  // iterative scaling then reconciles the whole tree with every retained
  // constraint.
  hole->frequency = std::max(oracle.Count(candidate) - moved_mass, 0.0);
  if (!std::isfinite(hole->frequency)) {
    ++stats_.repaired_buckets;
    hole->frequency = 0.0;
  }
  b->frequency = std::max(b->frequency - hole->frequency, 0.0);
  const bool migrated = !hole->children.empty();
  b->children.push_back(std::move(hole));
  ++bucket_count_;

  // Any drill changes region geometry, so constraint plans must rebuild;
  // the index itself only goes stale when children moved between lists.
  NoteStructureChange();
  if (migrated) {
    InvalidateIndex();
  } else if (index_->ready.load(std::memory_order_relaxed)) {
    index_->index.AppendChild(b);
  } else {
    index_->estimates_since_change.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Maximum-entropy reconciliation (iterative proportional scaling)
// ---------------------------------------------------------------------------

namespace {

// Recursively appends the plan node for `b` (already known to intersect
// `box`) and its intersecting descendants in pre-order; returns the subtree
// size. `kids(b)` enumerates b's intersecting children in child order.
template <typename BucketT, typename NodeT, typename MakeNode,
          typename Kids>
uint32_t AppendPlanNode(BucketT* b, const MakeNode& make_node,
                        const Kids& kids, std::vector<NodeT>* out) {
  const size_t at = out->size();
  out->push_back(make_node(b));
  uint32_t subtree = 1;
  for (const auto& ref : kids(b)) {
    subtree += AppendPlanNode(b->children[ref.slot].get(), make_node, kids,
                              out);
  }
  (*out)[at].subtree = subtree;
  return subtree;
}

}  // namespace

void IsomerHistogram::EnsurePlan(Constraint* constraint) {
  if (constraint->plan_epoch == structure_epoch_) return;
  constraint->plan.clear();
  constraint->plan_epoch = structure_epoch_;
  constraint->plan_estimable = IsEstimableQuery(root_->box, constraint->box);

  // Probe once; the plan then replays CollectIntersecting's pre-order
  // without ever scanning non-intersecting subtrees.
  EnsureIndex();
  BucketGroups<Bucket> groups;
  index_->index.Probe(constraint->box, &groups);

  const Box& box = constraint->box;
  if (root_->box.IntersectionVolume(box) <= 0.0) return;
  auto make_node = [&](Bucket* b) {
    PlanNode node;
    node.bucket = b;
    // cached_region is bitwise-identical to RegionVolume here: EnsureIndex
    // above refreshed it against the current structure.
    node.region = b->cached_region.Get();
    // RegionIntersectionVolume, subtracting only intersecting children (the
    // others subtract exact 0.0 in the uncached loop).
    double v = b->box.IntersectionVolume(box);
    for (const auto& ref : groups.Of(b)) {
      v -= b->children[ref.slot]->box.IntersectionVolume(box);
    }
    node.riv = std::max(v, 0.0);
    node.usable = node.region > MinVolume();
    node.contained = box.Contains(b->box);
    return node;
  };
  auto kids = [&](Bucket* b) { return groups.Of(b); };
  AppendPlanNode(root_.get(), make_node, kids, &constraint->plan);
}

double IsomerHistogram::PlanEstimate(const Constraint& constraint) const {
  STHIST_DCHECK(constraint.plan_epoch == structure_epoch_);
  if (!constraint.plan_estimable) {
    index_->rejected_estimates.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  }
  // Local recursion over the pre-order plan using the subtree extents.
  struct Eval {
    const std::vector<PlanNode>& nodes;
    double At(size_t i) const {
      const PlanNode& n = nodes[i];
      double est = 0.0;
      if (n.usable) {
        double overlap = std::min(n.riv, n.region);
        est += n.bucket->frequency * (overlap / n.region);
      } else if (n.contained) {
        est += n.bucket->frequency;
      }
      const size_t end = i + n.subtree;
      for (size_t j = i + 1; j < end; j += nodes[j].subtree) {
        est += At(j);
      }
      return est;
    }
  };
  if (constraint.plan.empty()) return 0.0;
  return Eval{constraint.plan}.At(0);
}

double IsomerHistogram::ScaleOnce() {
  double worst = 0.0;
  for (Constraint& constraint : constraints_) {
    // The hot loops below used to recompute Estimate(constraint.box) plus
    // every region/overlap volume from scratch on every round; the plan
    // caches that structure-invariant geometry once per structural epoch and
    // replays it bitwise-identically (only frequencies change per round).
    EnsurePlan(&constraint);
    double est = PlanEstimate(constraint);
    double scale_base = std::max(constraint.count, 1.0);
    worst = std::max(worst, std::abs(est - constraint.count) / scale_base);

    if (constraint.plan.empty()) continue;

    if (est > 1e-9) {
      // Multiply each bucket's overlapping portion by count/est.
      double ratio = constraint.count / est;
      for (const PlanNode& node : constraint.plan) {
        if (!node.usable) continue;
        double portion =
            node.bucket->frequency * std::min(node.riv, node.region) /
            node.region;
        node.bucket->frequency =
            std::max(node.bucket->frequency + portion * (ratio - 1.0), 0.0);
      }
    } else if (constraint.count > 0.0) {
      // Nothing to scale: seed mass proportional to overlap volume.
      double total_overlap = 0.0;
      for (const PlanNode& node : constraint.plan) {
        total_overlap += node.riv;
      }
      if (total_overlap <= 0.0) continue;
      for (const PlanNode& node : constraint.plan) {
        node.bucket->frequency +=
            constraint.count * node.riv / total_overlap;
      }
    }
  }
  return worst;
}

void IsomerHistogram::Solve() {
  obs::ScopedTimer solve_timer(metrics_.solve_seconds);
  for (size_t round = 0; round < config_.scaling_rounds; ++round) {
    double worst = ScaleOnce();
    if (worst <= config_.tolerance) break;
  }

  // Inconsistency handling: drop retained constraints (never the permanent
  // cardinality constraint at the front) that the current structure cannot
  // satisfy — typically regions whose buckets were merged away under the
  // budget. Keeping them would make every future solve thrash.
  for (size_t i = constraints_.size(); i-- > 1;) {
    EnsurePlan(&constraints_[i]);
    double est = PlanEstimate(constraints_[i]);
    double violation = std::abs(est - constraints_[i].count) /
                       std::max(constraints_[i].count, 1.0);
    if (violation > config_.inconsistency_threshold) {
      constraints_.erase(constraints_.begin() + static_cast<ptrdiff_t>(i));
    }
  }
}

double IsomerHistogram::MaxConstraintViolation() const {
  double worst = 0.0;
  for (const Constraint& constraint : constraints_) {
    double est = Estimate(constraint.box);
    worst = std::max(worst, std::abs(est - constraint.count) /
                                std::max(constraint.count, 1.0));
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Refinement
// ---------------------------------------------------------------------------

void IsomerHistogram::Refine(const Box& query,
                             const CardinalityOracle& oracle) {
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

  // Record the feedback constraint (sliding window; the permanent relation
  // cardinality constraint at the front never ages out). The sanitized count
  // is finite and non-negative, so the scaling passes stay well-defined.
  double count = safe.Count(q);
  constraints_.push_back({q, count});
  while (constraints_.size() > config_.max_constraints) {
    constraints_.erase(constraints_.begin() + 1);
  }

  // Grow structure for the query, as STHoles does.
  std::vector<Bucket*> intersecting;
  CollectIntersecting(root_.get(), q, &intersecting);
  for (Bucket* b : intersecting) {
    Box candidate = ShrinkCandidate(*b, q);
    if (candidate.Volume() <= MinVolume()) continue;
    DrillHole(b, candidate, safe);
  }

  EnforceBudget();
  Solve();
  metrics_.constraints.Set(static_cast<double>(constraint_count()));
}

// ---------------------------------------------------------------------------
// Budget: parent-child merges of the most redundant child
// ---------------------------------------------------------------------------

void IsomerHistogram::EnforceBudget() {
  while (bucket_count() > config_.max_buckets) {
    // Find the (parent, child) pair with the smallest density disagreement,
    // weighted by the child's region volume: removing it changes the
    // max-entropy solution the least.
    Bucket* best_parent = nullptr;
    size_t best_child = 0;
    double best_penalty = std::numeric_limits<double>::infinity();

    std::vector<Bucket*> stack = {root_.get()};
    while (!stack.empty()) {
      Bucket* parent = stack.back();
      stack.pop_back();
      double vp = RegionVolume(*parent);
      double parent_density = vp > 0.0 ? parent->frequency / vp : 0.0;
      for (size_t i = 0; i < parent->children.size(); ++i) {
        Bucket* child = parent->children[i].get();
        stack.push_back(child);
        double vc = RegionVolume(*child);
        double child_density = vc > 0.0 ? child->frequency / vc : 0.0;
        double penalty = std::abs(child_density - parent_density) * vc;
        if (penalty < best_penalty) {
          best_penalty = penalty;
          best_parent = parent;
          best_child = i;
        }
      }
    }
    if (best_parent == nullptr) return;

    Bucket* child = best_parent->children[best_child].get();
    best_parent->frequency += child->frequency;
    std::unique_ptr<Bucket> owned =
        std::move(best_parent->children[best_child]);
    best_parent->children.erase(best_parent->children.begin() +
                                static_cast<ptrdiff_t>(best_child));
    for (auto& grandchild : owned->children) {
      best_parent->children.push_back(std::move(grandchild));
    }
    --bucket_count_;
    // The merge moved buckets between children lists and deleted one:
    // index references and plan Bucket pointers are both stale.
    NoteStructureChange();
    InvalidateIndex();
  }
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

void IsomerHistogram::CheckInvariants() const {
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

void IsomerHistogram::CheckNode(const Bucket& b) const {
  STHIST_CHECK(b.frequency >= 0.0);
  for (size_t i = 0; i < b.children.size(); ++i) {
    STHIST_CHECK(b.box.Contains(b.children[i]->box));
    for (size_t j = i + 1; j < b.children.size(); ++j) {
      STHIST_CHECK(!b.children[i]->box.Intersects(b.children[j]->box));
    }
  }
}

}  // namespace sthist
