#ifndef STHIST_HISTOGRAM_ISOMER_H_
#define STHIST_HISTOGRAM_ISOMER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/box.h"
#include "histogram/histogram.h"
#include "obs/metrics.h"

namespace sthist {

/// ISOMER parameters.
struct IsomerConfig {
  /// Bucket budget, excluding the fixed root (STHoles counting convention).
  size_t max_buckets = 100;

  /// Sliding window of retained query-feedback constraints. Older
  /// constraints age out, which is how ISOMER follows changing data.
  size_t max_constraints = 128;

  /// Iterative-scaling rounds per refinement.
  size_t scaling_rounds = 40;

  /// Stop scaling early when every retained constraint is satisfied within
  /// this relative error.
  double tolerance = 1e-3;

  /// After solving, constraints still violated by more than this relative
  /// error are discarded (ISOMER's inconsistency handling: under a tight
  /// bucket budget, merges can make old constraints unrepresentable, and
  /// keeping them makes the scaling fight itself).
  double inconsistency_threshold = 0.5;

  /// Registry receiving the histogram.isomer.* / index.bucket_tree.* metrics
  /// (DESIGN.md §13); nullptr means the process-wide GlobalMetrics().
  obs::MetricsRegistry* metrics = nullptr;
};

/// ISOMER-style self-tuning histogram (Srivastava, Haas, Markl, Kutsch,
/// Tran — ICDE'06), the paper's reference [27]: the same STHoles bucket-tree
/// *structure*, but frequencies chosen as the maximum-entropy distribution
/// consistent with a sliding window of query-feedback constraints.
///
/// Differences to STHoles in this implementation:
///  * every observed count is *retained* as a constraint in a sliding
///    window, and after each refinement an iterative proportional scaling
///    pass reconciles the whole histogram with all retained constraints at
///    once (STHoles only ever applies the newest feedback); constraints the
///    budgeted structure can no longer satisfy are discarded, mirroring
///    ISOMER's inconsistency elimination;
///  * the budget is enforced with parent–child merges only (a simplification
///    of ISOMER's multiplier-based bucket elimination; the merge victim is
///    the child whose density is closest to its parent's).
class IsomerHistogram : public Histogram {
 public:
  IsomerHistogram(const Box& domain, double total_tuples,
                  const IsomerConfig& config);

  IsomerHistogram(const IsomerHistogram&) = delete;
  IsomerHistogram& operator=(const IsomerHistogram&) = delete;
  ~IsomerHistogram() override;

  /// Estimated cardinality of `query`. Malformed queries estimate to 0 and
  /// bump the robustness counters instead of aborting.
  ///
  /// Served through the lazily built bucket index (DESIGN.md §10);
  /// bitwise-identical to EstimateLinear by construction.
  double Estimate(const Box& query) const override;

  /// The original full-tree linear scan, retained as the reference path for
  /// differential testing against the indexed Estimate.
  double EstimateLinear(const Box& query) const override;

  /// Records the query's true cardinality as a constraint, drills structure
  /// for it, and re-solves the frequencies by iterative scaling.
  ///
  /// Untrusted feedback degrades gracefully: unusable query boxes are
  /// dropped, repairable ones sanitized, and non-finite or negative counts
  /// clamped before they become constraints — each bumping robustness().
  void Refine(const Box& query, const CardinalityOracle& oracle) override;

  /// Degradation counters accumulated since construction.
  RobustnessStats robustness() const override;

  size_t bucket_count() const override;

  /// Number of retained feedback constraints.
  size_t constraint_count() const { return constraints_.size(); }

  /// Sum of all bucket frequencies.
  double TotalFrequency() const;

  /// Worst relative violation of the retained constraints (0 = perfectly
  /// consistent).
  double MaxConstraintViolation() const;

  /// Structural invariants (nesting, disjoint siblings, non-negative
  /// frequencies); aborts on violation.
  void CheckInvariants() const;

 protected:
  /// Batch amortization (base-class hook): builds the bucket index once up
  /// front so the fanned-out per-query estimates only ever probe.
  void PrepareForBatch() const override { EnsureIndex(); }

 private:
  struct Bucket;

  // Metric handles (DESIGN.md §13), resolved once at construction from
  // config.metrics (or GlobalMetrics()); updates never feed back into any
  // estimate or scaling decision.
  struct Metrics {
    obs::Counter estimates;
    obs::Counter refines;
    obs::Gauge constraints;
    obs::LatencyHistogram refine_seconds;
    obs::LatencyHistogram solve_seconds;
    obs::Counter index_builds;
    obs::Counter index_invalidations;
    obs::Counter index_probes;
    obs::Counter index_node_visits;
    // Flat-index probe work (DESIGN.md §15); see STHoles::Metrics.
    obs::Counter flat_probes;
    obs::Counter flat_entry_blocks;
    obs::Gauge flat_simd_level;
  };

  /// Cached geometry of one bucket against one constraint box, valid while
  /// the bucket structure is unchanged (scaling only moves frequencies).
  /// Region and riv are bitwise-identical to fresh RegionVolume /
  /// RegionIntersectionVolume computations by construction, so replaying a
  /// plan reproduces the uncached per-round loops bit for bit — this is the
  /// hoisting of the invariant Estimate/geometry work out of ScaleOnce and
  /// Solve (guarded by tests/index_differential_test.cc).
  struct PlanNode {
    Bucket* bucket = nullptr;
    double region = 0.0;     // RegionVolume at plan-build time.
    double riv = 0.0;        // RegionIntersectionVolume(bucket, box).
    uint32_t subtree = 1;    // Plan nodes in this bucket's subtree, incl. self.
    bool usable = false;     // region > MinVolume(): participates in scaling.
    bool contained = false;  // box contains bucket->box (degenerate term).
  };

  struct Constraint {
    Box box;
    double count = 0.0;
    /// structure_epoch_ the plan below was built against; 0 = never built.
    uint64_t plan_epoch = 0;
    /// Pre-order plan over the buckets intersecting `box`.
    std::vector<PlanNode> plan{};
    bool plan_estimable = true;  // IsEstimableQuery(domain, box) at build.
  };

  static double RegionVolume(const Bucket& b);
  static double RegionIntersectionVolume(const Bucket& b, const Box& query);

  double EstimateNode(const Bucket& b, const Box& query) const;

  void CollectIntersecting(Bucket* b, const Box& query,
                           std::vector<Bucket*>* out);
  Box ShrinkCandidate(const Bucket& b, const Box& query) const;
  // Carves `candidate` out of b, seeded with the observed count (ISOMER's
  // add-hole step); scaling reconciles the rest of the tree.
  void DrillHole(Bucket* b, const Box& candidate,
                 const CardinalityOracle& oracle);

  // One pass of iterative proportional scaling over all constraints.
  // Returns the worst relative violation seen before adjustment.
  double ScaleOnce();
  void Solve();

  void EnforceBudget();

  // --- Constraint plans + bucket index (DESIGN.md §10) ---
  // Rebuilds constraint->plan via an index probe if its epoch is stale.
  void EnsurePlan(Constraint* constraint);
  // Replays the estimation recursion over a (fresh) plan; bitwise-identical
  // to Estimate(constraint.box) under the current frequencies.
  double PlanEstimate(const Constraint& constraint) const;
  void EnsureIndex() const;
  void InvalidateIndex();
  // Records a structural change: bumps the epoch so constraint plans rebuild.
  void NoteStructureChange();

  double MinVolume() const;
  void CheckNode(const Bucket& b) const;

  IsomerConfig config_;
  Metrics metrics_;
  std::unique_ptr<Bucket> root_;
  size_t bucket_count_ = 0;  // Including root.
  std::deque<Constraint> constraints_;
  double total_tuples_;
  // Refine-path degradation counters; Estimate-path rejections live in
  // IndexState as an atomic and are merged in robustness().
  RobustnessStats stats_;
  /// Incremented on every drill/merge; constraint plans cache geometry
  /// keyed by this, so stale Bucket pointers in plans are never followed.
  uint64_t structure_epoch_ = 1;
  // Spatial index over the bucket tree; defined in the .cc.
  struct IndexState;
  std::unique_ptr<IndexState> index_;
};

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_ISOMER_H_
