#ifndef STHIST_HISTOGRAM_STHOLES_H_
#define STHIST_HISTOGRAM_STHOLES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/box.h"
#include "core/status.h"
#include "histogram/histogram.h"
#include "obs/metrics.h"

namespace sthist {

/// Tuning knobs for STHoles.
struct STHolesConfig {
  /// Bucket budget, excluding the fixed root bucket (matching the paper's
  /// convention that "a limit of one bucket" means one bucket plus the root).
  size_t max_buckets = 100;

  /// Volumes at or below this fraction of the root volume are treated as
  /// zero when deciding whether a candidate hole is worth drilling.
  double min_volume_fraction = 1e-12;

  /// Registry receiving the histogram.stholes.* / index.bucket_tree.* metrics
  /// (DESIGN.md §13); nullptr means the process-wide GlobalMetrics(). Handles
  /// are resolved once at construction, so install the registry first. Clones
  /// inherit the config and therefore aggregate into the same cells.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The STHoles multidimensional self-tuning histogram
/// (Bruno, Chaudhuri, Gravano — SIGMOD 2001), the self-tuning baseline and
/// refinement engine of the reproduced paper.
///
/// The histogram partitions the data space into a tree of rectangular
/// buckets. A bucket's *region* is its box minus the boxes of its children
/// (the "holes" drilled into it); its frequency counts only tuples in the
/// region. Estimation applies the uniformity assumption per region (paper
/// eq. 1). Refinement drills a candidate hole into every bucket a query
/// intersects, using exact feedback counts, then merges the two most similar
/// buckets until the budget is met again (paper eq. 2 penalties, in closed
/// form).
class STHoles : public Histogram {
 public:
  /// Creates a histogram whose fixed root bucket spans `domain` and initially
  /// holds all `total_tuples` tuples.
  STHoles(const Box& domain, double total_tuples, const STHolesConfig& config);

  STHoles(const STHoles&) = delete;
  STHoles& operator=(const STHoles&) = delete;
  ~STHoles() override;

  /// Estimated cardinality of `query`. Malformed queries (dimension
  /// mismatch, non-finite or inverted bounds) estimate to 0 and bump the
  /// robustness counters instead of aborting.
  ///
  /// Served through the lazily built bucket index (DESIGN.md §10);
  /// bitwise-identical to EstimateLinear by construction, which
  /// tests/index_differential_test.cc enforces.
  double Estimate(const Box& query) const override;

  /// The original full-tree linear scan, retained as the reference path for
  /// differential testing against the indexed Estimate.
  double EstimateLinear(const Box& query) const override;

  /// Learns from the feedback of one executed query: drills shrunken
  /// candidate holes with exact counts into every intersected bucket, then
  /// compacts back to the bucket budget.
  ///
  /// Pathological feedback degrades gracefully instead of aborting: unusable
  /// query boxes are dropped, repairable ones (inverted/out-of-domain) are
  /// sanitized, and non-finite or negative oracle counts are clamped — each
  /// bumping the corresponding robustness() counter.
  void Refine(const Box& query, const CardinalityOracle& oracle) override;

  /// Deep copy of the bucket tree, configuration, and degradation counters.
  /// Estimates of the clone are bitwise-identical to the source's (same
  /// frequencies, boxes, and child order, so the same floating-point
  /// expressions evaluate); the clone's bucket index starts cold and is
  /// rebuilt lazily on its own estimates. Shares no structure with the
  /// source — the fully independent copy, as opposed to Snapshot().
  std::unique_ptr<Histogram> Clone() const override;

  /// O(1) copy-on-write snapshot (DESIGN.md §17): the snapshot shares the
  /// entire bucket tree with this histogram, and subsequent Refine calls
  /// path-copy only the buckets they touch (checking each node's reference
  /// count on the way down), so the snapshot keeps answering exactly what
  /// this histogram answered at the moment of the call — bitwise-identical
  /// to a deep Clone() taken at the same moment, which
  /// tests/cow_tree_test.cc enforces. This is the publish primitive the
  /// serving layer uses; publish cost no longer scales with bucket count.
  std::shared_ptr<const Histogram> Snapshot() const override;

  /// Degradation counters accumulated since construction.
  RobustnessStats robustness() const override;

  /// Buckets excluding the fixed root (the paper's counting convention).
  size_t bucket_count() const override { return bucket_count_ - 1; }

  /// Buckets including the root.
  size_t total_bucket_count() const { return bucket_count_; }

  /// The domain (root bucket box).
  const Box& domain() const;

  /// Sum of all bucket frequencies (total tuple mass tracked).
  double TotalFrequency() const;

  /// Flattened view of one bucket, for inspection, dumping and tests.
  struct BucketInfo {
    Box box;
    double frequency = 0.0;
    size_t depth = 0;    // Root has depth 0.
    size_t children = 0;
  };

  /// Pre-order dump of the bucket tree (root first).
  std::vector<BucketInfo> Dump() const;

  /// Serializes the bucket tree to a portable text form (version header +
  /// one line per bucket: depth, bounds, frequency). Round-trips through
  /// Deserialize with bit-exact estimates.
  std::string Serialize() const;

  /// Reconstructs a histogram from Serialize() output. Returns nullptr when
  /// the text is malformed or violates the bucket-tree invariants.
  static std::unique_ptr<STHoles> Deserialize(const std::string& text,
                                              const STHolesConfig& config);

  /// Version of the binary snapshot format SerializeBinary emits.
  /// DeserializeBinary accepts exactly this version and rejects everything
  /// else with a diagnostic naming both versions (DESIGN.md §17 spells out
  /// the version-evolution policy: bump on any layout change, never reuse).
  static constexpr uint32_t kBinaryFormatVersion = 1;

  /// Serializes the bucket tree to the versioned binary snapshot format:
  /// a 24-byte header (magic "STHB", format version, payload size, FNV-1a
  /// payload checksum) followed by the pre-order bucket records with raw
  /// IEEE-754 doubles, so estimates round-trip bit-exactly. This is the
  /// persistence layer behind warm restarts (DESIGN.md §17).
  std::string SerializeBinary() const override;

  /// Reconstructs a histogram from SerializeBinary() output, failing closed:
  /// every framing violation (bad magic, wrong version, size mismatch,
  /// checksum mismatch, truncation) and every payload violation (non-finite
  /// bounds or frequencies, children escaping parents, overlapping siblings,
  /// trailing bytes) returns an error Status — never a crash, never a
  /// histogram that only partially decoded (tests/serialize_fuzz_test.cc
  /// holds this under corpus + mutation fuzz).
  static StatusOr<std::unique_ptr<STHoles>> DeserializeBinary(
      std::string_view bytes, const STHolesConfig& config);

  /// Validates structural invariants (children nested in parents, sibling
  /// interiors disjoint, non-negative frequencies). Aborts on violation;
  /// used by tests and fuzzing.
  void CheckInvariants() const;

  /// TEST-ONLY introspection of the COW machinery (tests/cow_tree_test.cc).
  /// Nodes of this tree (root included) physically shared with at least one
  /// outstanding snapshot: a node counts when its owning handle has
  /// use_count > 1 or any ancestor's does (a path copy duplicates only the
  /// subtree root's handle, so sharing is transitive). O(n).
  size_t SharedNodeCount() const;
  /// Cumulative nodes path-copied by refinement since construction; the
  /// delta across one Refine is bounded by the buckets the query intersected
  /// (the touched path), which the test battery checks independently.
  size_t CowCopiedNodes() const { return cow_copied_total_; }

 protected:
  /// Batch amortization (base-class hook): builds the bucket index once up
  /// front so the fanned-out per-query estimates only ever probe.
  void PrepareForBatch() const override { EnsureIndex(); }

 private:
  struct Bucket;

  // Metric handles (DESIGN.md §13), resolved once at construction from
  // config.metrics (or GlobalMetrics()). Updates are relaxed atomics — or a
  // single branch when the registry is disabled — and never feed back into
  // any estimate or refinement decision, preserving the §9–§11 determinism
  // contracts (tests/obs_test.cc holds an instrumented histogram to
  // bit-identity against an uninstrumented twin).
  struct Metrics {
    obs::Counter estimates;
    obs::Counter refines;
    obs::Counter drills;
    obs::Counter merges;
    obs::Counter migrated_children;
    obs::Gauge buckets;
    obs::LatencyHistogram refine_seconds;
    obs::LatencyHistogram drill_seconds;
    obs::LatencyHistogram merge_seconds;
    obs::Counter index_builds;
    obs::Counter index_appends;
    obs::Counter index_invalidations;
    obs::Counter index_probes;
    obs::Counter index_node_visits;
    // Flat-index probe work (DESIGN.md §15): probes served through the SoA
    // path, SIMD-width entry blocks tested, and the dispatched kernel level
    // (0 scalar, 1 AVX2, 2 NEON) as a gauge.
    obs::Counter flat_probes;
    obs::Counter flat_entry_blocks;
    obs::Gauge flat_simd_level;
    // COW publish accounting (DESIGN.md §17): nodes path-copied by refines,
    // snapshots taken, and how much of the tree the latest snapshot shares
    // with its predecessor (total nodes minus nodes copied in between).
    obs::Counter cow_copied;
    obs::Counter cow_snapshots;
    obs::Gauge cow_shared;
  };

  // Deep copy of a bucket subtree, preserving child order (estimation sums
  // in child order, so order preservation is what makes clone estimates
  // bitwise equal to the source's).
  static std::shared_ptr<Bucket> CopySubtree(const Bucket& b);

  // --- Copy-on-write plumbing (DESIGN.md §17) ---
  // One-level copy: duplicates the node's scalar state and its *handles* to
  // the children (bumping their reference counts), leaving every child
  // subtree shared. The building block of path copying.
  static std::shared_ptr<Bucket> ShallowCopy(const Bucket& b);
  // Replace a shared root / child handle with an exclusive shallow copy;
  // no-ops (returning the existing node) when the handle is already
  // exclusive. Any actual copy stales the bucket index (its refs point at
  // the superseded nodes) and counts toward the cow metrics.
  Bucket* EnsureExclusiveRoot();
  Bucket* EnsureExclusiveChild(Bucket* parent, size_t slot);
  // Unshares the whole spine from the root down to `target` (found by
  // pointer identity) and returns target's possibly-copied successor.
  // Precondition: target is a node of this tree.
  Bucket* UnsharePathTo(Bucket* target);
  static bool FindPath(const Bucket* node, const Bucket* target,
                       std::vector<size_t>* slots);

  // --- Geometry over the bucket tree ---
  // Volume of the bucket's region (box minus child boxes).
  static double RegionVolume(const Bucket& b);
  // Volume of `query` ∩ region(b).
  static double RegionIntersectionVolume(const Bucket& b, const Box& query);

  // --- Estimation ---
  double EstimateNode(const Bucket& b, const Box& query) const;

  // --- Refinement ---
  // Collects every bucket whose box has positive-volume intersection with
  // `query`, in pre-order, unsharing each collected node on the way down
  // (the intersecting set is upward-closed — a child's box is nested in its
  // parent's — so this descent is exactly the touched spine COW must copy,
  // and every pointer returned is exclusively owned by this tree).
  void CollectIntersecting(Bucket* b, const Box& query,
                           std::vector<Bucket*>* out);
  // Shrinks candidate = query ∩ box(b) until no child of b partially
  // intersects it (STHoles §4.2). Returns the shrunken candidate.
  Box ShrinkCandidate(const Bucket& b, const Box& query) const;
  // Drills `candidate` into bucket b with exact feedback from `oracle`.
  void DrillHole(Bucket* b, const Box& candidate,
                 const CardinalityOracle& oracle);
  // Sets b's frequency to the exact count of its region.
  void SetExactFrequency(Bucket* b, const CardinalityOracle& oracle);

  // --- Merging ---
  struct MergeCandidate {
    Bucket* parent = nullptr;  // Parent-child: parent; sibling: common parent.
    Bucket* first = nullptr;   // Parent-child: the child. Sibling: b1.
    Bucket* second = nullptr;  // Sibling: b2; null for parent-child.
    double penalty = 0.0;
    Box merged_box;            // Sibling merges: the grown enclosure.
  };
  // Enumerates all merges and returns the cheapest, or nullopt-like result
  // with parent == nullptr when no merge exists (single root).
  MergeCandidate FindBestMerge() const;
  void ComputeSiblingMerge(Bucket* parent, Bucket* b1, Bucket* b2,
                           MergeCandidate* out) const;
  void ApplyMerge(const MergeCandidate& merge);
  void EnforceBudget();

  double MinVolume() const;

  void CheckNode(const Bucket& b) const;

  // --- Bucket index maintenance (DESIGN.md §10) ---
  // Builds the spatial index if it is not ready (thread-safe, idempotent).
  void EnsureIndex() const;
  // Marks the index stale after a structural change that moved buckets.
  void InvalidateIndex();

  STHolesConfig config_;
  Metrics metrics_;
  // Owning handle of the bucket tree. shared_ptr because Snapshot() shares
  // the whole tree with published snapshots; refinement re-establishes
  // exclusive ownership of whatever it touches via path copying, checking
  // use_count() per node. That check can race only with snapshot
  // *destruction* (other threads never add references to interior nodes), so
  // a stale read over-copies at worst — never mutates a shared node.
  std::shared_ptr<Bucket> root_;
  size_t bucket_count_ = 0;  // Including root.
  // COW accounting: lifetime path-copies, and nodes materialized since the
  // last Snapshot() — path copies plus freshly drilled/merged buckets, i.e.
  // everything the next snapshot will NOT share with its predecessor (what
  // the cow_shared gauge derives from). Mutable because Snapshot() is const
  // yet closes the per-publish window; both are touched only under the
  // refiner's exclusive-Refine contract.
  size_t cow_copied_total_ = 0;
  mutable size_t fresh_since_snapshot_ = 0;
  // Refine-path degradation counters; Estimate-path rejections live in
  // IndexState as an atomic (Estimate may run concurrently via
  // EstimateBatch) and are merged in robustness().
  RobustnessStats stats_;
  // Spatial index over the bucket tree plus its build/validity state;
  // defined in the .cc to keep the index machinery out of this header.
  struct IndexState;
  std::unique_ptr<IndexState> index_;
};

}  // namespace sthist

#endif  // STHIST_HISTOGRAM_STHOLES_H_
