#ifndef STHIST_SERVE_HISTOGRAM_SERVICE_H_
#define STHIST_SERVE_HISTOGRAM_SERVICE_H_

#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/box.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "histogram/histogram.h"
#include "obs/metrics.h"
#include "serve/serving_cell.h"

namespace sthist {

/// Snapshot-isolated histogram serving (DESIGN.md §11, §14): one
/// ServingCell on a 1-worker pool.
///
/// Concurrent readers estimate against an immutable published snapshot
/// (`std::shared_ptr<const Histogram>` behind an atomic), while refine runs
/// on the pool worker drain a bounded feedback queue, apply Refine to a
/// private working copy nothing else can see, and publish a copy-on-write
/// snapshot at the configured cadence. Readers never block on refinement and
/// refinement never blocks on readers; a reader holding a snapshot keeps it
/// alive after newer epochs supersede it.
///
/// With ReinitConfig::enabled the runs also drive the drift loop of
/// DESIGN.md §14: stagnation detection over the applied feedback and, on
/// trigger, a MineClus + initializer rebuild from a reservoir sample that
/// hot-swaps through the same publish path (a failed rebuild degrades back
/// to the incumbent).
///
/// Determinism: feedback is applied in queue (FIFO) order against the same
/// oracle a serial loop would use, so after Drain/Stop the published
/// snapshot's estimates are bitwise-identical to a single-threaded replay of
/// the accepted feedback sequence onto the initial histogram — regardless of
/// reader count, publish cadence, or scheduling (tests/serve_test.cc holds
/// this to std::bit_cast equality). With re-init enabled the same holds in
/// synchronous rebuild mode (background = false, the test configuration);
/// background rebuilds keep every guarantee except *when* the swap lands
/// relative to concurrent feedback.
///
/// The histogram must support Clone() (STHoles does); the oracle must be
/// const-thread-safe and outlive the service.
class HistogramService {
 public:
  /// Takes ownership of `initial` as the working copy and publishes its
  /// snapshot as epoch 0. Aborts if `initial` is null, does not support
  /// Clone(), or the re-init config is invalid (enabled with an empty domain
  /// or bad detector/reservoir knobs).
  HistogramService(std::unique_ptr<Histogram> initial,
                   const CardinalityOracle& oracle,
                   const ServiceConfig& config = {});

  /// Stops the service (drains the queue and joins the pool).
  ~HistogramService();

  HistogramService(const HistogramService&) = delete;
  HistogramService& operator=(const HistogramService&) = delete;

  /// Estimated cardinality of `query` against the current snapshot.
  /// Lock-free with respect to refinement; safe from any thread.
  double Estimate(const Box& query) const;

  /// Batch estimation against one consistent snapshot: every query in the
  /// batch is answered by the same epoch even if a publish lands mid-batch.
  std::vector<double> EstimateBatch(std::span<const Box> queries) const;

  /// The current published snapshot. Callers may hold it arbitrarily long;
  /// it stays valid (and frozen) after the service moves on or shuts down.
  std::shared_ptr<const Histogram> snapshot() const;

  /// Submits one executed query's box as refinement feedback; never blocks.
  /// kAccepted means a refine run will eventually apply it; the rejection
  /// outcomes say why it was shed instead (queue at capacity vs. service
  /// stopped).
  ///
  /// `served_estimate` is the estimate the caller served for this query —
  /// what the stagnation detector grades. Callers that did not capture one
  /// pass NaN (the default): with re-init enabled the service then samples
  /// the current snapshot itself, so the detector never silently loses its
  /// signal.
  FeedbackOutcome SubmitFeedback(
      const Box& query,
      double served_estimate = std::numeric_limits<double>::quiet_NaN());

  /// Blocks until every feedback item accepted before this call has been
  /// applied and published, i.e. staleness from the caller's viewpoint is 0.
  /// Concurrent submitters can keep the horizon moving; with quiescent
  /// producers this is a precise barrier. Always returns OK: every accepted
  /// item is applied by a run that publishes, and Stop flushes the queue. A
  /// background rebuild in flight does not hold Drain hostage: refinement
  /// continues during the rebuild, so the horizon keeps publishing.
  Status Drain();

  /// Closes the feedback queue, drains what it holds, completes (or aborts)
  /// any in-flight rebuild, publishes the final snapshot, and waits for the
  /// pool to go idle. Estimation keeps working against the final snapshot;
  /// subsequent SubmitFeedback calls are shed. Idempotent.
  void Stop();

  /// Persists the current published snapshot and its applied-feedback
  /// watermark to `path` as a versioned binary "STHS" container (DESIGN.md
  /// §17), written atomically (temp file + rename). The pair is read under
  /// the publish lock, so the watermark describes exactly the histogram
  /// saved — after Drain() this service's whole accepted feedback history,
  /// which warm restart (sthist_cli serve-sim --restore) uses to resume a
  /// deterministic feedback stream bit-exactly. Fails with a Status when the
  /// histogram does not support SerializeBinary or the file cannot be
  /// written; blocks readers and refinement only for the pointer read.
  Status SaveSnapshot(const std::string& path) const;

  /// This service's counters (see ServiceStats for the consistency caveat),
  /// read from its cell, never from a registry another service may share.
  ServiceStats stats() const;

  /// The registry receiving this service's serve.service.* metrics: the one
  /// from ServiceConfig, else the process-wide default.
  const obs::MetricsRegistry& metrics_registry() const { return *registry_; }

 private:
  const ServiceConfig config_;
  obs::MetricsRegistry* const registry_;

  // serve.snapshot.* handles (persistence, DESIGN.md §17).
  obs::Counter snapshot_saves_;
  obs::Gauge snapshot_bytes_;
  obs::LatencyHistogram snapshot_save_seconds_;

  DrainSignal signal_;
  std::shared_ptr<ServingCell> cell_;

  std::mutex stop_mutex_;  // Serializes Stop against itself (idempotence).
  bool stopped_ = false;

  /// Declared last: joined before anything a run touches is destroyed.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sthist

#endif  // STHIST_SERVE_HISTOGRAM_SERVICE_H_
