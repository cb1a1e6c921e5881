#ifndef STHIST_SERVE_SERVING_CELL_H_
#define STHIST_SERVE_SERVING_CELL_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clustering/mineclus.h"
#include "core/bounded_queue.h"
#include "core/box.h"
#include "core/thread_pool.h"
#include "histogram/histogram.h"
#include "init/initializer.h"
#include "obs/metrics.h"
#include "serve/stagnation.h"
#include "testing/fault_injection.h"

namespace sthist {

class TrivialHistogram;

/// Online re-initialization knobs (DESIGN.md §14). When enabled, the refiner
/// runs a StagnationDetector over its feedback stream and, on trigger,
/// re-clusters a reservoir sample of recent feedback (MineClus + the paper's
/// initializer) into a fresh histogram that hot-swaps through the normal
/// snapshot-publish path — readers never block on the rebuild.
struct ReinitConfig {
  bool enabled = false;

  /// The attribute-value domain D of the rebuilt histograms and the trivial
  /// control. Required when enabled (the service cannot infer it: the
  /// initial histogram's root box is not exposed by the Histogram API).
  Box domain;

  StagnationConfig detector;
  ReservoirConfig reservoir;

  /// Clustering and initialization of the rebuilt histogram (paper §4.1 run
  /// online over the reservoir instead of offline over the relation).
  MineClusConfig mineclus;
  InitializerConfig initializer;

  /// Bucket budget of rebuilt STHoles histograms.
  size_t max_buckets = 100;

  /// true: rebuild on a background thread while the refiner keeps applying
  /// feedback (production mode — reads and refinement never block on the
  /// rebuild). false: rebuild inline in the refine run, which makes the
  /// whole trigger→swap sequence deterministic for tests.
  bool background = true;

  /// Feedback applied while a rebuild is in flight is also retained (up to
  /// this many items) and replayed onto the rebuilt histogram before it
  /// swaps in, so the swap does not forget the queries of the rebuild
  /// window. Overflow is shed oldest-kept-first (the reservoir still saw
  /// every item).
  size_t replay_capacity = 4096;

  /// The trivial control's total tuple count is re-read from the oracle
  /// every this many observed feedback items (drift moves the row count;
  /// a stale control skews the NAE). 0 disables refresh.
  size_t trivial_refresh = 1024;

  /// Fault injection on the rebuild path: the oracle feeding the
  /// re-initializer is wrapped in a FaultyOracle with this config when
  /// rate > 0. The rebuild thread gets its own injector instance
  /// (FaultyOracle is stateful and not thread-safe).
  FaultConfig rebuild_faults;

  /// TEST/BENCH hook: replaces MineClus + initializer when set. Receives the
  /// reservoir sample and the domain total; returns the rebuilt histogram
  /// (nullptr = rebuild failure, exercising the abort path).
  std::function<std::unique_ptr<Histogram>(const Dataset& sample,
                                           double total_tuples)>
      rebuild_override;
};

/// Tuning knobs for HistogramService, and the per-cell knobs of every
/// ServingCell (a fleet fills the queue, batch, estimate and publish fields
/// from its FleetConfig).
struct ServiceConfig {
  /// Feedback queue capacity. A full queue sheds the newest feedback
  /// (SubmitFeedback reports kQueueFull, the drop counter bumps) rather than
  /// ever stalling a query thread — estimation latency is the contract,
  /// feedback is best-effort.
  size_t queue_capacity = 4096;

  /// Maximum feedback items one refine run applies before publishing (the
  /// staleness/throughput dial). A run also publishes whenever it drains
  /// the queue, so a lightly loaded service stays near-fresh and a
  /// backlogged one amortizes the publish cost over up to this many items.
  size_t publish_batch = 64;

  /// Threads for EstimateBatch on the served snapshot (0 = hardware
  /// concurrency, 1 = inline), forwarded to Histogram::EstimateBatch.
  size_t estimate_threads = 1;

  /// true: publish deep clones (Histogram::Clone) instead of copy-on-write
  /// snapshots (Histogram::Snapshot) — the pre-§17 behavior, kept as an
  /// escape hatch and for bench head-to-head comparison. The published
  /// estimates are bitwise-identical either way; only publish cost and
  /// refiner path-copy overhead differ.
  bool clone_publish = false;

  /// Feedback items already baked into the initial histogram by a previous
  /// incarnation of this service (the applied_feedback watermark of the
  /// snapshot it was restored from, 0 for a cold start). SaveSnapshot adds
  /// it to the local applied count, so a save→restore→save chain keeps the
  /// watermark cumulative over the whole feedback history.
  size_t restored_feedback = 0;

  /// Registry receiving the serve.service.* metrics (DESIGN.md §13). Null
  /// means the process-wide obs::GlobalMetrics(). Metrics are an export
  /// only: stats(), Drain and the snapshot watermark read the cell's own
  /// counters, so services sharing a registry (or a disabled one) never see
  /// each other's counts.
  obs::MetricsRegistry* metrics = nullptr;

  /// Fault injection on the refiner path: when rate > 0 every oracle answer
  /// the refiner consumes (detector observations and Refine feedback counts)
  /// flows through a FaultyOracle — the serving loop's fault coverage.
  /// Readers are unaffected (estimates never consult the oracle).
  FaultConfig faults;

  /// Stagnation detection + online re-initialization (DESIGN.md §14).
  ReinitConfig reinit;
};

/// What happened to one SubmitFeedback call. Both rejection outcomes mean
/// the item was shed (never blocked on); they differ in what the caller can
/// do about it: a full queue is transient backpressure, a stopped service is
/// final.
enum class FeedbackOutcome {
  kAccepted,
  kQueueFull,
  kStopped,
};

/// One queued feedback item: the executed query plus the estimate that was
/// served for it. The stagnation detector grades the *served* estimate — the
/// number production actually acted on, staleness and all — not the refiner's
/// one-step-ahead view, which adapts far too quickly to reveal that readers
/// are being fed garbage under drift.
struct Feedback {
  Box query;
  double served_estimate = 0.0;
};

/// Service counters, the serving-layer sibling of RobustnessStats: one
/// consistent-enough view of what the service has done so far. Counters are
/// sampled individually from relaxed atomics — totals can be one event apart
/// under concurrency, exact once the service is quiescent (after Drain or
/// Stop).
struct ServiceStats {
  /// Queries served from published snapshots (Estimate + EstimateBatch).
  size_t reads_served = 0;
  /// Feedback items admitted to the queue.
  size_t feedback_accepted = 0;
  /// Feedback items shed because the queue was at capacity.
  size_t feedback_dropped_full = 0;
  /// Feedback items shed because they arrived after Stop.
  size_t feedback_dropped_stopped = 0;
  /// Feedback items folded into the refiner's working copy.
  size_t feedback_applied = 0;
  /// Published snapshot generation; the initial snapshot is epoch 0 and
  /// every publish increments it.
  size_t snapshot_epoch = 0;
  /// Publishes performed (snapshot_epoch restated for readability).
  size_t publishes = 0;
  /// Feedback items currently waiting in the queue.
  size_t queue_depth = 0;
  /// Accepted feedback not yet visible to readers (queued, or applied to
  /// the working copy but not yet published). 0 means readers see every
  /// accepted item.
  size_t staleness = 0;
  /// Wall-clock cost of the most recent / the worst snapshot publish
  /// (making the publishable snapshot), seconds.
  double last_publish_seconds = 0.0;
  double max_publish_seconds = 0.0;

  /// Stagnation triggers fired by the detector (serve.reinit.triggers).
  size_t reinit_triggers = 0;
  /// Rebuilt histograms swapped in / rebuilds abandoned (validation failure
  /// or a null rebuild), keeping the incumbent serving.
  size_t reinit_swaps_completed = 0;
  size_t reinit_swaps_aborted = 0;
  /// Rebuild-window feedback items replayed onto rebuilt histograms.
  size_t reinit_replayed = 0;
  /// Points currently held by the feedback reservoir.
  size_t reservoir_size = 0;
  /// Most recent finite rolling NAE the detector computed (0 before the
  /// first one, and without re-init).
  double rolling_nae = 0.0;

  /// All feedback items shed, for any reason. Derived from the two split
  /// counters at read time, so dropped == dropped_full + dropped_stopped
  /// holds by construction rather than by a third independently-bumped cell.
  size_t feedback_dropped() const {
    return feedback_dropped_full + feedback_dropped_stopped;
  }
};

/// Event counts of one cell or, as a fleet's totals, of every cell it ever
/// owned. Plain relaxed atomics: the source of truth for stats, drain
/// horizons and snapshot watermarks, independent of any metrics registry.
class CellCounters {
 public:
  enum Event : size_t {
    kReads, kAccepted, kDroppedFull, kDroppedStopped, kApplied, kPublishes,
    kRuns, kTriggers, kSwapsCompleted, kSwapsAborted, kReplayed, kEvents
  };

  void Add(Event e, uint64_t n) {
    cells_[e].fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t operator[](Event e) const {
    return cells_[e].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kEvents> cells_{};
};

/// Registry handles a cell updates next to its counters. Default handles are
/// disabled, so each owner wires exactly the names it exports: the service
/// its serve.service.* / serve.reinit.* set, the fleet its serve.fleet.*
/// aggregates plus one capped per-shard label.
struct CellMetrics {
  /// The `<prefix>.*` names both owners export: reads, feedback_accepted,
  /// feedback_dropped_full/_stopped, feedback_applied, publishes,
  /// queue_depth and publish_seconds.
  static CellMetrics Export(obs::MetricsRegistry* registry,
                            const std::string& prefix);

  std::array<obs::Counter, CellCounters::kEvents> events;
  std::array<obs::Counter, CellCounters::kEvents> label;
  /// Accepted minus applied, summed over every cell sharing the gauge.
  obs::Gauge queue_depth;
  obs::Gauge staleness;
  obs::Gauge reservoir_size;
  obs::Gauge rolling_nae;
  obs::LatencyHistogram publish_seconds;
  obs::LatencyHistogram rebuild_seconds;
};

/// Publish/drain rendezvous shared by the cells of one owner: a publish
/// moves its cell's watermark under `mutex` and notifies `cv`, so a drain
/// over any set of those cells cannot miss a wakeup.
struct DrainSignal {
  std::mutex mutex;
  std::condition_variable cv;
};

class ServingCell;
/// A cell and the accepted-feedback count a drain waits for it to publish.
using DrainTarget = std::pair<std::shared_ptr<ServingCell>, uint64_t>;

/// Blocks until every target's published watermark reaches its horizon.
/// Always terminates: every accepted item is applied by some run, every run
/// that applies publishes, and closing a cell flushes its queue.
void AwaitHorizons(DrainSignal* signal,
                   const std::vector<DrainTarget>& targets);

/// One self-tuning serving cell (DESIGN.md §11): lock-free snapshot reads,
/// the bounded feedback queue, the single-writer refine and publish, and the
/// drift loop of §14. HistogramService is one cell on a 1-worker pool,
/// ServiceFleet a tenant map of cells on a K-worker pool; both refine,
/// swap and publish through this one path.
///
/// A run — pop ≤ publish_batch items FIFO → refine → swap in a finished
/// rebuild → publish — is a pool task under the `in_flight` claim (idle →
/// queued → running → running-dirty): only the thread winning idle→queued
/// submits it, and a producer finding the cell running marks it dirty so the
/// runner re-queues on release. At most one run per cell exists, so feedback
/// is applied in FIFO order by one worker at a time and a drained snapshot
/// is bitwise-identical to a serial replay. A finished background rebuild
/// schedules its cell rather than being polled for.
class ServingCell : public std::enable_shared_from_this<ServingCell> {
 public:
  /// What a cell shares with its owner, all outliving the cell's last run:
  /// the pool its runs execute on, the drain signal its publishes notify,
  /// and (optionally) totals that receive every count the cell records.
  struct Owner {
    ThreadPool* pool = nullptr;
    DrainSignal* signal = nullptr;
    CellCounters* totals = nullptr;
  };

  /// What a cell publishes of `h`: a deep clone under clone_publish, else
  /// a copy-on-write snapshot; null when `h` cannot snapshot (no Clone).
  static std::shared_ptr<const Histogram> PublishableSnapshot(
      const Histogram& h, bool clone_publish);

  /// Serves `initial` with `first` (its PublishableSnapshot) as epoch 0.
  /// Must be owned by a shared_ptr: runs hold one. Aborts on an invalid
  /// re-init config (enabled with an empty domain or bad detector/reservoir
  /// knobs). The oracle must be const-thread-safe and outlive the cell.
  ServingCell(std::unique_ptr<Histogram> initial,
              std::shared_ptr<const Histogram> first,
              const CardinalityOracle& oracle, const ServiceConfig& config,
              const Owner& owner, const CellMetrics& metrics);
  ~ServingCell();  // Joins a builder the owner never closed out.
  ServingCell(const ServingCell&) = delete;
  ServingCell& operator=(const ServingCell&) = delete;

  double Estimate(const Box& query);
  /// The whole batch is answered by one snapshot epoch.
  std::vector<double> EstimateBatch(std::span<const Box> queries);
  std::shared_ptr<const Histogram> snapshot() const {
    return snapshot_.load();
  }

  /// Queues one item of feedback and schedules a run; never blocks. With
  /// re-init on, a NaN `served_estimate` is replaced by the current
  /// snapshot's estimate, so the detector never loses its signal.
  FeedbackOutcome Submit(const Box& query, double served_estimate);

  /// Closes the queue and schedules a run that flushes it (and completes any
  /// rebuild in flight). `retire` also stops publishing — a removed fleet
  /// tenant: its remaining feedback is applied and counted and its
  /// watermark advances, but readers keep its last snapshot.
  void Close(bool retire = false);

  /// Feedback accepted so far: the drain horizon at this moment.
  uint64_t accepted() const { return counters_[CellCounters::kAccepted]; }
  /// Applied feedback visible to readers (advanced without publishing once
  /// retired). Compare against a horizon under the drain signal's mutex.
  uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }

  /// The published snapshot and the applied-feedback count it contains,
  /// read together under the publish lock.
  std::pair<std::shared_ptr<const Histogram>, uint64_t> Published() const;

  ServiceStats Stats() const;

 private:
  /// Claim states of `in_flight_` (see the class comment).
  enum InFlight : uint32_t { kIdle, kQueued, kRunning, kRunningDirty };

  void Count(CellCounters::Event e, uint64_t n = 1);

  /// Moves the cell toward a run unless one is already pending, marking a
  /// running cell dirty instead. Safe from any thread.
  void Schedule();
  void Run();
  void ApplyFeedback(const Feedback& feedback);
  void Publish();

  /// Starts (or, in synchronous mode, runs to completion) a rebuild from
  /// the current reservoir. Run only; no-op if one is in flight.
  void StartRebuild();
  /// The rebuild body: cluster the sample, initialize, validate. Runs on the
  /// builder thread (or inline); touches only immutable state and rebuild_*.
  void RunRebuild();
  /// Joins the builder, replays the rebuild-window feedback, and swaps the
  /// rebuilt histogram in as the working copy (or aborts to the incumbent).
  /// Returns whether a swap landed. Run only.
  bool CompleteSwap();

  const ServiceConfig config_;
  const CardinalityOracle& oracle_;
  const Owner owner_;
  const CellMetrics metrics_;

  /// Refiner-path fault injector (ServiceConfig::faults); refine_oracle_
  /// points at it when active, else at oracle_. Only runs consume it.
  std::unique_ptr<FaultyOracle> refiner_faults_;
  const CardinalityOracle* refine_oracle_ = nullptr;

  /// The working copy; touched only by the worker holding kRunning (and
  /// the constructor).
  std::unique_ptr<Histogram> working_;
  std::atomic<std::shared_ptr<const Histogram>> snapshot_;
  BoundedQueue<Feedback> queue_;
  std::atomic<uint32_t> in_flight_{kIdle};
  std::atomic<bool> retired_{false};

  CellCounters counters_;
  /// Applied count at the last publish; written under the signal mutex.
  std::atomic<uint64_t> published_{0};
  std::atomic<size_t> reservoir_size_{0};
  std::atomic<double> rolling_nae_{0.0};
  double last_publish_seconds_ = 0.0;  // Guarded by the signal mutex.
  double max_publish_seconds_ = 0.0;   // Guarded by the signal mutex.

  // Drift loop state (ReinitConfig::enabled); runs only, except where noted.
  std::unique_ptr<StagnationDetector> detector_;
  std::unique_ptr<FeedbackReservoir> reservoir_;
  std::unique_ptr<TrivialHistogram> trivial_;
  size_t observed_since_refresh_ = 0;
  std::vector<Feedback> replay_;  // Rebuild-window feedback, FIFO.
  bool rebuild_inflight_ = false;
  std::atomic<bool> rebuild_ready_{false};
  Dataset rebuild_sample_{1};  // Handed to the builder at StartRebuild.
  std::unique_ptr<Histogram> rebuilt_;  // Builder's result (null = failed).
  std::thread builder_;  // Last: uses the members above.
};

}  // namespace sthist

#endif  // STHIST_SERVE_SERVING_CELL_H_
