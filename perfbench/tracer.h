// Span recording for the benchmark's traced runs.
//
// The driver opens one span around every call it makes into a library layer
// (and the decorators in instrument.h open one around every oracle count and
// histogram refine/estimate the library makes through them). A span records
// its layer, start, end and the span that was open on the same thread when it
// began (its parent). Spans live in per-thread in-memory buffers while the
// traced phase runs and are analysed and written out once it is over.
//
// With the tracer disabled a span costs one relaxed atomic load.
#ifndef STHIST_PERFBENCH_TRACER_H_
#define STHIST_PERFBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Layer boundaries the benchmark records spans at. Names follow the
/// repository's module layout (layer.component).
enum class Layer : uint16_t {
  kLoop,  // One pass of a workload's measured loop (root span).
  kDataGenerate,
  kWorkloadGenerate,
  kKdTreeBuild,
  kMineClus,
  kInitialize,
  kTrain,
  kSimulate,
  kRefine,
  kEstimate,
  kOracleCount,
  kSerialize,
  kServiceEstimate,
  kServiceSubmit,
  kServiceDrain,
  kFleetEstimate,
  kFleetSubmit,
  kFleetDrain,
  kNumLayers,
};

const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;  // Relative to the tracer's epoch.
  int64_t end_ns = 0;
  int32_t parent = -1;  // Index into the same thread's buffer; -1 = root.
  Layer layer = Layer::kLoop;
};

/// Per-layer aggregate over a set of spans.
struct LayerStats {
  uint64_t count = 0;
  double total_s = 0.0;  // Sum of span durations.
  double self_s = 0.0;   // Durations minus the time covered by child spans.
  std::vector<double> durations_s;
};

struct TraceReport {
  std::vector<LayerStats> layers;  // Indexed by Layer.
  /// Share of root (kLoop) span time covered by their direct children.
  double loop_coverage = 0.0;
  uint64_t spans = 0;

  const LayerStats& at(Layer layer) const {
    return layers[static_cast<size_t>(layer)];
  }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Clears every buffer and starts recording. Call only while no other
  /// thread is recording (between phases, with worker threads joined).
  void Start();
  /// Stops recording; spans still open finish normally.
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }
  /// Resumes recording without clearing what was recorded so far.
  void Resume() { enabled_.store(true, std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its buffer index.
  int32_t Open(Layer layer);
  /// Closes the span Open returned on the same thread.
  void Close(int32_t index);

  /// Aggregates every recorded span. Call after Stop, threads joined.
  TraceReport Analyze() const;
  /// Writes the recorded spans as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;  // Stack of open span indices.
  };

  Buffer* Local();
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::deque<Buffer> buffers_;  // Guarded by mutex_; entries never move.
};

/// RAII span; a no-op when the tracer is disabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.Open(layer) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.Close(index_);
  }

 private:
  Tracer& tracer_;
  const int32_t index_;
};

}  // namespace perfbench

#endif  // STHIST_PERFBENCH_TRACER_H_
