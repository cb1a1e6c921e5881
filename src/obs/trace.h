#ifndef STHIST_OBS_TRACE_H_
#define STHIST_OBS_TRACE_H_

#include <chrono>

#include "obs/metrics.h"

namespace sthist::obs {

/// \file
/// Stage timing (DESIGN.md §13): an RAII timer that records a code region's
/// wall-clock duration into a LatencyHistogram. When the target histogram
/// handle is disabled the timer never reads the clock, so a fully disabled
/// build path costs one branch per region.

/// Seconds since an arbitrary process-stable origin (the thread pool's
/// queue-wait timestamps).
double MonotonicSeconds();

/// Times one scope into a latency histogram.
///
///   obs::ScopedTimer timer(refine_seconds_);
///   ...           // region under measurement
///   // ~ScopedTimer records the elapsed seconds.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram target) : target_(target) {
    if (target_.enabled()) start_ = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Stops the timer early and records; subsequent destruction is a no-op.
  /// Returns the elapsed seconds (0 when disabled).
  double Stop() {
    if (!target_.enabled() || stopped_) return 0.0;
    stopped_ = true;
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    target_.Observe(seconds);
    return seconds;
  }

  ~ScopedTimer() { Stop(); }

 private:
  LatencyHistogram target_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
};

}  // namespace sthist::obs

#endif  // STHIST_OBS_TRACE_H_
