// Decorators the driver hands to the library wherever it takes an oracle or
// a histogram, so that in traced runs the library's own calls into those
// layers are recorded as spans (count and time) from outside the library.
#ifndef STHIST_PERFBENCH_INSTRUMENT_H_
#define STHIST_PERFBENCH_INSTRUMENT_H_

#include <memory>
#include <string>

#include "histogram/histogram.h"
#include "tracer.h"

namespace perfbench {

/// Counting and timing wrapper around the k-d tree executor (the paper's
/// "DB engine"): one span per Count. Oracle time spent inside a refine shows
/// up as a child span of that refine, which separates it from refine's own
/// time.
class CountingOracle final : public sthist::CardinalityOracle {
 public:
  CountingOracle(const sthist::CardinalityOracle& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  double Count(const sthist::Box& box) const override {
    ScopedSpan span(tracer_, Layer::kOracleCount);
    return inner_.Count(box);
  }

 private:
  const sthist::CardinalityOracle& inner_;
  Tracer& tracer_;
};

/// Wrapper around a self-tuning histogram that times Refine, Estimate and
/// SerializeBinary. Snapshot() returns the wrapped histogram's own snapshot, so
/// serving readers probe the library's object directly; only the refiner's
/// working copy goes through this wrapper.
class TimedHistogram final : public sthist::Histogram {
 public:
  TimedHistogram(std::unique_ptr<sthist::Histogram> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  double Estimate(const sthist::Box& query) const override {
    ScopedSpan span(tracer_, Layer::kEstimate);
    return inner_->Estimate(query);
  }
  double EstimateLinear(const sthist::Box& query) const override {
    return inner_->EstimateLinear(query);
  }
  void Refine(const sthist::Box& query,
              const sthist::CardinalityOracle& oracle) override {
    ScopedSpan span(tracer_, Layer::kRefine);
    inner_->Refine(query, oracle);
  }
  std::unique_ptr<sthist::Histogram> Clone() const override {
    std::unique_ptr<sthist::Histogram> copy = inner_->Clone();
    if (copy == nullptr) return nullptr;
    return std::make_unique<TimedHistogram>(std::move(copy), tracer_);
  }
  std::shared_ptr<const sthist::Histogram> Snapshot() const override {
    return inner_->Snapshot();
  }
  std::string SerializeBinary() const override {
    ScopedSpan span(tracer_, Layer::kSerialize);
    return inner_->SerializeBinary();
  }
  size_t bucket_count() const override { return inner_->bucket_count(); }
  sthist::RobustnessStats robustness() const override {
    return inner_->robustness();
  }

  const sthist::Histogram& inner() const { return *inner_; }

 private:
  std::unique_ptr<sthist::Histogram> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench

#endif  // STHIST_PERFBENCH_INSTRUMENT_H_
