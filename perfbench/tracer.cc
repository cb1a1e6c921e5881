#include "tracer.h"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kLoop: return "eval.loop";
    case Layer::kDataGenerate: return "data.generate";
    case Layer::kWorkloadGenerate: return "workload.generate";
    case Layer::kKdTreeBuild: return "index.kdtree.build";
    case Layer::kMineClus: return "clustering.mineclus";
    case Layer::kInitialize: return "init.feed";
    case Layer::kTrain: return "eval.train";
    case Layer::kSimulate: return "eval.simulate";
    case Layer::kRefine: return "histogram.refine";
    case Layer::kEstimate: return "histogram.estimate";
    case Layer::kOracleCount: return "index.kdtree.count";
    case Layer::kSerialize: return "histogram.serialize";
    case Layer::kServiceEstimate: return "serve.service.estimate";
    case Layer::kServiceSubmit: return "serve.service.submit";
    case Layer::kServiceDrain: return "serve.service.drain";
    case Layer::kFleetEstimate: return "serve.fleet.estimate";
    case Layer::kFleetSubmit: return "serve.fleet.submit";
    case Layer::kFleetDrain: return "serve.fleet.drain";
    case Layer::kNumLayers: break;
  }
  return "unknown";
}

void Tracer::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Buffer& buffer : buffers_) {
    buffer.spans.clear();
    buffer.open.clear();
  }
  enabled_.store(true, std::memory_order_relaxed);
}

// The benchmark owns exactly one Tracer for the whole process, so a thread's
// buffer is resolved once and cached in thread-local storage.
Tracer::Buffer* Tracer::Local() {
  thread_local const Tracer* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffer = &buffers_.emplace_back();
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    owner = this;
  }
  return buffer;
}

int32_t Tracer::Open(Layer layer) {
  Buffer* buffer = Local();
  Span span;
  span.layer = layer;
  span.parent = buffer->open.empty() ? -1 : buffer->open.back();
  span.start_ns = NowNs();
  const auto index = static_cast<int32_t>(buffer->spans.size());
  buffer->spans.push_back(span);
  buffer->open.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  Buffer* buffer = Local();
  buffer->spans[static_cast<size_t>(index)].end_ns = NowNs();
  if (!buffer->open.empty() && buffer->open.back() == index) {
    buffer->open.pop_back();
  }
}

TraceReport Tracer::Analyze() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TraceReport report;
  report.layers.resize(static_cast<size_t>(Layer::kNumLayers));
  double loop_total = 0.0;
  double loop_children = 0.0;
  for (const Buffer& buffer : buffers_) {
    std::vector<double> child_s(buffer.spans.size(), 0.0);
    for (const Span& span : buffer.spans) {
      if (span.parent >= 0 && span.end_ns >= span.start_ns) {
        child_s[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
    for (size_t i = 0; i < buffer.spans.size(); ++i) {
      const Span& span = buffer.spans[i];
      if (span.end_ns < span.start_ns) continue;
      const double duration =
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      LayerStats& stats = report.layers[static_cast<size_t>(span.layer)];
      ++stats.count;
      stats.total_s += duration;
      stats.self_s += duration - child_s[i];
      stats.durations_s.push_back(duration);
      ++report.spans;
      if (span.layer == Layer::kLoop) {
        loop_total += duration;
        loop_children += child_s[i];
      }
    }
  }
  report.loop_coverage = loop_total > 0.0 ? loop_children / loop_total : 0.0;
  return report;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (const Buffer& buffer : buffers_) {
    for (size_t i = 0; i < buffer.spans.size(); ++i) {
      const Span& span = buffer.spans[i];
      if (span.end_ns < span.start_ns) continue;
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   first ? "" : ",", LayerName(span.layer), buffer.thread,
                   static_cast<double>(span.start_ns) * 1e-3,
                   static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                   span.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
