// Observability layer battery (src/obs/, DESIGN.md §13):
//  - concurrency: 8 writer threads per metric kind, totals exact after join
//    (and TSan-clean under the sanitizer CI jobs);
//  - export: the JSON snapshot round-trips through a minimal flat parser,
//    and text/JSON agree on every value;
//  - disabled registry: handle updates through the null object perform no
//    heap allocation (counted via a global operator new hook);
//  - non-perturbation: an instrumented STHoles produces bitwise-identical
//    estimates to an uninstrumented twin fed the identical refinement
//    sequence — instrumentation must never feed back into computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "histogram/stholes.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service_fleet.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace {

// Global allocation counter fed by the replaced operator new (below); used
// to prove the disabled path allocates nothing.
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The replacement pair is malloc/free-consistent; GCC's
// -Wmismatched-new-delete can't see that across the replaced functions and
// warns on every delete in the binary.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace sthist {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;

constexpr size_t kWriters = 8;
constexpr uint64_t kIncrementsPerWriter = 20000;

// Runs `fn(writer_index)` on kWriters threads and joins.
template <typename Fn>
void RunWriters(Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([fn, w] { fn(w); });
  }
  for (std::thread& t : threads) t.join();
}

TEST(MetricsConcurrencyTest, CounterTotalsExactAcrossWriters) {
  MetricsRegistry registry;
  obs::Counter counter = registry.counter("test.obs.counter");
  RunWriters([&](size_t) {
    for (uint64_t i = 0; i < kIncrementsPerWriter; ++i) counter.Inc();
  });
  EXPECT_EQ(counter.value(), kWriters * kIncrementsPerWriter);
}

TEST(MetricsConcurrencyTest, CounterHandlesShareOneCell) {
  MetricsRegistry registry;
  // Each writer resolves its own handle for the same name; all increments
  // must land in one cell (this is how histogram clones aggregate).
  RunWriters([&](size_t) {
    obs::Counter counter = registry.counter("test.obs.shared");
    for (uint64_t i = 0; i < kIncrementsPerWriter; ++i) counter.Inc(2);
  });
  EXPECT_EQ(registry.counter("test.obs.shared").value(),
            2 * kWriters * kIncrementsPerWriter);
}

TEST(MetricsConcurrencyTest, GaugeAddTotalsExactAcrossWriters) {
  MetricsRegistry registry;
  obs::Gauge gauge = registry.gauge("test.obs.gauge");
  // 1.0 is exactly representable and the total stays far below 2^53, so
  // floating-point addition is associative here and the sum is exact.
  RunWriters([&](size_t) {
    for (uint64_t i = 0; i < kIncrementsPerWriter; ++i) gauge.Add(1.0);
  });
  EXPECT_EQ(gauge.value(),
            static_cast<double>(kWriters * kIncrementsPerWriter));
}

TEST(MetricsConcurrencyTest, LatencyCountsExactAcrossWriters) {
  MetricsRegistry registry;
  obs::LatencyHistogram latency = registry.latency("test.obs.latency");
  RunWriters([&](size_t w) {
    // Writer w observes a constant duration that lands in bucket w, so
    // per-bucket counts are checkable exactly, not just the grand total.
    double seconds = w == 0 ? 0.5e-6 : obs::kLatencyBounds[w - 1] * 1.5;
    for (uint64_t i = 0; i < kIncrementsPerWriter; ++i) {
      latency.Observe(seconds);
    }
  });
  EXPECT_EQ(latency.count(), kWriters * kIncrementsPerWriter);
  std::array<uint64_t, obs::kLatencyBuckets> buckets =
      latency.bucket_counts();
  for (size_t b = 0; b < kWriters; ++b) {
    EXPECT_EQ(buckets[b], kIncrementsPerWriter) << "bucket " << b;
  }
  EXPECT_GT(latency.max_seconds(), obs::kLatencyBounds[kWriters - 2]);
}

// ---------------------------------------------------------------------------
// JSON snapshot round-trip. The exporter writes a small, known subset of
// JSON; this flat parser handles exactly that subset (no nesting beyond the
// fixed schema, no escapes in metric names — DESIGN.md §13 forbids them).
// ---------------------------------------------------------------------------

// Minimal recursive-descent JSON reader covering exactly what the exporter
// emits (objects, arrays, numbers, null, unescaped strings — DESIGN.md §13
// forbids exotic characters in metric names). Flattens every number to a
// path key: {"a": {"b": [[1, 2]]}} -> {"a/b/0/0": 1, "a/b/0/1": 2}.
class MiniJsonParser {
 public:
  explicit MiniJsonParser(std::string text) : text_(std::move(text)) {}

  std::map<std::string, double> Flatten() {
    ParseValue("");
    SkipWhitespace();
    EXPECT_EQ(pos_, text_.size()) << "trailing garbage after JSON document";
    return numbers_;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' ||
                                   text_[pos_] == '\n' ||
                                   text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  void Expect(char c) {
    ASSERT_LT(pos_, text_.size());
    ASSERT_EQ(text_[pos_], c) << "at offset " << pos_;
    ++pos_;
  }

  std::string ParseString() {
    Expect('"');
    size_t end = text_.find('"', pos_);
    EXPECT_NE(end, std::string::npos);
    std::string s = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return s;
  }

  void ParseValue(const std::string& path) {
    SkipWhitespace();
    ASSERT_LT(pos_, text_.size());
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      SkipWhitespace();
      if (text_[pos_] == '}') {
        ++pos_;
        return;
      }
      while (true) {
        std::string key = ParseString();
        SkipWhitespace();
        Expect(':');
        ParseValue(path.empty() ? key : path + "/" + key);
        SkipWhitespace();
        if (text_[pos_] == ',') {
          ++pos_;
          SkipWhitespace();
          continue;
        }
        Expect('}');
        break;
      }
    } else if (c == '[') {
      ++pos_;
      SkipWhitespace();
      if (text_[pos_] == ']') {
        ++pos_;
        return;
      }
      size_t index = 0;
      while (true) {
        ParseValue(path + "/" + std::to_string(index++));
        SkipWhitespace();
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        Expect(']');
        break;
      }
    } else if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;  // Overflow-bucket bound marker; carries no number.
    } else {
      char* end = nullptr;
      double value = std::strtod(text_.c_str() + pos_, &end);
      ASSERT_NE(end, text_.c_str() + pos_) << "bad number at offset " << pos_;
      numbers_[path] = value;
      pos_ = static_cast<size_t>(end - text_.c_str());
    }
  }

  std::string text_;
  size_t pos_ = 0;
  std::map<std::string, double> numbers_;
};

TEST(MetricsExportTest, JsonSnapshotRoundTrips) {
  MetricsRegistry registry;
  registry.counter("histogram.test.drills").Inc(41);
  registry.gauge("histogram.test.buckets").Set(17.5);
  obs::LatencyHistogram latency = registry.latency("serve.test.seconds");
  latency.Observe(2e-6);   // bucket 1 (1e-6, 4e-6]
  latency.Observe(2e-6);
  latency.Observe(100.0);  // overflow bucket

  std::map<std::string, double> parsed =
      MiniJsonParser(registry.ToJson()).Flatten();
  EXPECT_EQ(parsed.at("counters/histogram.test.drills"), 41.0);
  EXPECT_EQ(parsed.at("gauges/histogram.test.buckets"), 17.5);
  EXPECT_EQ(parsed.at("latencies/serve.test.seconds/count"), 3.0);
  EXPECT_EQ(parsed.at("latencies/serve.test.seconds/max_seconds"), 100.0);
  EXPECT_EQ(parsed.at("latencies/serve.test.seconds/sum_seconds"),
            100.0 + 4e-6);
  // Bucket b's count is element 1 of inner pair b; bucket 1 covers
  // (1e-6, 4e-6] and the overflow bucket is last.
  EXPECT_EQ(parsed.at("latencies/serve.test.seconds/buckets/1/1"), 2.0);
  EXPECT_EQ(parsed.at("latencies/serve.test.seconds/buckets/" +
                      std::to_string(obs::kLatencyBuckets - 1) + "/1"),
            1.0);
  // Bucket bounds round-trip too (element 0 of each pair).
  EXPECT_EQ(parsed.at("latencies/serve.test.seconds/buckets/1/0"), 4e-6);
}

TEST(MetricsExportTest, SnapshotSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("b.second.counter");
  registry.counter("a.first.counter").Inc(7);
  registry.gauge("z.gauge.depth").Set(-3.0);
  registry.latency("m.middle.seconds");

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.total_metrics(), 4u);
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.first.counter");
  EXPECT_EQ(snapshot.counters[0].value, 7u);
  EXPECT_EQ(snapshot.counters[1].name, "b.second.counter");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, -3.0);

  // The text export mentions every metric by name.
  std::string text = registry.ToText();
  EXPECT_NE(text.find("a.first.counter 7"), std::string::npos);
  EXPECT_NE(text.find("z.gauge.depth"), std::string::npos);
  EXPECT_NE(text.find("m.middle.seconds_count 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Disabled registry: null-object handles must not allocate.
// ---------------------------------------------------------------------------

TEST(MetricsDisabledTest, DisabledHandlesDoNotAllocate) {
  MetricsRegistry* disabled = MetricsRegistry::Disabled();
  ASSERT_FALSE(disabled->enabled());

  // Resolve handles once (string_view lookup on the disabled registry must
  // itself be allocation-free) and hammer them; the allocation counter must
  // not move at all.
  uint64_t before = g_allocations.load();
  obs::Counter counter = disabled->counter("layer.component.counter");
  obs::Gauge gauge = disabled->gauge("layer.component.gauge");
  obs::LatencyHistogram latency = disabled->latency("layer.component.lat");
  for (int i = 0; i < 1000; ++i) {
    counter.Inc();
    gauge.Set(static_cast<double>(i));
    latency.Observe(1e-3);
    obs::ScopedTimer timer(latency);  // Disabled: no clock read, no alloc.
  }
  uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);

  EXPECT_FALSE(counter.enabled());
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(latency.count(), 0u);
}

TEST(MetricsDisabledTest, GlobalDefaultIsDisabledNullObject) {
  // The process-wide default must be installed-nothing safe. (gtest runs
  // tests in one process; restore whatever was set when we're done.)
  obs::SetGlobalMetrics(nullptr);
  EXPECT_FALSE(obs::GlobalMetrics()->enabled());

  MetricsRegistry registry;
  obs::SetGlobalMetrics(&registry);
  EXPECT_TRUE(obs::GlobalMetrics()->enabled());
  obs::GlobalMetrics()->counter("test.global.counter").Inc();
  EXPECT_EQ(registry.counter("test.global.counter").value(), 1u);
  obs::SetGlobalMetrics(nullptr);
}

// ---------------------------------------------------------------------------
// Non-perturbation: instrumentation must never change computed results.
// ---------------------------------------------------------------------------

TEST(MetricsDifferentialTest, InstrumentedEstimatesBitwiseIdentical) {
  GaussConfig data_config;
  data_config.cluster_tuples = 4000;
  data_config.noise_tuples = 400;
  GeneratedData g = MakeGauss(data_config);
  Executor executor(g.data);

  WorkloadConfig wc;
  wc.num_queries = 150;
  wc.volume_fraction = 0.01;
  wc.seed = 23;
  Workload workload = MakeWorkload(g.domain, wc);

  MetricsRegistry registry;
  registry.EnableTracing();

  STHolesConfig instrumented_config;
  instrumented_config.max_buckets = 60;
  instrumented_config.metrics = &registry;
  STHoles instrumented(g.domain, static_cast<double>(g.data.size()),
                       instrumented_config);

  STHolesConfig plain_config;
  plain_config.max_buckets = 60;
  STHoles plain(g.domain, static_cast<double>(g.data.size()), plain_config);

  for (const Box& q : workload) {
    instrumented.Refine(q, executor);
    plain.Refine(q, executor);
  }

  ASSERT_EQ(instrumented.bucket_count(), plain.bucket_count());
  for (const Box& q : workload) {
    EXPECT_EQ(std::bit_cast<uint64_t>(instrumented.Estimate(q)),
              std::bit_cast<uint64_t>(plain.Estimate(q)));
  }

  // And the instrumentation did observe the work: refinement counters,
  // and stage latencies are populated.
  EXPECT_EQ(registry.counter("histogram.stholes.refines").value(),
            workload.size());
  EXPECT_GT(registry.counter("histogram.stholes.drills").value(), 0u);
  MetricsSnapshot snapshot = registry.Snapshot();
  bool found_refine_latency = false;
  for (const auto& latency : snapshot.latencies) {
    if (latency.name == "histogram.stholes.refine_seconds") {
      found_refine_latency = true;
      EXPECT_EQ(latency.count, workload.size());
    }
  }
  EXPECT_TRUE(found_refine_latency);
}

TEST(MetricsDifferentialTest, BatchMatchesSerialOnInstrumentedHistogram) {
  GaussConfig data_config;
  data_config.cluster_tuples = 3000;
  GeneratedData g = MakeGauss(data_config);
  Executor executor(g.data);

  WorkloadConfig wc;
  wc.num_queries = 100;
  wc.seed = 5;
  Workload workload = MakeWorkload(g.domain, wc);

  MetricsRegistry registry;
  STHolesConfig config;
  config.max_buckets = 40;
  config.metrics = &registry;
  STHoles hist(g.domain, static_cast<double>(g.data.size()), config);
  for (const Box& q : workload) hist.Refine(q, executor);

  // The unified entry point (EstimateBatch + PrepareForBatch hook) must
  // agree bitwise with per-query Estimate at any thread count.
  std::vector<double> serial = hist.EstimateBatch(workload, 1);
  std::vector<double> threaded = hist.EstimateBatch(workload, 4);
  ASSERT_EQ(serial.size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(serial[i]),
              std::bit_cast<uint64_t>(hist.Estimate(workload[i])));
    EXPECT_EQ(std::bit_cast<uint64_t>(serial[i]),
              std::bit_cast<uint64_t>(threaded[i]));
  }
}

// ---------------------------------------------------------------------------
// ServiceFleet naming/cardinality: serve.fleet.* follows the §13 rules and
// the per-shard label cap bounds the metric count however many tenants live.
// ---------------------------------------------------------------------------

TEST(FleetMetricsTest, NamesFollowLayerComponentNameScheme) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 200;
  data_config.noise_tuples = 40;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  MetricsRegistry registry;
  FleetConfig config;
  config.refiners = 1;
  config.top_k_shard_labels = 3;
  config.metrics = &registry;
  ServiceFleet fleet(config);

  STHolesConfig hc;
  hc.max_buckets = 8;
  ASSERT_TRUE(fleet
                  .AddTenant("weird key/with:chars",
                             std::make_unique<STHoles>(
                                 g.domain, static_cast<double>(g.data.size()),
                                 hc),
                             executor)
                  .ok());
  (void)fleet.SubmitFeedback("weird key/with:chars", g.domain);
  ASSERT_TRUE(fleet.Drain().ok());

  MetricsSnapshot snapshot = registry.Snapshot();
  std::vector<std::string> names;
  for (const auto& c : snapshot.counters) names.push_back(c.name);
  for (const auto& gauge : snapshot.gauges) names.push_back(gauge.name);
  for (const auto& l : snapshot.latencies) names.push_back(l.name);
  ASSERT_FALSE(names.empty());
  bool saw_fleet = false;
  for (const std::string& name : names) {
    if (name.rfind("serve.fleet", 0) != 0) continue;
    saw_fleet = true;
    // Exactly three dot-separated segments, every char from the safe set:
    // tenant keys must never leak raw into metric names.
    EXPECT_EQ(std::count(name.begin(), name.end(), '.'), 2) << name;
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.';
      EXPECT_TRUE(ok) << "unsafe char in metric name: " << name;
    }
  }
  EXPECT_TRUE(saw_fleet);
}

TEST(FleetMetricsTest, MetricCountBoundedPastTheTopKLabelCap) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 200;
  data_config.noise_tuples = 40;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);
  STHolesConfig hc;
  hc.max_buckets = 8;
  auto make_hist = [&] {
    return std::make_unique<STHoles>(g.domain,
                                     static_cast<double>(g.data.size()), hc);
  };

  MetricsRegistry registry;
  FleetConfig config;
  config.refiners = 2;
  config.top_k_shard_labels = 3;
  config.metrics = &registry;
  ServiceFleet fleet(config);

  auto shard_label_metrics = [&registry] {
    size_t n = 0;
    for (const auto& c : registry.Snapshot().counters) {
      if (c.name.rfind("serve.fleet_shard_", 0) == 0) ++n;
    }
    return n;
  };

  for (int t = 0; t < 12; ++t) {
    ASSERT_TRUE(
        fleet.AddTenant("tenant_" + std::to_string(t), make_hist(), executor)
            .ok());
  }
  // 3 labeled shards × 2 cells + the shared "other" pair.
  const size_t capped = shard_label_metrics();
  EXPECT_EQ(capped, 2u * (config.top_k_shard_labels + 1));
  const size_t total_at_12 = registry.Snapshot().total_metrics();

  // Growing the fleet well past the cap must not add a single metric; churn
  // (remove + re-add) must not either — a re-added tenant lands in "other".
  for (int t = 12; t < 60; ++t) {
    ASSERT_TRUE(
        fleet.AddTenant("tenant_" + std::to_string(t), make_hist(), executor)
            .ok());
  }
  ASSERT_TRUE(fleet.RemoveTenant("tenant_1").ok());
  ASSERT_TRUE(fleet.AddTenant("tenant_1", make_hist(), executor).ok());
  EXPECT_EQ(shard_label_metrics(), capped);
  EXPECT_EQ(registry.Snapshot().total_metrics(), total_at_12)
      << "metric cardinality must stay bounded as tenants grow";
  EXPECT_EQ(fleet.stats().tenants, fleet.TenantKeys().size());
}

}  // namespace
}  // namespace sthist
