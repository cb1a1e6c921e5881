#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/binfmt.h"
#include "core/rng.h"
#include "data/generators.h"
#include "histogram/stholes.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

STHolesConfig Budget(size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  return config;
}

std::unique_ptr<STHoles> Decode(const std::string& bytes, size_t buckets) {
  StatusOr<std::unique_ptr<STHoles>> hist =
      STHoles::DeserializeBinary(bytes, Budget(buckets));
  EXPECT_TRUE(hist.ok()) << hist.status().ToString();
  return hist.ok() ? *std::move(hist) : nullptr;
}

TEST(SerializeTest, FreshHistogramRoundTrips) {
  STHoles h(Box::Cube(3, 0, 100), 1234, Budget(10));
  std::string bytes = h.SerializeBinary();
  auto loaded = Decode(bytes, 10);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->bucket_count(), 0u);
  EXPECT_DOUBLE_EQ(loaded->Estimate(Box::Cube(3, 0, 100)), 1234.0);
  EXPECT_EQ(loaded->SerializeBinary(), bytes);
}

TEST(SerializeTest, TrainedHistogramRoundTripsBitExact) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 2000;
  data_config.noise_tuples = 400;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  STHoles h(g.domain, static_cast<double>(g.data.size()), Budget(40));
  WorkloadConfig wc;
  wc.num_queries = 150;
  Workload w = MakeWorkload(g.domain, wc);
  for (const Box& q : w) h.Refine(q, executor);

  std::string bytes = h.SerializeBinary();
  auto loaded = Decode(bytes, 40);
  ASSERT_NE(loaded, nullptr);
  loaded->CheckInvariants();
  EXPECT_EQ(loaded->bucket_count(), h.bucket_count());
  EXPECT_EQ(loaded->SerializeBinary(), bytes) << "round trip is bit exact";

  wc.seed = 99;
  Workload probes = MakeWorkload(g.domain, wc);
  for (const Box& q : probes) {
    EXPECT_DOUBLE_EQ(loaded->Estimate(q), h.Estimate(q));
  }
}

TEST(SerializeTest, DeserializedHistogramKeepsLearning) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 1000;
  data_config.noise_tuples = 200;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);

  STHoles h(g.domain, static_cast<double>(g.data.size()), Budget(20));
  h.Refine(Box::Cube(2, 400, 600), executor);
  auto loaded = Decode(h.SerializeBinary(), 20);
  ASSERT_NE(loaded, nullptr);
  loaded->Refine(Box::Cube(2, 100, 300), executor);
  loaded->CheckInvariants();
  EXPECT_GT(loaded->bucket_count(), h.bucket_count() - 1);
}

// ---------------------------------------------------------------------------
// Structural validation behind valid framing. Each payload below carries a
// correct frame (magic, version, size, checksum), so decoding gets past
// binfmt::Unframe and the Status must name the payload's own defect.
// ---------------------------------------------------------------------------

// One pre-order bucket record of the STHB payload.
struct Record {
  uint32_t depth = 0;
  std::vector<std::pair<double, double>> bounds;  // (lo, hi) per dimension.
  double frequency = 0.0;
};

// Frames `records` exactly as STHoles::SerializeBinary lays them out:
// u32 dim | u64 bucket_count | records of u32 depth, dim x (f64 lo, f64 hi),
// f64 frequency.
std::string FramedPayload(uint32_t dim, const std::vector<Record>& records) {
  std::string payload;
  binfmt::AppendU32(&payload, dim);
  binfmt::AppendU64(&payload, records.size());
  for (const Record& r : records) {
    binfmt::AppendU32(&payload, r.depth);
    for (const auto& [lo, hi] : r.bounds) {
      binfmt::AppendF64(&payload, lo);
      binfmt::AppendF64(&payload, hi);
    }
    binfmt::AppendF64(&payload, r.frequency);
  }
  return binfmt::Frame("STHB", STHoles::kBinaryFormatVersion, payload);
}

// The 1-d root [0, 100] holding 10 tuples.
Record Root() { return {0, {{0.0, 100.0}}, 10.0}; }

void ExpectRejectedFor(const std::string& bytes, const std::string& cause) {
  StatusOr<std::unique_ptr<STHoles>> hist =
      STHoles::DeserializeBinary(bytes, Budget(10));
  ASSERT_FALSE(hist.ok()) << "accepted a payload with: " << cause;
  EXPECT_NE(hist.status().message().find(cause), std::string::npos)
      << hist.status().ToString();
}

TEST(SerializeTest, HandFramedPayloadDecodes) {
  // The builder's layout is the real one: a well-formed hand-framed tree
  // decodes and re-serializes to the same bytes.
  const std::string bytes =
      FramedPayload(1, {Root(), {1, {{10.0, 30.0}}, 1.0},
                        {1, {{40.0, 60.0}}, 2.0}, {2, {{45.0, 50.0}}, 1.0}});
  auto hist = Decode(bytes, 10);
  ASSERT_NE(hist, nullptr);
  hist->CheckInvariants();
  EXPECT_EQ(hist->bucket_count(), 3u);
  EXPECT_EQ(hist->SerializeBinary(), bytes);
}

TEST(SerializeTest, ZeroDimensionsOrBucketsAreRejected) {
  ExpectRejectedFor(FramedPayload(0, {}), "zero dimensions or zero buckets");
  ExpectRejectedFor(FramedPayload(1, {}), "zero dimensions or zero buckets");
}

TEST(SerializeTest, InvertedBoundIsRejected) {
  ExpectRejectedFor(FramedPayload(1, {{0, {{100.0, 0.0}}, 10.0}}),
                    "bucket 0 has a non-finite or inverted bound");
  ExpectRejectedFor(FramedPayload(1, {Root(), {1, {{30.0, 10.0}}, 1.0}}),
                    "bucket 1 has a non-finite or inverted bound");
}

TEST(SerializeTest, NonFiniteBoundIsRejected) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ExpectRejectedFor(FramedPayload(1, {{0, {{kNaN, 100.0}}, 10.0}}),
                    "non-finite or inverted bound");
  ExpectRejectedFor(FramedPayload(1, {{0, {{0.0, kInf}}, 10.0}}),
                    "non-finite or inverted bound");
  ExpectRejectedFor(FramedPayload(2, {{0, {{0.0, 1.0}, {-kInf, 1.0}}, 5.0}}),
                    "inverted bound in dimension 1");
}

TEST(SerializeTest, NegativeOrNonFiniteFrequencyIsRejected) {
  ExpectRejectedFor(FramedPayload(1, {Root(), {1, {{10.0, 20.0}}, -5.0}}),
                    "bucket 1 has a non-finite or negative frequency");
  ExpectRejectedFor(
      FramedPayload(1, {{0, {{0.0, 100.0}},
                         std::numeric_limits<double>::quiet_NaN()}}),
      "bucket 0 has a non-finite or negative frequency");
}

TEST(SerializeTest, RootNotAtDepthZeroIsRejected) {
  ExpectRejectedFor(FramedPayload(1, {{1, {{0.0, 100.0}}, 10.0}}),
                    "root bucket is not depth 0");
}

TEST(SerializeTest, ZeroVolumeDomainIsRejected) {
  ExpectRejectedFor(FramedPayload(2, {{0, {{0.0, 1.0}, {5.0, 5.0}}, 10.0}}),
                    "domain has zero volume");
}

TEST(SerializeTest, OutOfOrderDepthIsRejected) {
  // Depth 2 with no depth-1 ancestor, and a second root.
  ExpectRejectedFor(FramedPayload(1, {Root(), {2, {{10.0, 20.0}}, 1.0}}),
                    "bucket 1 has out-of-order depth 2");
  ExpectRejectedFor(FramedPayload(1, {Root(), {0, {{10.0, 20.0}}, 1.0}}),
                    "bucket 1 has out-of-order depth 0");
}

TEST(SerializeTest, ChildEscapingParentIsRejected) {
  ExpectRejectedFor(FramedPayload(1, {Root(), {1, {{50.0, 150.0}}, 1.0}}),
                    "bucket 1 escapes its parent");
  // A grandchild escaping its own parent while staying inside the root.
  ExpectRejectedFor(FramedPayload(1, {Root(), {1, {{10.0, 30.0}}, 1.0},
                                      {2, {{20.0, 40.0}}, 1.0}}),
                    "bucket 2 escapes its parent");
}

TEST(SerializeTest, OverlappingSiblingsAreRejected) {
  ExpectRejectedFor(FramedPayload(1, {Root(), {1, {{10.0, 30.0}}, 1.0},
                                      {1, {{20.0, 40.0}}, 1.0}}),
                    "bucket 2 overlaps a sibling");
  // Duplicated children overlap too.
  ExpectRejectedFor(FramedPayload(1, {Root(), {1, {{10.0, 30.0}}, 1.0},
                                      {1, {{10.0, 30.0}}, 1.0}}),
                    "bucket 2 overlaps a sibling");
}

TEST(SerializeTest, SizeInconsistentWithCountsIsRejected) {
  // A valid frame around a payload whose bucket count promises one more
  // record than it holds.
  std::string payload;
  binfmt::AppendU32(&payload, 1);
  binfmt::AppendU64(&payload, 2);
  binfmt::AppendU32(&payload, 0);
  binfmt::AppendF64(&payload, 0.0);
  binfmt::AppendF64(&payload, 100.0);
  binfmt::AppendF64(&payload, 10.0);
  ExpectRejectedFor(
      binfmt::Frame("STHB", STHoles::kBinaryFormatVersion, payload),
      "payload size inconsistent with dim=1 buckets=2");
}

}  // namespace
}  // namespace sthist
