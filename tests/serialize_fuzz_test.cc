// Fuzz-style corpus test for STHoles::DeserializeBinary: the deserializer is
// the one boundary where a histogram is rebuilt from an untrusted byte stream
// (a file, a network peer, another process's snapshot), so it must return an
// error Status on anything malformed — never crash, hang, overflow an
// allocation, or leak (the ASan+UBSan CI job runs this suite with leak
// detection on).
//
// Layers: a corpus of framing corruptions, exhaustive truncation of a real
// snapshot, and seeded random mutations of valid output (overwrites,
// inserts, erases) — plus the invariant that whatever *is* accepted
// satisfies CheckInvariants and re-serializes byte-stably. Payload-level
// structural rejections behind valid framing live in serialize_test.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
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

// A trained 2-d histogram's snapshot (DESIGN.md §17), the seed for the
// mutation corpora.
std::string TrainedBinarySerialization(size_t buckets, size_t queries) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 1500;
  data_config.noise_tuples = 300;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);
  STHoles h(g.domain, static_cast<double>(g.data.size()), Budget(buckets));
  WorkloadConfig wc;
  wc.num_queries = queries;
  Workload w = MakeWorkload(g.domain, wc);
  for (const Box& q : w) h.Refine(q, executor);
  return h.SerializeBinary();
}

// The contract under fuzzing: an error Status, or a histogram that passes
// its own invariant checks and round-trips byte-stably. Nothing else — no
// crash, no abort, no poisoned estimates.
void ExpectBinaryRejectedOrValid(std::string_view input) {
  StatusOr<std::unique_ptr<STHoles>> hist =
      STHoles::DeserializeBinary(input, Budget(50));
  if (!hist.ok()) {
    EXPECT_FALSE(hist.status().message().empty());
    return;
  }
  (*hist)->CheckInvariants();
  EXPECT_TRUE(std::isfinite((*hist)->TotalFrequency()));
  const std::string reserialized = (*hist)->SerializeBinary();
  StatusOr<std::unique_ptr<STHoles>> again =
      STHoles::DeserializeBinary(reserialized, Budget(50));
  EXPECT_TRUE(again.ok());
}

TEST(SerializeFuzzTest, BinaryWrongVersionNamesBothVersions) {
  std::string blob = TrainedBinarySerialization(20, 40);
  ASSERT_GE(blob.size(), 24u);
  // The version field is the little-endian u32 after the 4-byte magic.
  blob[4] = 3;
  blob[5] = blob[6] = blob[7] = 0;
  StatusOr<std::unique_ptr<STHoles>> hist =
      STHoles::DeserializeBinary(blob, Budget(50));
  ASSERT_FALSE(hist.ok());
  const std::string& message = hist.status().message();
  // The diagnostic names the version found AND the version this build
  // reads — the operator-facing half of the evolution policy.
  EXPECT_NE(message.find("version 3"), std::string::npos) << message;
  EXPECT_NE(message.find(std::string("version ") +
                         std::to_string(STHoles::kBinaryFormatVersion)),
            std::string::npos)
      << message;
}

TEST(SerializeFuzzTest, BinaryStructuredCorruptionCorpus) {
  const std::string valid = TrainedBinarySerialization(15, 30);
  ASSERT_GE(valid.size(), 24u);

  std::vector<std::string> corpus = {
      "",
      "S",
      "STH",
      "STHB",                      // Magic only, no header.
      std::string(24, '\0'),       // Zeroed header.
      valid.substr(0, 24),         // Header without payload.
      valid + std::string(1, 0),   // Trailing byte (size mismatch).
      valid + valid,               // Doubled file.
      std::string("STHX") + valid.substr(4),  // Wrong magic.
  };
  // Every header byte flipped, one at a time: magic, version, payload size,
  // checksum — each must fail its own check.
  for (size_t i = 0; i < 24; ++i) {
    std::string mutated = valid;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    corpus.push_back(std::move(mutated));
  }
  // Every payload byte flipped in a stride: the checksum must catch all of
  // them (a flip that also fixes FNV-1a would need a second preimage).
  for (size_t i = 24; i < valid.size(); i += 7) {
    std::string mutated = valid;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    corpus.push_back(std::move(mutated));
  }

  for (size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE("binary corpus entry " + std::to_string(i));
    StatusOr<std::unique_ptr<STHoles>> hist =
        STHoles::DeserializeBinary(corpus[i], Budget(50));
    EXPECT_FALSE(hist.ok());
  }
  // The unmutated blob still decodes.
  EXPECT_TRUE(STHoles::DeserializeBinary(valid, Budget(50)).ok());
}

TEST(SerializeFuzzTest, BinaryEveryTruncationIsRejected) {
  const std::string blob = TrainedBinarySerialization(25, 60);
  ASSERT_GT(blob.size(), 100u);
  // The header pins the exact payload size, so *every* strict prefix must
  // be rejected (and must not crash) — the torn-file half of §17.
  for (size_t len = 0; len < blob.size(); ++len) {
    StatusOr<std::unique_ptr<STHoles>> hist = STHoles::DeserializeBinary(
        std::string_view(blob.data(), len), Budget(25));
    EXPECT_FALSE(hist.ok()) << "prefix of " << len << " bytes accepted";
  }
  EXPECT_TRUE(STHoles::DeserializeBinary(blob, Budget(25)).ok());
}

TEST(SerializeFuzzTest, BinaryRandomMutationsNeverCrash) {
  const std::string blob = TrainedBinarySerialization(20, 40);
  Rng rng(20260808);
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated = blob;
    int edits = 1 + static_cast<int>(rng.Uniform(0.0, 4.0));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(mutated.size())));
      pos = std::min(pos, mutated.size() - 1);
      double kind = rng.Uniform(0.0, 3.0);
      char byte = static_cast<char>(rng.Uniform(0.0, 256.0));
      if (kind < 1.0) {
        mutated[pos] = byte;
      } else if (kind < 2.0) {
        mutated.insert(pos, 1, byte);
      } else {
        mutated.erase(pos, 1);
      }
    }
    SCOPED_TRACE("binary mutation iteration " + std::to_string(iter));
    ExpectBinaryRejectedOrValid(mutated);
  }
}

TEST(SerializeFuzzTest, BinaryAcceptedRoundTripIsByteStable) {
  const std::string blob = TrainedBinarySerialization(30, 80);
  StatusOr<std::unique_ptr<STHoles>> first =
      STHoles::DeserializeBinary(blob, Budget(30));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string second_blob = (*first)->SerializeBinary();
  EXPECT_EQ(second_blob, blob);
  StatusOr<std::unique_ptr<STHoles>> second =
      STHoles::DeserializeBinary(second_blob, Budget(30));
  ASSERT_TRUE(second.ok());
  (*second)->CheckInvariants();
}

}  // namespace
}  // namespace sthist
