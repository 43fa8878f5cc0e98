// The byte path (store/summary_store.h) against the decode path it
// replaces. For the types that merge from wire bytes (SpaceSaving,
// Count-Min):
//
//   * MergeEncoded on every SummaryRegistry corpus pair leaves the bytes
//     that decode-then-Merge leaves;
//   * on every mutated input of the decode-fuzz battery, ValidateEncoded
//     says exactly what "DecodeFrom accepts and the reader is exhausted"
//     says, and an accepted mutant merges from its bytes like its
//     decoded copy;
//   * a SpaceSaving payload of another capacity takes Merge's Resize
//     path and still matches.
//
// The generic fallback (decode, then Merge) is checked on one type
// without a byte path. Labeled `fuzz`, so CI runs it under ASan+UBSan.

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/fuzz.h"
#include "mergeable/aggregate/summary_registry.h"
#include "mergeable/frequency/misra_gries.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

constexpr uint64_t kMutants = 20000;

// What ValidateEncoded must agree with: the decoder accepts every byte.
template <typename T>
std::optional<T> DecodeExactly(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  std::optional<T> summary = T::DecodeFrom(reader);
  if (!reader.Exhausted()) return std::nullopt;
  return summary;
}

template <typename T>
std::vector<uint8_t> MergedByDecoding(const std::vector<uint8_t>& into,
                                      const std::vector<uint8_t>& from) {
  T summary = DecodeSummaryOrDie<T>(into);
  summary.Merge(DecodeSummaryOrDie<T>(from));
  return EncodeSummary(summary);
}

template <typename T>
std::vector<uint8_t> MergedFromBytes(const std::vector<uint8_t>& into,
                                     const std::vector<uint8_t>& from) {
  T summary = DecodeSummaryOrDie<T>(into);
  summary.MergeEncoded(from.data(), from.size());
  return EncodeSummary(summary);
}

template <typename T>
class PayloadMergeTest : public ::testing::Test {};

using ByteMergeTypes = ::testing::Types<SpaceSaving, CountMinSketch>;
TYPED_TEST_SUITE(PayloadMergeTest, ByteMergeTypes);

TYPED_TEST(PayloadMergeTest, RegistryCorpusPairsMergeLikeDecoded) {
  using T = TypeParam;
  const SummaryCodecInfo* codec = FindSummaryCodec(SummaryTraits<T>::kTag);
  ASSERT_NE(codec, nullptr);
  uint64_t pairs = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<std::vector<uint8_t>> corpus = codec->corpus(seed);
    for (const std::vector<uint8_t>& into : corpus) {
      for (const std::vector<uint8_t>& from : corpus) {
        ASSERT_TRUE(T::ValidateEncoded(from.data(), from.size()));
        EXPECT_EQ(MergedFromBytes<T>(into, from),
                  MergedByDecoding<T>(into, from));
        // The customization point takes the same path.
        T summary = DecodeSummaryOrDie<T>(into);
        ASSERT_TRUE(PayloadMergeableInto(summary, from.data(), from.size()));
        MergePayloadInto(summary, from.data(), from.size());
        EXPECT_EQ(EncodeSummary(summary), MergedByDecoding<T>(into, from));
        ++pairs;
      }
    }
  }
  EXPECT_GE(pairs, 16u);
}

// A chain of byte merges keeps matching: the state a merge leaves, not
// just its bytes, is the decoded path's (later merges see it).
TYPED_TEST(PayloadMergeTest, ChainedMergesStayIdentical) {
  using T = TypeParam;
  const SummaryCodecInfo* codec = FindSummaryCodec(SummaryTraits<T>::kTag);
  ASSERT_NE(codec, nullptr);
  const std::vector<std::vector<uint8_t>> corpus = codec->corpus(9);
  T by_bytes = DecodeSummaryOrDie<T>(corpus.back());
  T by_decoding = DecodeSummaryOrDie<T>(corpus.back());
  for (int round = 0; round < 3; ++round) {
    for (const std::vector<uint8_t>& from : corpus) {
      by_bytes.MergeEncoded(from.data(), from.size());
      by_bytes.Canonicalize();
      CanonicalMergeInto(by_decoding, DecodeSummaryOrDie<T>(from));
      ASSERT_EQ(EncodeSummary(by_bytes), EncodeSummary(by_decoding));
    }
  }
}

TYPED_TEST(PayloadMergeTest, ValidateEncodedAgreesWithDecodeOnMutants) {
  using T = TypeParam;
  const SummaryCodecInfo* codec = FindSummaryCodec(SummaryTraits<T>::kTag);
  ASSERT_NE(codec, nullptr);
  const std::vector<std::vector<uint8_t>> corpus = codec->corpus(21);
  ByteMutator mutator(21);
  Rng rng(22);
  uint64_t accepted = 0;
  for (uint64_t i = 0; i < kMutants; ++i) {
    const std::vector<uint8_t>& base = corpus[rng.UniformInt(corpus.size())];
    const std::vector<uint8_t>& donor =
        corpus[rng.UniformInt(corpus.size())];
    const std::vector<uint8_t> mutant = mutator.Mutate(base, &donor);
    const std::optional<T> decoded = DecodeExactly<T>(mutant);
    const bool valid = T::ValidateEncoded(mutant.data(), mutant.size());
    ASSERT_EQ(valid, decoded.has_value()) << "mutant " << i;
    ASSERT_EQ(ValidPayload<T>(mutant.data(), mutant.size()), valid);
    if (!valid) continue;
    ++accepted;
    // An accepted mutant is a payload like any other: merged from its
    // bytes into a corpus summary it must match its decoded copy.
    T into = DecodeSummaryOrDie<T>(base);
    if (!PayloadMergeableInto(into, mutant.data(), mutant.size())) continue;
    T expected = into;
    expected.Merge(*decoded);
    into.MergeEncoded(mutant.data(), mutant.size());
    ASSERT_EQ(EncodeSummary(into), EncodeSummary(expected)) << "mutant " << i;
  }
  EXPECT_GT(accepted, 0u);
}

// The mutants above rarely hit a valid payload with a repeated item, so
// the duplicate check is driven directly: every pair of entries of a
// corpus payload, and a payload past the 512-entry stack buffer.
TEST(PayloadMergeTest, SpaceSavingRepeatedItemsAreInvalid) {
  constexpr size_t kHeader = 28;  // magic, capacity, n, slack, count
  constexpr size_t kEntry = 24;   // item, count, over
  std::vector<std::vector<uint8_t>> payloads =
      FindSummaryCodec(SummaryTag::kSpaceSaving)->corpus(5);
  SpaceSaving large(1000);
  for (uint64_t item = 0; item < 5000; ++item) large.Update(item % 900);
  payloads.push_back(EncodeSummary(large));
  uint64_t checked = 0;
  for (const std::vector<uint8_t>& payload : payloads) {
    ASSERT_TRUE(SpaceSaving::ValidateEncoded(payload.data(), payload.size()));
    const size_t entries = (payload.size() - kHeader) / kEntry;
    const size_t stride = entries > 64 ? entries / 8 : 1;
    for (size_t i = 0; i < entries; i += stride) {
      for (size_t j = i + 1; j < entries; j += stride) {
        std::vector<uint8_t> repeated = payload;
        std::memcpy(repeated.data() + kHeader + j * kEntry,
                    repeated.data() + kHeader + i * kEntry, sizeof(uint64_t));
        EXPECT_FALSE(DecodeExactly<SpaceSaving>(repeated).has_value());
        EXPECT_FALSE(
            SpaceSaving::ValidateEncoded(repeated.data(), repeated.size()));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(PayloadMergeTest, SpaceSavingOfAnotherCapacityTakesTheResizePath) {
  SpaceSaving narrow(8);
  SpaceSaving wide(32);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    narrow.Update(rng.UniformInt(60));
    wide.Update(rng.UniformInt(90));
  }
  const std::vector<uint8_t> narrow_bytes = EncodeSummary(narrow);
  const std::vector<uint8_t> wide_bytes = EncodeSummary(wide);
  // Wide into narrow folds the decoded payload down; narrow into wide
  // resizes the receiver.
  EXPECT_EQ(MergedFromBytes<SpaceSaving>(narrow_bytes, wide_bytes),
            MergedByDecoding<SpaceSaving>(narrow_bytes, wide_bytes));
  EXPECT_EQ(MergedFromBytes<SpaceSaving>(wide_bytes, narrow_bytes),
            MergedByDecoding<SpaceSaving>(wide_bytes, narrow_bytes));
  SpaceSaving into = DecodeSummaryOrDie<SpaceSaving>(wide_bytes);
  into.MergeEncoded(narrow_bytes.data(), narrow_bytes.size());
  EXPECT_EQ(into.capacity(), 8);
}

TEST(PayloadMergeTest, CountMinOfAnotherShapeOrSeedIsNotMergeable) {
  const CountMinSketch into(4, 2048, 7);
  const std::vector<uint8_t> narrower = EncodeSummary(CountMinSketch(4, 1024, 7));
  const std::vector<uint8_t> shallower = EncodeSummary(CountMinSketch(3, 2048, 7));
  const std::vector<uint8_t> reseeded = EncodeSummary(CountMinSketch(4, 2048, 8));
  const std::vector<uint8_t> same = EncodeSummary(CountMinSketch(4, 2048, 7));
  EXPECT_FALSE(PayloadMergeableInto(into, narrower.data(), narrower.size()));
  EXPECT_FALSE(
      PayloadMergeableInto(into, shallower.data(), shallower.size()));
  EXPECT_FALSE(PayloadMergeableInto(into, reseeded.data(), reseeded.size()));
  EXPECT_TRUE(PayloadMergeableInto(into, same.data(), same.size()));
  EXPECT_EQ(CountMinSketch::EncodedShape(narrower.data(), narrower.size()),
            CountMinSketch(4, 1024, 7).shape());
}

// A type without a byte path goes through the generic fallback.
TEST(PayloadMergeTest, FallbackDecodesThenMerges) {
  const SummaryCodecInfo* codec = FindSummaryCodec(SummaryTag::kMisraGries);
  ASSERT_NE(codec, nullptr);
  const std::vector<std::vector<uint8_t>> corpus = codec->corpus(3);
  for (const std::vector<uint8_t>& into : corpus) {
    for (const std::vector<uint8_t>& from : corpus) {
      ASSERT_TRUE(ValidPayload<MisraGries>(from.data(), from.size()));
      MisraGries summary = DecodeSummaryOrDie<MisraGries>(into);
      ASSERT_TRUE(PayloadMergeableInto(summary, from.data(), from.size()));
      MergePayloadInto(summary, from.data(), from.size());
      EXPECT_EQ(EncodeSummary(summary), MergedByDecoding<MisraGries>(into, from));
    }
  }
  std::vector<uint8_t> trailing = corpus.front();
  trailing.push_back(0);
  EXPECT_FALSE(ValidPayload<MisraGries>(trailing.data(), trailing.size()));
}

}  // namespace
}  // namespace mergeable
