// Structure-aware decode fuzzing over every summary wire format.
//
// The registry (aggregate/summary_registry.h) supplies, per codec, a
// deterministic corpus of real encodings (empty, lightly filled,
// heavily filled and merged instances, so every structural variant is
// represented) and a type-erased fuzz entry point wrapping
// FuzzDecode<T>. Each codec gets >= 10k mutated inputs; the harness
// asserts each decode either rejects cleanly or yields a
// self-consistent summary whose re-encoding is a byte-for-byte
// round-trip fixed point. Labeled `fuzz`: run via `ctest -L fuzz`,
// ideally configured with -DMERGEABLE_SANITIZE=ON.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/fuzz.h"
#include "mergeable/aggregate/summary_registry.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/deamortized_space_saving.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/summary_store.h"

namespace mergeable {
namespace {

constexpr uint64_t kIterations = 10000;

// Runs the harness for every registered codec and asserts the contract:
// no crash (implicit), no accepted-but-inconsistent decode, and every
// iteration accounted for (the mutator occasionally produces valid
// bytes, so accepted > 0 is not guaranteed per type — rejected +
// accepted must cover everything).
TEST(DecodeFuzzTest, EveryRegisteredCodecSurvivesMutatedInputs) {
  uint64_t seed = 101;
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    SCOPED_TRACE(info.name);
    const FuzzStats stats = info.fuzz(info.corpus(seed), kIterations, seed);
    EXPECT_EQ(stats.iterations, kIterations);
    EXPECT_EQ(stats.rejected + stats.accepted, kIterations);
    EXPECT_EQ(stats.reencode_failures, 0u);
    EXPECT_EQ(stats.index_rebuild_violations, 0u);
    ++seed;
  }
}

// SS01 has a second decoder outside the registry: DeamortizedSpaceSaving
// reads it through SpaceSaving's codec. Its decodes of the mutated
// kSpaceSaving corpus must re-encode as fixed points, and on every one
// of those mutants the service's admission check (ValidPayload), its
// DecodeFrom and SpaceSaving::ValidateEncoded must agree.
TEST(DecodeFuzzTest, DeamortizedSpaceSavingAcceptsExactlyTheSpaceSavingCodec) {
  const SummaryCodecInfo* info = FindSummaryCodec(SummaryTag::kSpaceSaving);
  ASSERT_NE(info, nullptr);
  constexpr uint64_t kSeed = 301;
  const std::vector<std::vector<uint8_t>> corpus = info->corpus(kSeed);
  const FuzzStats stats =
      FuzzDecode<DeamortizedSpaceSaving>(corpus, kIterations, kSeed);
  EXPECT_EQ(stats.iterations, kIterations);
  EXPECT_EQ(stats.reencode_failures, 0u);

  FuzzInputs inputs(corpus, kSeed);
  uint64_t accepted = 0;
  uint64_t disagreements = 0;
  for (uint64_t i = 0; i < kIterations; ++i) {
    const std::vector<uint8_t> mutant = inputs.Next();
    ByteReader reader(mutant);
    const bool decodes =
        DeamortizedSpaceSaving::DecodeFrom(reader).has_value() &&
        reader.Exhausted();
    const bool admitted =
        ValidPayload<DeamortizedSpaceSaving>(mutant.data(), mutant.size());
    const bool valid =
        SpaceSaving::ValidateEncoded(mutant.data(), mutant.size());
    if (decodes != admitted || decodes != valid) ++disagreements;
    if (decodes) ++accepted;
  }
  EXPECT_EQ(disagreements, 0u);
  // The same mutants the fuzz run decoded.
  EXPECT_EQ(accepted, stats.accepted);
}

// The aggregate entry point used by CI smoke runs: same harness, one
// call, stats reported per codec name.
TEST(DecodeFuzzTest, FuzzAllRegisteredCodecsCoversTheRegistry) {
  const std::vector<NamedFuzzStats> results =
      FuzzAllRegisteredCodecs(/*iterations_per_codec=*/500, /*seed=*/77);
  ASSERT_EQ(results.size(), SummaryRegistry().size());
  for (const NamedFuzzStats& result : results) {
    EXPECT_EQ(result.stats.iterations, 500u) << result.name;
    EXPECT_EQ(result.stats.reencode_failures, 0u) << result.name;
    EXPECT_EQ(result.stats.index_rebuild_violations, 0u) << result.name;
  }
}

// Frame codecs (wire.h FrameRegistry) get the same treatment: every
// frame type's corpus is mutated >= 10k times; the probe must never
// crash, and whenever a mutant decodes the probe internally asserts the
// re-encode fixed point (an abort here is a codec bug). Corpus entries
// themselves must always probe true.
TEST(DecodeFuzzTest, EveryFrameCodecSurvivesMutatedInputs) {
  uint64_t seed = 211;
  for (const FrameCodecInfo& info : FrameRegistry()) {
    SCOPED_TRACE(info.name);
    const std::vector<std::vector<uint8_t>> corpus = info.corpus(seed);
    ASSERT_FALSE(corpus.empty());
    for (const auto& frame : corpus) {
      EXPECT_TRUE(info.probe(frame)) << "pristine corpus entry rejected";
    }
    ByteMutator mutator(seed);
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    for (uint64_t i = 0; i < kIterations; ++i) {
      const std::vector<uint8_t>& base = corpus[i % corpus.size()];
      const std::vector<uint8_t>& donor =
          corpus[(i / corpus.size() + 1) % corpus.size()];
      const std::vector<uint8_t> mutant = mutator.Mutate(base, &donor);
      if (info.probe(mutant)) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
    EXPECT_EQ(accepted + rejected, kIterations);
    ++seed;
  }
}

// The mutation engine itself: deterministic for a fixed seed, and the
// donor-splice path actually mixes corpus material.
TEST(DecodeFuzzTest, MutatorIsDeterministic) {
  const std::vector<uint8_t> base(64, 0xaa);
  const std::vector<uint8_t> donor(32, 0x55);
  ByteMutator a(7);
  ByteMutator b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Mutate(base, &donor), b.Mutate(base, &donor));
  }
}

TEST(DecodeFuzzTest, MutatorChangesInput) {
  const std::vector<uint8_t> base(64, 0xaa);
  ByteMutator mutator(8);
  int changed = 0;
  for (int i = 0; i < 50; ++i) {
    if (mutator.Mutate(base, nullptr) != base) ++changed;
  }
  EXPECT_GT(changed, 45);  // Identity mutations are possible but rare.
}

}  // namespace
}  // namespace mergeable
