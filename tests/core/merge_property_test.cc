// Algebraic merge laws, driven through the summary registry: which
// codecs' merges commute and associate at the byte level, and what the
// weaker error-level laws guarantee for the ones that do not.
//
// Byte-level laws run over the registry's own corpus payloads through
// merge_payloads — the exact type-erased path the store and the
// coordinator use — so a codec added to the registry is automatically
// screened. The classification (commutative / associative / identity)
// is part of each codec's contract: linear sketches (Count-Min, Count
// Sketch, AMS, Bloom, KMV, dyadic Count-Min, and the elastic variants,
// whose width folds are exact linear maps) are exact under any
// regrouping; counter summaries (Misra-Gries, SpaceSaving) commute
// byte-for-byte thanks to their canonical sorted encodings but
// associate only at the error level (each merge step prunes, so
// different groupings may keep different near-threshold counters while
// both staying inside epsilon * n); sampling and randomized-compaction
// types (reservoir, mergeable quantiles) promise only distributional
// laws and are exercised by their own suites.
//
// The elastic corpora deliberately mix widths (the empty entry is
// wider than the filled one), so every pairing below also exercises the
// fold-to-min mismatched merge at the byte level.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/summary_registry.h"
#include "mergeable/approx/eps_approximation.h"
#include "mergeable/approx/eps_kernel.h"
#include "mergeable/approx/point.h"
#include "mergeable/elastic/elastic_count_min.h"
#include "mergeable/elastic/elastic_count_sketch.h"
#include "mergeable/frequency/deamortized_space_saving.h"
#include "mergeable/frequency/exact_counter.h"
#include "mergeable/frequency/misra_gries.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/quantiles/gk.h"
#include "mergeable/quantiles/mergeable_quantiles.h"
#include "mergeable/quantiles/qdigest.h"
#include "mergeable/quantiles/reservoir.h"
#include "mergeable/sketch/ams.h"
#include "mergeable/sketch/bloom.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/sketch/count_sketch.h"
#include "mergeable/sketch/dyadic_count_min.h"
#include "mergeable/sketch/kmv.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

// Tags whose merge is byte-commutative: merge_payloads(a, b) ==
// merge_payloads(b, a) for any two compatible payloads.
bool IsByteCommutative(SummaryTag tag) {
  switch (tag) {
    // SpaceSaving qualifies because its merge rebuilds every survivor
    // from the symmetric MG-domain combine (over = 0, slack and n
    // symmetric) and its encoding is canonical — entries are written
    // sorted by (count desc, item asc), so equal states are equal
    // bytes. KMV likewise: set-union semantics plus a sorted canonical
    // encoding of the retained set.
    case SummaryTag::kMisraGries:
    case SummaryTag::kSpaceSaving:
    case SummaryTag::kCountMin:
    case SummaryTag::kCountSketch:
    case SummaryTag::kAms:
    case SummaryTag::kBloom:
    case SummaryTag::kKmv:
    case SummaryTag::kDyadicCountMin:
    case SummaryTag::kElasticCountMin:
    case SummaryTag::kElasticCountSketch:
      return true;
    default:
      return false;
  }
}

// Tags whose merge is byte-associative (linear / set-union semantics:
// the merged state is a pure function of the multiset of inputs).
bool IsByteAssociative(SummaryTag tag) {
  switch (tag) {
    case SummaryTag::kCountMin:
    case SummaryTag::kCountSketch:
    case SummaryTag::kAms:
    case SummaryTag::kBloom:
    case SummaryTag::kKmv:
    case SummaryTag::kDyadicCountMin:
    // The elastic sketches stay associative across mixed widths: a
    // level of width l always lands at min(l, final target) no matter
    // how the merges group, and folds compose exactly
    // (fold(fold(x, w), w') == fold(x, w') for w' | w).
    case SummaryTag::kElasticCountMin:
    case SummaryTag::kElasticCountSketch:
      return true;
    default:
      return false;
  }
}

// Tags for which the corpus's empty instance is a byte-level identity:
// merge_payloads(x, empty) == canonical(x).
bool HasByteIdentity(SummaryTag tag) {
  switch (tag) {
    case SummaryTag::kMisraGries:
    case SummaryTag::kCountMin:
    case SummaryTag::kCountSketch:
    case SummaryTag::kAms:
    case SummaryTag::kBloom:
    case SummaryTag::kKmv:
    case SummaryTag::kDyadicCountMin:
    // The elastic corpora put their empty instance at the WIDEST width
    // in the corpus, so merging it in folds only itself (exactly, to
    // zero counters) and never the other operand — the identity law
    // holds bytewise across the mixed-width entries. (SpaceSaving has
    // no byte identity: merging re-expresses a streamed summary in the
    // MG domain, changing bytes without changing estimates.)
    case SummaryTag::kElasticCountMin:
    case SummaryTag::kElasticCountSketch:
      return true;
    default:
      return false;
  }
}

// canonical(x): what merge-with-canonical-self-0 would produce — the
// encode(decode(x)) fixed point the store serves. For corpus entries
// (freshly encoded) this is x itself; asserted, not assumed.
template <typename T>
std::vector<uint8_t> Encode(const T& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

TEST(CoreMergePropertyTest, MergePayloadsDefinedExactlyForMergeableCodecs) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    const auto corpus = info.corpus(11);
    ASSERT_GE(corpus.size(), 2u) << info.name;
    const auto merged = info.merge_payloads(corpus[1], corpus[1]);
    EXPECT_EQ(merged.has_value(), info.mergeable) << info.name;
  }
}

TEST(CoreMergePropertyTest, CommutativityHoldsWhereCodecsAreCanonical) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    if (!info.mergeable || !IsByteCommutative(info.tag)) continue;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const auto corpus = info.corpus(seed);
      for (size_t i = 0; i < corpus.size(); ++i) {
        for (size_t j = i; j < corpus.size(); ++j) {
          const auto ab = info.merge_payloads(corpus[i], corpus[j]);
          const auto ba = info.merge_payloads(corpus[j], corpus[i]);
          ASSERT_TRUE(ab.has_value()) << info.name << " seed " << seed;
          ASSERT_TRUE(ba.has_value()) << info.name << " seed " << seed;
          EXPECT_EQ(*ab, *ba)
              << info.name << " seed " << seed << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(CoreMergePropertyTest, AssociativityIsByteExactForLinearSketches) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    if (!info.mergeable || !IsByteAssociative(info.tag)) continue;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      // Three distinct contents of the same shape. Entries across
      // different corpus seeds are NOT compatible (hash seeds differ),
      // so the third operand is derived from the same corpus.
      const auto corpus = info.corpus(seed);
      const std::vector<uint8_t>& a = corpus[1];
      const std::vector<uint8_t>& b = corpus.back();
      const auto c_opt = info.merge_payloads(corpus[1], corpus.back());
      ASSERT_TRUE(c_opt.has_value()) << info.name;
      const std::vector<uint8_t>& c = *c_opt;
      const auto ab = info.merge_payloads(a, b);
      ASSERT_TRUE(ab.has_value()) << info.name;
      const auto ab_c = info.merge_payloads(*ab, c);
      const auto bc = info.merge_payloads(b, c);
      ASSERT_TRUE(bc.has_value()) << info.name;
      const auto a_bc = info.merge_payloads(a, *bc);
      ASSERT_TRUE(ab_c.has_value()) << info.name;
      ASSERT_TRUE(a_bc.has_value()) << info.name;
      EXPECT_EQ(*ab_c, *a_bc) << info.name << " seed " << seed;
    }
  }
}

TEST(CoreMergePropertyTest, EmptyInstanceIsTheMergeIdentityWhereClaimed) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    if (!info.mergeable || !HasByteIdentity(info.tag)) continue;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const auto corpus = info.corpus(seed);
      const std::vector<uint8_t>& empty = corpus[0];
      for (size_t i = 0; i < corpus.size(); ++i) {
        // canonical(x) spelled through the registry itself: merging the
        // empty on the left canonicalizes without adding content, so
        // left- and right-identity must agree with each other and with
        // the corpus payload (which is freshly encoded, i.e. canonical).
        const auto left = info.merge_payloads(empty, corpus[i]);
        const auto right = info.merge_payloads(corpus[i], empty);
        ASSERT_TRUE(left.has_value()) << info.name;
        ASSERT_TRUE(right.has_value()) << info.name;
        EXPECT_EQ(*right, corpus[i]) << info.name << " seed " << seed
                                     << " entry " << i;
        EXPECT_EQ(*left, corpus[i]) << info.name << " seed " << seed
                                    << " entry " << i;
      }
    }
  }
}

// ---- Error-level laws for the counter summaries ----
//
// Counter merges prune at each step, so regrouping can change which
// near-threshold counters survive — associativity holds at the level
// that matters for serving: every grouping obeys the epsilon * n
// bracket against the true stream, and the total mass n is grouping-
// independent.

template <typename S>
void CheckBracket(const S& summary, const ExactCounter& exact,
                  double epsilon) {
  const double budget = epsilon * static_cast<double>(exact.n());
  ASSERT_EQ(summary.n(), exact.n());
  for (const Counter& c : exact.Counters()) {
    const uint64_t lower = summary.LowerEstimate(c.item);
    const uint64_t upper = summary.UpperEstimate(c.item);
    ASSERT_LE(lower, c.count);
    ASSERT_GE(upper, c.count);
    ASSERT_LE(static_cast<double>(upper - lower), budget + 1e-9);
  }
}

template <typename S>
class CounterGroupingTest : public ::testing::Test {};

using CounterTypes =
    ::testing::Types<MisraGries, SpaceSaving, DeamortizedSpaceSaving>;
TYPED_TEST_SUITE(CounterGroupingTest, CounterTypes);

template <typename S>
S CounterForEpsilon(double epsilon) {
  return S::ForEpsilon(epsilon);
}

TYPED_TEST(CounterGroupingTest, EveryGroupingKeepsTheEpsilonBracket) {
  constexpr double kEpsilon = 0.05;
  for (uint64_t seed = 40; seed < 48; ++seed) {
    Rng rng(seed);
    std::vector<TypeParam> shards;
    std::vector<ExactCounter> exact_shards(3);
    for (int s = 0; s < 3; ++s) {
      shards.push_back(CounterForEpsilon<TypeParam>(kEpsilon));
    }
    for (int step = 0; step < 6000; ++step) {
      uint64_t item = rng.UniformInt(uint64_t{40});
      item = rng.UniformInt(item + 1);
      const int s = step % 3;
      shards[s].Update(item);
      exact_shards[s].Update(item);
    }
    ExactCounter exact;
    for (const ExactCounter& e : exact_shards) exact.Merge(e);

    // (a + b) + c.
    TypeParam left_assoc = shards[0];
    left_assoc.Merge(shards[1]);
    left_assoc.Merge(shards[2]);
    CheckBracket(left_assoc, exact, kEpsilon);

    // a + (b + c).
    TypeParam right_inner = shards[1];
    right_inner.Merge(shards[2]);
    TypeParam right_assoc = shards[0];
    right_assoc.Merge(right_inner);
    CheckBracket(right_assoc, exact, kEpsilon);

    // (b + a) + c: operand order within a merge is also free at the
    // error level, whatever the bytes do.
    TypeParam commuted = shards[1];
    commuted.Merge(shards[0]);
    commuted.Merge(shards[2]);
    CheckBracket(commuted, exact, kEpsilon);

    // Mass is grouping-independent even though pruning is not.
    EXPECT_EQ(left_assoc.n(), right_assoc.n());
    EXPECT_EQ(left_assoc.n(), commuted.n());
    EXPECT_EQ(left_assoc.n(), exact.n());
  }
}

// ---- Mismatched-size merge laws ----
//
// Elasticity makes operands of different sizes mergeable: sketches fold
// the wider operand to the narrower power-of-two lattice (an exact
// linear map), counters fold the larger capacity down via Resize. The
// laws here pin the contract: byte-commutativity and associativity
// across width pairs {2^a, 2^b}, and an analytic widened-epsilon budget
// for the counter folds.

template <typename E>
void CheckElasticMergeLaws(int depth, uint64_t seed) {
  const uint32_t widths[] = {32, 64, 256, 1024};
  for (uint32_t wa : widths) {
    for (uint32_t wb : widths) {
      E a(depth, wa, seed);
      E b(depth, wb, seed);
      Rng rng(seed ^ (wa * 131) ^ wb);
      for (int i = 0; i < 3000; ++i) a.Update(rng.UniformInt(uint64_t{400}));
      for (int i = 0; i < 2000; ++i) b.Update(rng.UniformInt(uint64_t{300}));

      E ab = a;
      ab.Merge(b);
      E ba = b;
      ba.Merge(a);
      EXPECT_EQ(ab.width(), std::min(wa, wb));
      EXPECT_EQ(Encode(ab), Encode(ba)) << wa << "x" << wb;

      // Associativity with a third width: ((a+b)+c) == (a+(b+c)).
      E c(depth, 128, seed);
      for (int i = 0; i < 1000; ++i) c.Update(rng.UniformInt(uint64_t{200}));
      E abc = ab;
      abc.Merge(c);
      E bc = b;
      bc.Merge(c);
      E a_bc = a;
      a_bc.Merge(bc);
      EXPECT_EQ(Encode(abc), Encode(a_bc)) << wa << "x" << wb << "x128";

      // The merged bound must equal the bound of the pre-folded
      // equivalent: folding is exact, so merging into the narrower
      // width costs exactly the narrow width's epsilon on the combined
      // mass — the "widened epsilon" is a statement about masses and
      // widths, not about which operand folded.
      E narrow(depth, std::min(wa, wb), seed);
      Rng replay(seed ^ (wa * 131) ^ wb);
      for (int i = 0; i < 3000; ++i) {
        narrow.Update(replay.UniformInt(uint64_t{400}));
      }
      for (int i = 0; i < 2000; ++i) {
        narrow.Update(replay.UniformInt(uint64_t{300}));
      }
      EXPECT_EQ(Encode(ab), Encode(narrow)) << wa << "x" << wb;
      EXPECT_DOUBLE_EQ(ab.ErrorBound(), narrow.ErrorBound());
    }
  }
}

TEST(CoreMergePropertyTest, ElasticCountMinMismatchedWidthLaws) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CheckElasticMergeLaws<ElasticCountMin>(4, seed);
  }
}

TEST(CoreMergePropertyTest, ElasticCountSketchMismatchedWidthLaws) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CheckElasticMergeLaws<ElasticCountSketch>(5, seed);
  }
}

// Mismatched-capacity counter merges: fold-to-min with an analytically
// widened budget. Folding a capacity-k1 summary to k2 < k1 adds at most
// n1/k1 (the subtracted minimum) + n1/k2 (the pruning order statistic)
// of slack; the equal-capacity merge then adds its own minima and
// order statistic. Summed, the result's two-sided uncertainty stays
// under eps1 * n1 + eps2 * (3 n1 + 2 n2) — loose, but analytic, and
// far below the naive "all mass is slack" fallback.
template <typename S>
void CheckMismatchedCounterMerge(int k_small, int k_large, uint64_t seed) {
  Rng rng(seed);
  S small(k_small);
  S large(k_large);
  std::map<uint64_t, uint64_t> exact;
  for (int i = 0; i < 4000; ++i) {
    uint64_t item = rng.UniformInt(uint64_t{50});
    item = rng.UniformInt(item + 1);
    small.Update(item);
    ++exact[item];
  }
  for (int i = 0; i < 6000; ++i) {
    uint64_t item = rng.UniformInt(uint64_t{50});
    item = rng.UniformInt(item + 1);
    large.Update(item);
    ++exact[item];
  }
  const double n_small = 4000.0;
  const double n_large = 6000.0;
  // Effective epsilon per type: SpaceSaving guarantees n/capacity,
  // DeamortizedSpaceSaving n/guarantee (guarantee = capacity/2).
  const auto effective_epsilon = [](const S& s) {
    if constexpr (requires { s.guarantee(); }) {
      return 1.0 / s.guarantee();
    } else {
      return 1.0 / s.capacity();
    }
  };
  const double eps_small = effective_epsilon(small);  // The NARROW budget.
  const double eps_large = effective_epsilon(large);

  // Both orders: fold-to-min must make them byte-identical.
  S merged = small;
  merged.Merge(large);
  S reversed = large;
  reversed.Merge(small);
  EXPECT_EQ(merged.capacity(), k_small);
  EXPECT_EQ(reversed.capacity(), k_small);
  EXPECT_EQ(Encode(merged), Encode(reversed))
      << "k " << k_small << "x" << k_large << " seed " << seed;

  EXPECT_EQ(merged.n(), 10000u);
  const double budget =
      eps_large * n_large + eps_small * (3 * n_large + 2 * n_small);
  EXPECT_LE(static_cast<double>(merged.UnderSlack()), budget + 1e-9);
  for (const auto& [item, f] : exact) {
    EXPECT_LE(merged.LowerEstimate(item), f) << "item " << item;
    EXPECT_GE(merged.UpperEstimate(item), f) << "item " << item;
  }
}

TEST(CoreMergePropertyTest, SpaceSavingMismatchedCapacityMergeLaws) {
  for (uint64_t seed = 60; seed < 66; ++seed) {
    CheckMismatchedCounterMerge<SpaceSaving>(16, 64, seed);
    CheckMismatchedCounterMerge<SpaceSaving>(20, 33, seed);
  }
}

TEST(CoreMergePropertyTest, DeamortizedMismatchedCapacityMergeLaws) {
  for (uint64_t seed = 60; seed < 66; ++seed) {
    CheckMismatchedCounterMerge<DeamortizedSpaceSaving>(16, 64, seed);
    CheckMismatchedCounterMerge<DeamortizedSpaceSaving>(20, 33, seed);
  }
}

TYPED_TEST(CounterGroupingTest, MergingAnEmptySummaryPreservesTheBracket) {
  constexpr double kEpsilon = 0.05;
  Rng rng(77);
  TypeParam summary = CounterForEpsilon<TypeParam>(kEpsilon);
  ExactCounter exact;
  for (int step = 0; step < 5000; ++step) {
    uint64_t item = rng.UniformInt(uint64_t{30});
    item = rng.UniformInt(item + 1);
    summary.Update(item);
    exact.Update(item);
  }
  const uint64_t n_before = summary.n();
  summary.Merge(CounterForEpsilon<TypeParam>(kEpsilon));
  EXPECT_EQ(summary.n(), n_before);
  CheckBracket(summary, exact, kEpsilon);
}

// ---- Canonicalize() against the encode-then-decode oracle ----
//
// Every production path canonicalizes in place (S::Canonicalize); the
// round trip survives only here, as the definition it must match. After
// seeded random sequences of updates and plain merges — which leave
// slot layout, RNG positions and pending maintenance in whatever state
// they happen to be — Canonicalize() must encode to the same bytes as
// decode(encode(x)), and one further Merge or one further run of
// updates, applied to both, must still agree byte for byte: that is
// what catches state the codec does not write but the decoder
// re-derives.

template <typename T>
T DecodeOrDie(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  std::optional<T> decoded = T::DecodeFrom(reader);
  MERGEABLE_CHECK_MSG(decoded.has_value() && reader.Exhausted(),
                      "corpus and self-encoded payloads must decode");
  return std::move(*decoded);
}

// `count` updates drawn from `rng`, in whatever form T ingests.
template <typename T>
void FeedUpdates(T& summary, Rng& rng, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    // Items stay inside the smallest corpus universe (2^10).
    const uint64_t item = rng.UniformInt(uint64_t{1} << 10);
    if constexpr (requires { summary.Update(Point2{}); }) {
      summary.Update(Point2{rng.UniformDouble(), rng.UniformDouble()});
    } else if constexpr (requires { summary.Update(item); }) {
      summary.Update(item);
    } else {
      summary.Add(item);
    }
  }
}

template <typename T>
void CheckCanonicalizeMatchesRoundTrip(uint64_t seed,
                                       std::set<SummaryTag>* covered) {
  const SummaryTag tag = SummaryTraits<T>::kTag;
  covered->insert(tag);
  const SummaryCodecInfo* codec = FindSummaryCodec(tag);
  ASSERT_NE(codec, nullptr);
  // Entries of one corpus are pairwise merge-compatible.
  const std::vector<std::vector<uint8_t>> corpus = codec->corpus(seed);
  Rng rng(seed * 1000 + static_cast<uint64_t>(tag));
  const auto pick = [&] {
    return DecodeOrDie<T>(corpus[rng.UniformInt(corpus.size())]);
  };
  for (int trial = 0; trial < 12; ++trial) {
    T summary = pick();
    const uint64_t steps = 1 + rng.UniformInt(uint64_t{5});
    for (uint64_t step = 0; step < steps; ++step) {
      if (rng.Bernoulli(0.7)) {
        FeedUpdates(summary, rng, 1 + rng.UniformInt(uint64_t{400}));
      }
      if constexpr (Mergeable<T>) {
        if (rng.Bernoulli(0.7)) summary.Merge(pick());
      }
    }
    T canonical = summary;
    canonical.Canonicalize();
    T oracle = DecodeOrDie<T>(Encode(summary));
    ASSERT_EQ(Encode(canonical), Encode(oracle))
        << codec->name << " trial " << trial;

    if constexpr (Mergeable<T>) {
      T merged_canonical = canonical;
      T merged_oracle = oracle;
      const T other = pick();
      merged_canonical.Merge(other);
      merged_oracle.Merge(other);
      ASSERT_EQ(Encode(merged_canonical), Encode(merged_oracle))
          << codec->name << " trial " << trial << " after one more merge";
    }
    const uint64_t more = 1 + rng.UniformInt(uint64_t{400});
    const uint64_t stream_seed = rng();
    Rng canonical_stream(stream_seed);
    Rng oracle_stream(stream_seed);
    FeedUpdates(canonical, canonical_stream, more);
    FeedUpdates(oracle, oracle_stream, more);
    ASSERT_EQ(Encode(canonical), Encode(oracle))
        << codec->name << " trial " << trial << " after more updates";
  }
}

TEST(CoreMergePropertyTest, CanonicalizeMatchesTheRoundTripForEveryCodec) {
  for (uint64_t seed : {3u, 17u, 40u}) {
    std::set<SummaryTag> covered;
    CheckCanonicalizeMatchesRoundTrip<MisraGries>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<SpaceSaving>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<DeamortizedSpaceSaving>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<GkSummary>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<MergeableQuantiles>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<QDigest>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<ReservoirSample>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<CountMinSketch>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<CountSketch>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<AmsSketch>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<BloomFilter>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<KmvSketch>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<DyadicCountMin>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<EpsApproximation>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<EpsKernel>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<ElasticCountMin>(seed, &covered);
    CheckCanonicalizeMatchesRoundTrip<ElasticCountSketch>(seed, &covered);
    // A codec added to the registry must be added above.
    for (const SummaryCodecInfo& info : SummaryRegistry()) {
      EXPECT_EQ(covered.count(info.tag), 1u) << info.name;
    }
  }
}

}  // namespace
}  // namespace mergeable
