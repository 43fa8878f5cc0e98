// Structure-aware decode fuzzing for summary wire formats.
//
// Every summary decoder is a parser of untrusted network bytes, so each
// one gets the same treatment: take real encodings as a corpus, apply
// stacked random mutations (bit flips, byte smashes, truncation,
// extension, chunk duplication/zeroing, interesting integer values,
// cross-corpus splices), and feed the result to DecodeFrom. The harness
// asserts the only two acceptable outcomes:
//
//   1. the decoder rejects cleanly (std::nullopt, no crash, no abort,
//      no sanitizer report, no unbounded allocation), or
//   2. the decoder accepts and the result is self-consistent: it
//      re-encodes, the re-encoding decodes, and a second round trip is a
//      byte-for-byte fixed point (encode(decode(encode(s))) == encode(s)).
//
// Run under MERGEABLE_SANITIZE (ASan+UBSan) via `ctest -L fuzz`.

#ifndef MERGEABLE_AGGREGATE_FUZZ_H_
#define MERGEABLE_AGGREGATE_FUZZ_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mergeable/core/concepts.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {

// Applies 1..4 stacked structure-unaware mutations per call. The
// mutation budget is deliberately larger than one bit flip: multi-field
// corruption reaches states a single flip cannot (e.g. a huge length
// field combined with a matching count).
class ByteMutator {
 public:
  explicit ByteMutator(uint64_t seed) : rng_(seed) {}

  // Returns a mutated copy of `bytes`; `splice_donor` (optional) provides
  // foreign material for splice mutations.
  std::vector<uint8_t> Mutate(const std::vector<uint8_t>& bytes,
                              const std::vector<uint8_t>* splice_donor);

 private:
  void MutateOnce(std::vector<uint8_t>& bytes,
                  const std::vector<uint8_t>* splice_donor);

  Rng rng_;
};

// The mutated inputs FuzzDecode decodes, in order: each is a mutation
// of a corpus entry picked at random, spliced with material from
// another. Built from the same corpus and seed, it yields the same
// sequence, so a test can check further entry points on exactly the
// inputs one fuzz run decoded. `corpus` must outlive it.
class FuzzInputs {
 public:
  FuzzInputs(const std::vector<std::vector<uint8_t>>& corpus, uint64_t seed)
      : corpus_(corpus), mutator_(seed), rng_(seed ^ 0xf022f0f5a5a5a5a5ULL) {}

  std::vector<uint8_t> Next() {
    const std::vector<uint8_t>& base =
        corpus_[rng_.UniformInt(corpus_.size())];
    const std::vector<uint8_t>& donor =
        corpus_[rng_.UniformInt(corpus_.size())];
    return mutator_.Mutate(base, &donor);
  }

 private:
  const std::vector<std::vector<uint8_t>>& corpus_;
  ByteMutator mutator_;
  Rng rng_;
};

// Aggregate outcome of one fuzz run; tests assert on these.
struct FuzzStats {
  uint64_t iterations = 0;
  uint64_t rejected = 0;           // DecodeFrom returned nullopt.
  uint64_t accepted = 0;           // Decoded a (mutated) summary.
  uint64_t reencode_failures = 0;  // Accepted but not self-consistent.
  // Accepted decodes whose hash index rebuilt more than once while
  // decoding (summaries exposing index_rebuilds() only). DecodeFrom
  // knows its entry count up front and must reserve for it; a second
  // bulk build means the reserve is missing or wrong.
  uint64_t index_rebuild_violations = 0;
};

// Fuzzes T::DecodeFrom with `iterations` mutated inputs drawn from
// `corpus` (real encodings of T). Self-consistency of every accepted
// decode is verified as described above; violations are counted in
// reencode_failures (the test asserts zero).
template <WireCodec T>
FuzzStats FuzzDecode(const std::vector<std::vector<uint8_t>>& corpus,
                     uint64_t iterations, uint64_t seed) {
  FuzzInputs inputs(corpus, seed);
  FuzzStats stats;
  for (uint64_t i = 0; i < iterations; ++i) {
    const std::vector<uint8_t> mutated = inputs.Next();
    ++stats.iterations;
    ByteReader reader(mutated);
    std::optional<T> decoded = T::DecodeFrom(reader);
    if (!decoded.has_value()) {
      ++stats.rejected;
      continue;
    }
    ++stats.accepted;
    if constexpr (requires { decoded->index_rebuilds(); }) {
      if (decoded->index_rebuilds() > 1) ++stats.index_rebuild_violations;
    }
    // Self-consistency: the accepted summary must re-encode to bytes
    // that decode, and the second round trip must be a fixed point.
    ByteWriter first;
    decoded->EncodeTo(first);
    ByteReader reread(first.bytes());
    std::optional<T> second = T::DecodeFrom(reread);
    if (!second.has_value() || !reread.Exhausted()) {
      ++stats.reencode_failures;
      continue;
    }
    ByteWriter again;
    second->EncodeTo(again);
    if (again.bytes() != first.bytes()) ++stats.reencode_failures;
  }
  return stats;
}

// One registered codec's fuzz outcome, named for reporting.
struct NamedFuzzStats {
  std::string name;
  FuzzStats stats;
};

// Fuzzes every codec in the summary registry (summary_registry.h) with
// `iterations_per_codec` mutated inputs drawn from the codec's own
// deterministic corpus. The registry is the single source of truth for
// "every summary type with a wire format": a type registered there is
// fuzzed here with no per-type code.
std::vector<NamedFuzzStats> FuzzAllRegisteredCodecs(
    uint64_t iterations_per_codec, uint64_t seed);

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_FUZZ_H_
