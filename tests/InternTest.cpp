//===- tests/InternTest.cpp - support/Intern.h against its oracles --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
//
// Interner replaced three hash -> index interners built on
// std::unordered_multimap and the std::unordered_map dictionary of the LZW
// encoder. Those stay here as oracles: the indices they assign are part of
// the archive bytes, so the flat table must reproduce them exactly,
// including under hash collisions and after the LZW dictionary freezes.
//
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"
#include "support/Intern.h"
#include "support/LZW.h"
#include "support/Random.h"
#include "wpp/DynamicCallGraph.h"
#include "wpp/PathTrace.h"
#include "wpp/Twpp.h"
#include "workloads/Workload.h"

#include "TestTraces.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

using namespace twpp;

namespace {

/// The multimap interner the trace, trace-string and dictionary pools used
/// before support/Intern.h: hash buckets verified by comparison.
class OracleInterner {
public:
  uint32_t intern(std::vector<PathTrace> &Pool, const PathTrace &Value,
                  uint64_t Hash) {
    auto Range = Buckets.equal_range(Hash);
    for (auto It = Range.first; It != Range.second; ++It)
      if (Pool[It->second] == Value)
        return It->second;
    uint32_t Index = static_cast<uint32_t>(Pool.size());
    Pool.push_back(Value);
    Buckets.emplace(Hash, Index);
    return Index;
  }

private:
  std::unordered_multimap<uint64_t, uint32_t> Buckets;
};

uint32_t internFlat(Interner &Table, std::vector<PathTrace> &Pool,
                    const PathTrace &Value, uint64_t Hash) {
  return Table.intern(Pool, Value, [Hash](const PathTrace &) { return Hash; });
}

/// The std::unordered_map LZW encoder lzwCompress had before
/// support/Intern.h. \p FullAt, when given, receives the input offset
/// whose string took the last dictionary code, or SIZE_MAX if none did.
std::vector<uint8_t> oracleLzwCompress(const std::vector<uint8_t> &Input,
                                       size_t *FullAt = nullptr) {
  ByteWriter Writer;
  uint32_t NextCode = 256;
  if (FullAt)
    *FullAt = SIZE_MAX;
  if (!Input.empty()) {
    auto PackKey = [](uint32_t PrefixCode, uint8_t Byte) {
      return (static_cast<uint64_t>(PrefixCode) << 8) | Byte;
    };
    std::unordered_map<uint64_t, uint32_t> Dict;
    Dict.reserve(1u << 16);
    uint32_t Current = Input[0];
    for (size_t I = 1, E = Input.size(); I != E; ++I) {
      uint8_t Byte = Input[I];
      auto It = Dict.find(PackKey(Current, Byte));
      if (It != Dict.end()) {
        Current = It->second;
        continue;
      }
      Writer.writeVarUint(Current);
      if (NextCode < LZWMaxDictSize)
        Dict.emplace(PackKey(Current, Byte), NextCode++);
      if (FullAt && NextCode == LZWMaxDictSize && *FullAt == SIZE_MAX)
        *FullAt = I;
      Current = Byte;
    }
    Writer.writeVarUint(Current);
  }
  return Writer.take();
}

/// \p Count traces drawn from \p Distinct random ones, so most are
/// repeats; lengths 0-11 over a small block alphabet.
std::vector<PathTrace> tracesWithRepeats(uint64_t Seed, size_t Count,
                                         size_t Distinct) {
  Rng R(Seed);
  std::vector<PathTrace> Unique(Distinct);
  for (PathTrace &Trace : Unique)
    for (uint64_t B = 0, E = R.nextBelow(12); B < E; ++B)
      Trace.push_back(static_cast<BlockId>(1 + R.nextBelow(6)));
  std::vector<PathTrace> Out;
  for (size_t I = 0; I < Count; ++I)
    Out.push_back(Unique[R.nextBelow(Distinct)]);
  return Out;
}

std::vector<uint8_t> randomBytes(uint64_t Seed, size_t Length,
                                 uint64_t Alphabet) {
  Rng R(Seed);
  std::vector<uint8_t> Bytes(Length);
  for (uint8_t &B : Bytes)
    B = static_cast<uint8_t>(R.nextBelow(Alphabet));
  return Bytes;
}

using HashFn = std::function<uint64_t(const PathTrace &)>;

struct NamedHash {
  std::string Name;
  HashFn Hash;
};

std::vector<NamedHash> hashes() {
  return {
      {"fnv", [](const PathTrace &T) { return hashBlockSequence(T); }},
      // Every value collides: one probe chain, all through Equal.
      {"constant", [](const PathTrace &) { return uint64_t{42}; }},
      // Four hash values: long chains that mix equal and unequal hashes.
      {"four-values",
       [](const PathTrace &T) { return hashBlockSequence(T) % 4; }},
      // Distinct hashes that agree in every low bit.
      {"high-bits-only",
       [](const PathTrace &T) { return hashBlockSequence(T) << 40; }},
  };
}

} // namespace

TEST(Interner, FindDoesNotInsert) {
  Interner Table;
  std::vector<PathTrace> Pool;
  auto Is = [&Pool](const PathTrace &V) {
    return [&Pool, V](uint32_t I) { return Pool[I] == V; };
  };
  EXPECT_EQ(Table.find(1, Is({4, 4})), Interner::npos); // empty table
  internFlat(Table, Pool, {4, 4}, 1);
  EXPECT_EQ(Table.find(1, Is({4, 4})), 0u);
  EXPECT_EQ(Table.find(1, Is({4})), Interner::npos);
  EXPECT_EQ(Table.find(2, Is({4, 4})), Interner::npos);
  EXPECT_EQ(Table.size(), 1u);
}

TEST(InternerDifferential, IndexSequencesMatchMultimapOracle) {
  for (const NamedHash &H : hashes()) {
    for (uint64_t Seed : {1, 2, 3}) {
      // 600 distinct values force several doublings from the first table.
      std::vector<PathTrace> Input = tracesWithRepeats(Seed, 6000, 600);
      OracleInterner Oracle;
      Interner Flat;
      std::vector<PathTrace> OraclePool, FlatPool;
      for (size_t I = 0; I < Input.size(); ++I) {
        uint64_t Hash = H.Hash(Input[I]);
        uint32_t Want = Oracle.intern(OraclePool, Input[I], Hash);
        uint32_t Got = internFlat(Flat, FlatPool, Input[I], Hash);
        ASSERT_EQ(Got, Want) << H.Name << " seed " << Seed << " value " << I;
      }
      EXPECT_EQ(FlatPool, OraclePool) << H.Name;
      EXPECT_EQ(Flat.size(), FlatPool.size()) << H.Name;
    }
  }
}

TEST(InternerDifferential, ReseededTableContinuesLikeTheOriginal) {
  // The streaming compactor's resume path: reseed from a restored pool in
  // index order, then keep interning.
  std::vector<PathTrace> Input = tracesWithRepeats(9, 4000, 300);
  size_t Cut = Input.size() / 2;
  Interner Original;
  std::vector<PathTrace> Pool;
  for (size_t I = 0; I < Cut; ++I)
    internFlat(Original, Pool, Input[I], hashBlockSequence(Input[I]));
  std::vector<PathTrace> Restored = Pool;
  Interner Reseeded;
  for (const PathTrace &Trace : Restored)
    Reseeded.intern(hashBlockSequence(Trace), [](uint32_t) { return false; });
  ASSERT_EQ(Reseeded.size(), Restored.size());
  for (size_t I = Cut; I < Input.size(); ++I) {
    uint64_t Hash = hashBlockSequence(Input[I]);
    ASSERT_EQ(internFlat(Reseeded, Restored, Input[I], Hash),
              internFlat(Original, Pool, Input[I], Hash))
        << "value " << I;
  }
}

TEST(LzwDifferential, RandomInputsMatchOracleBytes) {
  Rng R(2024);
  for (int Case = 0; Case < 40; ++Case) {
    size_t Length = R.nextBelow(20000);
    uint64_t Alphabet = 1 + R.nextBelow(256);
    std::vector<uint8_t> Input = randomBytes(R.next(), Length, Alphabet);
    ASSERT_EQ(lzwCompress(Input), oracleLzwCompress(Input))
        << "case " << Case << " length " << Length << " alphabet "
        << Alphabet;
  }
}

TEST(LzwDifferential, DcgInputsMatchOracleBytes) {
  std::vector<RawTrace> Traces = {fixtures::figure1Trace(),
                                  fixtures::randomTrace(5),
                                  fixtures::nestedCallTrace(4000)};
  for (const WorkloadProfile &Profile : testProfiles())
    Traces.push_back(generateWorkloadTrace(Profile));
  for (size_t I = 0; I < Traces.size(); ++I) {
    std::vector<uint8_t> Dcg = encodeDcg(compactWpp(Traces[I]).Dcg);
    EXPECT_EQ(lzwCompress(Dcg), oracleLzwCompress(Dcg)) << "trace " << I;
  }
}

TEST(LzwDifferential, FrozenDictionaryMatchesOracleBytes) {
  // Random bytes bring the dictionary to a few hundred codes short of
  // full; a long run of one byte follows. The run adds a, aa, aaa, ...
  // until the dictionary freezes mid-run, and the rest of the run is coded
  // with the longest run entry, so one code too many or too few at the
  // freeze changes the bytes.
  std::vector<uint8_t> Random = randomBytes(17, 3u << 20, 256);
  size_t FullAt = 0;
  oracleLzwCompress(Random, &FullAt);
  ASSERT_NE(FullAt, SIZE_MAX) << "random part too short to fill";
  size_t RunStart = FullAt - 500;
  std::vector<uint8_t> Input(Random.begin(), Random.begin() + RunStart);
  Input.insert(Input.end(), 100000, 'a');
  size_t RunFullAt = 0;
  std::vector<uint8_t> Want = oracleLzwCompress(Input, &RunFullAt);
  ASSERT_NE(RunFullAt, SIZE_MAX);
  ASSERT_GT(RunFullAt, RunStart) << "dictionary froze before the run";
  EXPECT_EQ(lzwCompress(Input), Want);
  std::vector<uint8_t> Out;
  ASSERT_TRUE(lzwDecompress(Want, Out));
  EXPECT_EQ(Out, Input);
}
