//===- tests/ArchiveDigestTest.cpp - Pinned archive and LZW digests -------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
//
// The byte-identity tests elsewhere (ingest vs batch, jobs 1 vs 8, resume
// vs uninterrupted) compare the pipeline with itself, so a change to how
// unique traces, trace strings, dictionaries or LZW codes are numbered
// would pass all of them. These tests pin the length and CRC-32 of the
// archive bytes and of LZW streams as constants: the numbering is part of
// the format, and any change to it must show up here.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"
#include "support/LZW.h"
#include "support/Random.h"
#include "wpp/Archive.h"
#include "wpp/DynamicCallGraph.h"
#include "wpp/Merge.h"
#include "wpp/Twpp.h"
#include "workloads/Workload.h"

#include "TestTraces.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace twpp;

namespace {

struct Digest {
  size_t Length;
  uint32_t Crc;
};

::testing::AssertionResult matchesDigest(const std::vector<uint8_t> &Bytes,
                                         Digest Expected) {
  Digest Got{Bytes.size(), crc32(Bytes.data(), Bytes.size())};
  if (Got.Length == Expected.Length && Got.Crc == Expected.Crc)
    return ::testing::AssertionSuccess();
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "got {%zu, 0x%08X}, pinned {%zu, 0x%08X}",
                Got.Length, Got.Crc, Expected.Length, Expected.Crc);
  return ::testing::AssertionFailure() << Buf;
}

std::vector<uint8_t> archiveOf(const RawTrace &Trace) {
  return encodeArchive(compactWpp(Trace));
}

std::vector<uint8_t> randomBytes(uint64_t Seed, size_t Length,
                                 uint64_t Alphabet) {
  Rng R(Seed);
  std::vector<uint8_t> Bytes(Length);
  for (uint8_t &B : Bytes)
    B = static_cast<uint8_t>(R.nextBelow(Alphabet));
  return Bytes;
}

} // namespace

TEST(ArchiveDigest, FixtureTraces) {
  EXPECT_TRUE(matchesDigest(archiveOf(fixtures::figure1Trace()),
                            {164, 0x96A3E80Du}))
      << "figure1";
  EXPECT_TRUE(matchesDigest(archiveOf(fixtures::randomTrace(7)),
                            {191, 0x75166F84u}))
      << "random 7";
  EXPECT_TRUE(matchesDigest(archiveOf(fixtures::randomTrace(99, 9, 20000)),
                            {622, 0x976323AAu}))
      << "random 99";
  EXPECT_TRUE(matchesDigest(archiveOf(fixtures::nestedCallTrace(5000)),
                            {38498, 0x5363D149u}))
      << "nested";
}

TEST(ArchiveDigest, MergedRuns) {
  // Cross-run merging renumbers every run's traces into shared pools.
  TwppWpp A = compactWpp(fixtures::randomTrace(3));
  TwppWpp B = compactWpp(fixtures::randomTrace(4));
  TwppWpp C = compactWpp(fixtures::randomTrace(3));
  EXPECT_TRUE(matchesDigest(encodeArchive(mergeCompactedWpps({&A, &B, &C})),
                            {537, 0x19B37253u}));
}

TEST(ArchiveDigest, TestProfileWorkloads) {
  // testProfiles() order: go, gcc, li, ijpeg, perl.
  const Digest Pinned[] = {
      {48019, 0x08045277u}, {116534, 0x4D360E48u}, {11935, 0xF572C037u},
      {10325, 0x6281C6BEu}, {3841, 0xC1D6A681u},
  };
  std::vector<WorkloadProfile> Profiles = testProfiles();
  ASSERT_EQ(Profiles.size(), std::size(Pinned));
  for (size_t I = 0; I < Profiles.size(); ++I)
    EXPECT_TRUE(matchesDigest(
        archiveOf(generateWorkloadTrace(Profiles[I])), Pinned[I]))
        << Profiles[I].Name;
}

TEST(LzwDigest, FixedInputs) {
  std::vector<uint8_t> Run(100, 'a');
  EXPECT_TRUE(matchesDigest(lzwCompress(Run), {27, 0x72B79595u})) << "run";

  std::vector<uint8_t> Periodic;
  for (int I = 0; I < 2000; ++I)
    Periodic.push_back(static_cast<uint8_t>("abcabcab"[I % 8]));
  EXPECT_TRUE(matchesDigest(lzwCompress(Periodic), {328, 0xC2FA9529u}))
      << "periodic";

  EXPECT_TRUE(matchesDigest(lzwCompress(randomBytes(5, 50000, 4)),
                            {18599, 0x91F630FBu}))
      << "alphabet 4";
  EXPECT_TRUE(matchesDigest(lzwCompress(randomBytes(6, 50000, 256)),
                            {68048, 0x3A98498Fu}))
      << "alphabet 256";
  EXPECT_TRUE(
      matchesDigest(lzwCompress(encodeDcg(compactWpp(
                        fixtures::nestedCallTrace(3000)).Dcg)),
                    {21845, 0x5B2EF18Eu}))
      << "dcg";
}

TEST(LzwDigest, FrozenDictionary) {
  // These random bytes leave the dictionary a few hundred codes short of
  // LZWMaxDictSize; the run of 'a' that follows fills it mid-run and is
  // then coded against the frozen dictionary, so the freeze point shows
  // in the bytes.
  std::vector<uint8_t> Input = randomBytes(11, 2059027, 256);
  Input.insert(Input.end(), 100000, 'a');
  EXPECT_TRUE(matchesDigest(lzwCompress(Input), {2828854, 0x0FCD50C5u}));
}
