//===- tests/RobustnessTest.cpp - malformed-input fuzzing ------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Decoder robustness: every on-disk format must reject corrupt, truncated
// or random bytes gracefully (return false), never crash or hang. These
// sweeps mutate valid encodings and feed pure noise to every decoder.
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"
#include "TestTraces.h"
#include "sequitur/FlatGrammar.h"
#include "sequitur/Sequitur.h"
#include "support/FileIO.h"
#include "support/LZW.h"
#include "support/Random.h"
#include "trace/UncompactedFile.h"
#include "wpp/Archive.h"
#include "wpp/DynamicCallGraph.h"

#include <gtest/gtest.h>

using namespace twpp;

namespace {

std::vector<uint8_t> corrupt(std::vector<uint8_t> Bytes, Rng &R) {
  if (Bytes.empty())
    return Bytes;
  switch (R.nextBelow(4)) {
  case 0: // flip random byte
    Bytes[R.nextBelow(Bytes.size())] ^=
        static_cast<uint8_t>(1 + R.nextBelow(255));
    break;
  case 1: // truncate
    Bytes.resize(R.nextBelow(Bytes.size()));
    break;
  case 2: // duplicate a tail
    Bytes.insert(Bytes.end(), Bytes.begin(),
                 Bytes.begin() + R.nextBelow(Bytes.size()));
    break;
  default: // splice random garbage
    for (int I = 0; I < 8; ++I)
      Bytes[R.nextBelow(Bytes.size())] = static_cast<uint8_t>(R.next());
    break;
  }
  return Bytes;
}

std::vector<uint8_t> randomBytes(Rng &R, size_t MaxLength) {
  std::vector<uint8_t> Bytes(R.nextBelow(MaxLength));
  for (uint8_t &B : Bytes)
    B = static_cast<uint8_t>(R.next());
  return Bytes;
}

class DecoderFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderFuzz, UncompactedTraceDecoder) {
  Rng R(GetParam());
  std::vector<uint8_t> Valid =
      encodeUncompactedTrace(fixtures::randomTrace(GetParam()));
  for (int I = 0; I < 60; ++I) {
    RawTrace Out;
    decodeUncompactedTrace(corrupt(Valid, R), Out); // must not crash
    decodeUncompactedTrace(randomBytes(R, 200), Out);
  }
}

TEST_P(DecoderFuzz, DcgDecoder) {
  Rng R(GetParam() ^ 0x1111);
  std::vector<uint8_t> Valid =
      encodeDcg(partitionWpp(fixtures::randomTrace(GetParam())).Dcg);
  for (int I = 0; I < 60; ++I) {
    DynamicCallGraph Out;
    decodeDcg(corrupt(Valid, R), Out);
    decodeDcg(randomBytes(R, 200), Out);
  }
}

TEST_P(DecoderFuzz, FunctionTableDecoder) {
  Rng R(GetParam() ^ 0x2222);
  TwppWpp Compacted = compactWpp(fixtures::randomTrace(GetParam()));
  std::vector<uint8_t> Valid =
      encodeTwppFunctionTable(Compacted.Functions[0]);
  for (int I = 0; I < 60; ++I) {
    TwppFunctionTable Out;
    decodeTwppFunctionTable(corrupt(Valid, R), Out);
    decodeTwppFunctionTable(randomBytes(R, 300), Out);
  }
}

TEST_P(DecoderFuzz, GrammarDecoder) {
  Rng R(GetParam() ^ 0x3333);
  std::vector<uint8_t> Valid =
      encodeGrammar(buildSequiturGrammar(fixtures::randomTrace(GetParam())));
  for (int I = 0; I < 60; ++I) {
    FlatGrammar Out;
    decodeGrammar(corrupt(Valid, R), Out);
    decodeGrammar(randomBytes(R, 200), Out);
  }
}

TEST_P(DecoderFuzz, LzwDecoder) {
  Rng R(GetParam() ^ 0x4444);
  std::vector<uint8_t> Payload = randomBytes(R, 500);
  std::vector<uint8_t> Valid = lzwCompress(Payload);
  for (int I = 0; I < 60; ++I) {
    std::vector<uint8_t> Out;
    lzwDecompress(corrupt(Valid, R), Out);
    lzwDecompress(randomBytes(R, 200), Out);
  }
}

TEST_P(DecoderFuzz, ArchiveReaderOnCorruptFiles) {
  Rng R(GetParam() ^ 0x5555);
  TwppWpp Compacted = compactWpp(fixtures::randomTrace(GetParam()));
  std::vector<uint8_t> Valid = encodeArchive(Compacted);
  std::string Path =
      uniqueTempPath("twpp_fuzz_" + std::to_string(GetParam()) + ".twpp");
  for (int I = 0; I < 25; ++I) {
    ASSERT_TRUE(writeFileBytes(Path, corrupt(Valid, R)));
    ArchiveReader Reader;
    if (Reader.open(Path)) {
      // A luckily-still-valid header: reads must still not crash.
      TwppWpp Out;
      Reader.readAll(Out);
      DynamicCallGraph Dcg;
      Reader.readDcg(Dcg);
      TwppFunctionTable Table;
      if (Reader.functionCount() > 0)
        Reader.extractFunction(0, Table);
    }
  }
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(61, 62, 63, 64, 65, 66));

TEST(SignedSeriesFuzz, RandomValueStreams) {
  Rng R(99);
  for (int I = 0; I < 300; ++I) {
    std::vector<int64_t> Values(R.nextBelow(12));
    for (int64_t &V : Values)
      V = static_cast<int64_t>(R.nextBelow(41)) - 20;
    TimestampSet Out;
    if (TimestampSet::decodeSigned(Values, Out)) {
      // Anything accepted must re-encode to an equivalent set.
      TimestampSet Back;
      ASSERT_TRUE(TimestampSet::decodeSigned(Out.encodeSigned(), Back));
      EXPECT_EQ(Back.toVector(), Out.toVector());
    }
  }
}

} // namespace
