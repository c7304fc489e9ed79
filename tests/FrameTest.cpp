//===- tests/FrameTest.cpp - the shared CRC-framed record codec ----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One suite over support/Frame, run against both of its bindings: the
/// `twpp-wire-v1` wire (ingest::FrameDecoder, 1 MiB cap) and the
/// checkpoint journal (scanJournal's uncapped decoder). Records
/// round-trip, the decoder survives arbitrary chunking, and every flavor
/// of damage — flipped bytes, truncation, garbage, oversized lengths,
/// magics aliased inside payloads — costs only the damaged records. Both
/// layouts are pinned byte for byte, and a seeded fuzz driver checks the
/// decoder's invariants under random damage and random chunkings.
///
//===----------------------------------------------------------------------===//

#include "ingest/Wire.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Frame.h"
#include "support/Random.h"
#include "wpp/Journal.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

using namespace twpp;

namespace {

/// One binding of the codec: the wire or the journal.
struct Binding {
  const char *Name;
  frame::Format Format;
  bool IsWire;
};

constexpr Binding Wire{"wire", ingest::WireFormat, true};
constexpr Binding Journal{"journal", JournalFormat, false};
constexpr Binding Bindings[] = {Wire, Journal};

struct Decoded {
  std::vector<frame::Frame> Frames;
  frame::Decoder::Stats Stats;
  size_t Pending = 0;
};

bool sameFrames(const std::vector<frame::Frame> &A,
                const std::vector<frame::Frame> &B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(),
                    [](const frame::Frame &X, const frame::Frame &Y) {
                      return X.Stream == Y.Stream &&
                             X.Sequence == Y.Sequence &&
                             X.Payload == Y.Payload;
                    });
}

bool sameStats(const frame::Decoder::Stats &A,
               const frame::Decoder::Stats &B) {
  return A.Frames == B.Frames && A.FrameBytes == B.FrameBytes &&
         A.CorruptFrames == B.CorruptFrames && A.ResyncBytes == B.ResyncBytes;
}

/// Feeds \p Bytes in chunks of \p Chunk bytes, draining after each, then
/// (with \p Finish) finishes and drains. Wire bytes go through
/// ingest::FrameDecoder, journal bytes through the uncapped decoder
/// scanJournal uses.
Decoded decode(const Binding &B, const std::vector<uint8_t> &Bytes,
               size_t Chunk = SIZE_MAX, bool Finish = true) {
  auto Run = [&](frame::Decoder &Decoder) {
    Decoded Out;
    frame::Frame Frame;
    for (size_t I = 0; I < Bytes.size(); I += Chunk) {
      Decoder.feed(Bytes.data() + I, std::min(Chunk, Bytes.size() - I));
      while (Decoder.next(Frame))
        Out.Frames.push_back(Frame);
    }
    if (Finish) {
      Decoder.finish();
      while (Decoder.next(Frame))
        Out.Frames.push_back(Frame);
    }
    Out.Stats = Decoder.stats();
    Out.Pending = Decoder.pendingBytes();
    return Out;
  };
  if (B.IsWire) {
    ingest::FrameDecoder Decoder;
    return Run(Decoder);
  }
  frame::Decoder Decoder(JournalFormat, frame::MaxLength);
  return Run(Decoder);
}

std::vector<uint8_t> record(const Binding &B, uint32_t Stream, uint64_t Seq,
                            const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Out;
  frame::append(Out, B.Format, Stream, Seq, ByteSpan(Payload));
  return Out;
}

void put32(std::vector<uint8_t> &Bytes, size_t At, uint32_t Value) {
  std::memcpy(Bytes.data() + At, &Value, 4); // tests run little-endian
}

TEST(FrameCodec, RoundTripKeepsHeaderFieldsAndPayload) {
  for (const Binding &B : Bindings) {
    SCOPED_TRACE(B.Name);
    std::vector<uint8_t> Bytes = record(B, 4, 17, {1, 2, 3});
    std::vector<uint8_t> Empty = record(B, 0, 0, {});
    std::vector<uint8_t> Far = record(B, UINT32_MAX, UINT64_MAX, {9});
    Bytes.insert(Bytes.end(), Empty.begin(), Empty.end());
    Bytes.insert(Bytes.end(), Far.begin(), Far.end());

    Decoded D = decode(B, Bytes);
    ASSERT_EQ(D.Frames.size(), 3u);
    EXPECT_EQ(D.Frames[0].Stream, 4u);
    EXPECT_EQ(D.Frames[0].Sequence, 17u);
    EXPECT_EQ(D.Frames[0].Payload, (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_TRUE(D.Frames[1].Payload.empty());
    EXPECT_EQ(D.Frames[2].Stream, UINT32_MAX);
    EXPECT_EQ(D.Frames[2].Sequence, UINT64_MAX);
    EXPECT_EQ(D.Stats.Frames, 3u);
    EXPECT_EQ(D.Stats.FrameBytes, Bytes.size());
    EXPECT_EQ(D.Stats.CorruptFrames, 0u);
    EXPECT_EQ(D.Stats.ResyncBytes, 0u);
  }
}

TEST(FrameCodec, DecodingIsChunkingInvariant) {
  // Frames straddle every possible buffer edge at chunk size 1.
  for (const Binding &B : Bindings) {
    SCOPED_TRACE(B.Name);
    std::vector<uint8_t> Bytes;
    for (uint64_t Seq = 0; Seq < 20; ++Seq) {
      std::vector<uint8_t> Payload(Seq * 7 % 23, static_cast<uint8_t>(Seq));
      frame::append(Bytes, B.Format, 2, Seq, ByteSpan(Payload));
    }
    Decoded Whole = decode(B, Bytes);
    ASSERT_EQ(Whole.Frames.size(), 20u);
    for (uint64_t Seq = 0; Seq < 20; ++Seq)
      EXPECT_EQ(Whole.Frames[Seq].Sequence, Seq);
    for (size_t Chunk : {1u, 2u, 3u, 7u, 13u, 64u, 4096u}) {
      Decoded D = decode(B, Bytes, Chunk, /*Finish=*/false);
      EXPECT_TRUE(sameFrames(D.Frames, Whole.Frames)) << "chunk=" << Chunk;
      EXPECT_TRUE(sameStats(D.Stats, Whole.Stats)) << "chunk=" << Chunk;
    }
  }
}

TEST(FrameCodec, CorruptCrcSkipsOnlyThatRecord) {
  for (const Binding &B : Bindings) {
    SCOPED_TRACE(B.Name);
    std::vector<uint8_t> Bytes = record(B, 1, 0, {10, 11, 12});
    size_t FirstEnd = Bytes.size();
    std::vector<uint8_t> Second = record(B, 1, 1, {20});
    Bytes.insert(Bytes.end(), Second.begin(), Second.end());
    Bytes[frame::HeaderSize + 1] ^= 0xFF; // a payload byte of record 0

    Decoded D = decode(B, Bytes);
    ASSERT_EQ(D.Frames.size(), 1u);
    EXPECT_EQ(D.Frames[0].Sequence, 1u); // record 0 lost, record 1 kept
    EXPECT_EQ(D.Stats.CorruptFrames, 1u);
    // Resync scanned from record 0's magic to record 1's, nothing more.
    EXPECT_EQ(D.Stats.ResyncBytes, FirstEnd);
  }
}

TEST(FrameCodec, CrcCoversHeaderPrefix) {
  // The stream and sequence fields feed sequencing and recovery: a flip
  // there must read as a corrupt record, not as a plausible record from
  // another stream or the far future.
  for (const Binding &B : Bindings) {
    SCOPED_TRACE(B.Name);
    for (size_t At : {8u, 12u, 19u}) {
      std::vector<uint8_t> Bytes = record(B, 1, 5, {7, 7});
      Bytes[At] ^= 0x01;
      Decoded D = decode(B, Bytes);
      EXPECT_TRUE(D.Frames.empty()) << "flip at " << At;
      EXPECT_EQ(D.Stats.CorruptFrames, 1u) << "flip at " << At;
    }
  }
}

TEST(FrameCodec, ResyncsPastLeadingGarbage) {
  for (const Binding &B : Bindings) {
    SCOPED_TRACE(B.Name);
    std::vector<uint8_t> Bytes(37, 0xAB);
    std::vector<uint8_t> Rec = record(B, 1, 0, {42, 43});
    Bytes.insert(Bytes.end(), Rec.begin(), Rec.end());
    Decoded D = decode(B, Bytes);
    ASSERT_EQ(D.Frames.size(), 1u);
    EXPECT_EQ(D.Frames[0].Payload, (std::vector<uint8_t>{42, 43}));
    EXPECT_EQ(D.Stats.ResyncBytes, 37u);
  }
}

TEST(FrameCodec, TornTailAtEveryCut) {
  // Sweep every cut of a three-record stream — every way a record can
  // straddle the end of what arrived — and require: whole records before
  // the cut decode, the straddling one waits until finish() and is then
  // written off as resync bytes, never mis-decoded.
  for (const Binding &B : Bindings) {
    SCOPED_TRACE(B.Name);
    std::vector<uint8_t> Bytes = record(B, 1, 0, {10, 11, 12, 13, 14});
    std::vector<size_t> Ends = {Bytes.size()};
    for (uint64_t Seq : {1u, 2u}) {
      std::vector<uint8_t> Payload(Seq == 1 ? 2 : 300, 0x5A);
      frame::append(Bytes, B.Format, 1, Seq, ByteSpan(Payload));
      Ends.push_back(Bytes.size());
    }
    for (size_t Cut = 0; Cut <= Bytes.size(); ++Cut) {
      std::vector<uint8_t> Prefix(Bytes.begin(),
                                  Bytes.begin() + static_cast<long>(Cut));
      size_t Whole = static_cast<size_t>(
          std::upper_bound(Ends.begin(), Ends.end(), Cut) - Ends.begin());
      size_t WholeEnd = Whole == 0 ? 0 : Ends[Whole - 1];
      Decoded Open = decode(B, Prefix, SIZE_MAX, /*Finish=*/false);
      ASSERT_EQ(Open.Frames.size(), Whole) << "cut at " << Cut;
      EXPECT_EQ(Open.Pending, Cut - WholeEnd) << "cut at " << Cut;
      Decoded Done = decode(B, Prefix);
      ASSERT_EQ(Done.Frames.size(), Whole) << "cut at " << Cut;
      EXPECT_EQ(Done.Stats.ResyncBytes, Cut - WholeEnd) << "cut at " << Cut;
      EXPECT_EQ(Done.Pending, 0u) << "cut at " << Cut;
    }
  }
}

TEST(FrameCodec, MagicAliasedInsidePayload) {
  // A payload holding a complete, CRC-valid record of the same format (a
  // checkpoint-of-a-checkpoint is exactly this shape). While the outer
  // record is intact the inner bytes are payload, full stop. When the
  // outer header is smashed, resync walks into the payload and the
  // aliased inner record *does* decode — but the real successor still
  // decodes after it, which is what "last valid record" recovery keys on.
  for (const Binding &B : Bindings) {
    SCOPED_TRACE(B.Name);
    std::vector<uint8_t> InnerPayload = {77, 78, 79};
    std::vector<uint8_t> Inner = record(B, 9, 9, InnerPayload);
    std::vector<uint8_t> Bytes = record(B, 1, 0, Inner);
    std::vector<uint8_t> Last = record(B, 1, 1, {1, 2, 3, 4});
    Bytes.insert(Bytes.end(), Last.begin(), Last.end());

    Decoded Clean = decode(B, Bytes);
    ASSERT_EQ(Clean.Frames.size(), 2u);
    EXPECT_EQ(Clean.Frames[0].Payload, Inner);

    std::vector<uint8_t> Damaged = Bytes;
    Damaged[4] ^= 0xFF; // the outer record's version
    Decoded D = decode(B, Damaged);
    ASSERT_EQ(D.Frames.size(), 2u);
    EXPECT_EQ(D.Frames[0].Payload, InnerPayload); // aliasing at its worst
    EXPECT_EQ(D.Frames[1].Sequence, 1u);           // the truth still lands
    EXPECT_EQ(D.Stats.ResyncBytes, frame::HeaderSize);

    // A bare aliased magic (no valid record behind it) costs nothing but
    // scanning: resync goes on to the next real record.
    std::vector<uint8_t> Bare = {5, 6};
    for (int I = 0; I < 4; ++I)
      Bare.push_back(static_cast<uint8_t>(B.Format.Magic >> (8 * I)));
    std::vector<uint8_t> Smashed = record(B, 1, 0, Bare);
    Smashed[0] ^= 0xFF;
    Smashed.insert(Smashed.end(), Last.begin(), Last.end());
    Decoded S = decode(B, Smashed);
    ASSERT_EQ(S.Frames.size(), 1u);
    EXPECT_EQ(S.Frames[0].Sequence, 1u);
    EXPECT_EQ(S.Stats.ResyncBytes, Smashed.size() - Last.size());
  }
}

TEST(FrameCodec, WrongVersionAndForeignMagicAreResynced) {
  for (const Binding &B : Bindings) {
    SCOPED_TRACE(B.Name);
    std::vector<uint8_t> Bytes = record(B, 1, 0, {8});
    put32(Bytes, 4, B.Format.Version + 1);
    std::vector<uint8_t> Good = record(B, 1, 1, {0});
    Bytes.insert(Bytes.end(), Good.begin(), Good.end());
    Decoded D = decode(B, Bytes);
    ASSERT_EQ(D.Frames.size(), 1u);
    EXPECT_EQ(D.Frames[0].Sequence, 1u);

    // The other binding's records are not frames of this one.
    const Binding &Other = B.IsWire ? Journal : Wire;
    Decoded Foreign = decode(B, record(Other, 1, 0, {1, 2}));
    EXPECT_TRUE(Foreign.Frames.empty());
    EXPECT_EQ(Foreign.Stats.CorruptFrames, 0u);
  }
}

TEST(FrameCodec, OversizedLengthIsDamage) {
  // The wire caps payloads at 1 MiB: a smashed length beyond the cap is
  // resynced at once, without waiting for bytes that will never come. The
  // journal is uncapped, so the same length is a torn record until
  // finish() — then it is resynced just the same.
  for (const Binding &B : Bindings) {
    SCOPED_TRACE(B.Name);
    std::vector<uint8_t> Bytes = record(B, 1, 0, {8});
    put32(Bytes, 20, ingest::WireMaxPayload + 1);
    size_t FirstEnd = Bytes.size();
    std::vector<uint8_t> Good = record(B, 1, 1, {0});
    Bytes.insert(Bytes.end(), Good.begin(), Good.end());

    Decoded Open = decode(B, Bytes, SIZE_MAX, /*Finish=*/false);
    EXPECT_EQ(Open.Frames.size(), B.IsWire ? 1u : 0u);
    Decoded D = decode(B, Bytes);
    ASSERT_EQ(D.Frames.size(), 1u);
    EXPECT_EQ(D.Frames[0].Sequence, 1u);
    EXPECT_EQ(D.Stats.ResyncBytes, FirstEnd);
  }
}

TEST(FrameCodec, JournalScanReportsLastPayloadAndTornBytes) {
  // scanJournal's own outputs over every cut of a three-record journal:
  // the last wholly present record's payload, and every byte after it as
  // torn.
  std::vector<std::vector<uint8_t>> Payloads = {
      {10, 11, 12}, {20, 21}, std::vector<uint8_t>(300, 0x5A)};
  std::vector<uint8_t> Bytes;
  std::vector<size_t> Ends;
  for (size_t R = 0; R < Payloads.size(); ++R) {
    frame::append(Bytes, JournalFormat, 0, R, ByteSpan(Payloads[R]));
    Ends.push_back(Bytes.size());
  }
  for (size_t Cut = 0; Cut <= Bytes.size(); ++Cut) {
    std::vector<uint8_t> Prefix(Bytes.begin(),
                                Bytes.begin() + static_cast<long>(Cut));
    JournalScan Scan = scanJournal(Prefix);
    size_t Whole = static_cast<size_t>(
        std::upper_bound(Ends.begin(), Ends.end(), Cut) - Ends.begin());
    ASSERT_EQ(Scan.ValidRecords, Whole) << "cut at " << Cut;
    EXPECT_EQ(Scan.CorruptRecords, 0u) << "cut at " << Cut;
    EXPECT_EQ(Scan.TornBytes, Cut - (Whole == 0 ? 0 : Ends[Whole - 1]))
        << "cut at " << Cut;
    if (Whole == 0)
      EXPECT_TRUE(Scan.LastPayload.empty()) << "cut at " << Cut;
    else
      EXPECT_EQ(Scan.LastPayload, Payloads[Whole - 1]) << "cut at " << Cut;
  }
  // A corrupt last record falls back to the one before and is counted.
  std::vector<uint8_t> Damaged = Bytes;
  Damaged[Ends[1] + frame::HeaderSize] ^= 0xFF;
  JournalScan Scan = scanJournal(Damaged);
  EXPECT_EQ(Scan.ValidRecords, 2u);
  EXPECT_EQ(Scan.CorruptRecords, 1u);
  EXPECT_EQ(Scan.LastPayload, Payloads[1]);
  EXPECT_EQ(Scan.TornBytes, Bytes.size() - Ends[1]);
}

TEST(FrameCodec, WireHelloFrameBytesArePinned) {
  // twpp-wire-v1 as producers have always sent it: any layout drift in
  // the codec breaks every deployed producer.
  const std::vector<uint8_t> Pinned = {
      0x54, 0x57, 0x50, 0x57, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00,
      0x00, 0x00, 0x05, 0x04, 0x03, 0x02, 0x01, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0xA4, 0x86, 0xD6, 0xD0, 0x00, 0x0C};
  std::vector<uint8_t> Bytes;
  ingest::appendWireFrame(Bytes, 3, 0x0102030405ull,
                          ingest::encodeHelloPayload(12));
  EXPECT_EQ(Bytes, Pinned);
}

TEST(FrameCodec, JournalRecordBytesArePinned) {
  // The v2 journal record exactly as JournalWriter puts it on disk.
  const std::vector<uint8_t> Pinned = {
      0x54, 0x57, 0x50, 0x4A, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
      0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x04, 0x00,
      0x00, 0x00, 0x53, 0xA8, 0x35, 0xD2, 0xDE, 0xAD, 0xBE, 0xEF};
  fault::ScopedFaultSuspend Shield; // the bytes, not the IO, are the subject
  std::string Path = uniqueTempPath("pinned.twppj");
  {
    JournalWriter Writer;
    ASSERT_TRUE(Writer.open(Path, /*Append=*/false).ok());
    ASSERT_TRUE(
        Writer.append(7, 0x0102030405060708ull, {0xDE, 0xAD, 0xBE, 0xEF})
            .ok());
  }
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(readFileBytes(Path, Bytes).ok());
  EXPECT_EQ(Bytes, Pinned);
}

/// One random stream of records of \p B, with some records of the other
/// binding and some payloads that alias a magic mixed in, then damaged
/// by random flips, truncations, garbage inserts and duplicated spans.
std::vector<uint8_t> randomDamagedStream(Rng &R, const Binding &B) {
  std::vector<uint8_t> Bytes;
  size_t Records = R.nextBelow(12);
  for (size_t I = 0; I < Records; ++I) {
    std::vector<uint8_t> Payload(R.nextBelow(R.nextBelow(4) == 0 ? 400 : 24));
    for (uint8_t &Byte : Payload)
      Byte = static_cast<uint8_t>(R.next());
    if (!Payload.empty() && R.nextBelow(4) == 0) {
      // Embed a whole record, or just a magic, inside the payload.
      std::vector<uint8_t> Alias;
      frame::append(Alias, B.Format, 1, I, ByteSpan(Payload));
      if (R.nextBelow(2) == 0)
        Alias.resize(4);
      Payload.insert(Payload.begin() + static_cast<long>(
                                           R.nextBelow(Payload.size())),
                     Alias.begin(), Alias.end());
    }
    const Binding &Target = R.nextBelow(8) == 0 ? (B.IsWire ? Journal : Wire)
                                                : B;
    frame::append(Bytes, Target.Format,
                  static_cast<uint32_t>(R.nextBelow(4)), I,
                  ByteSpan(Payload));
  }
  size_t Mutations = R.nextBelow(6);
  for (size_t M = 0; M < Mutations && !Bytes.empty(); ++M) {
    size_t At = R.nextBelow(Bytes.size());
    switch (R.nextBelow(4)) {
    case 0: // bit flips
      Bytes[At] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
      break;
    case 1: // truncation
      Bytes.resize(At);
      break;
    case 2: { // garbage insert
      std::vector<uint8_t> Garbage(1 + R.nextBelow(40));
      for (uint8_t &Byte : Garbage)
        Byte = static_cast<uint8_t>(R.next());
      Bytes.insert(Bytes.begin() + static_cast<long>(At), Garbage.begin(),
                   Garbage.end());
      break;
    }
    default: { // duplicated span
      size_t Length = R.nextBelow(Bytes.size() - At) + 1;
      std::vector<uint8_t> Span(Bytes.begin() + static_cast<long>(At),
                                Bytes.begin() + static_cast<long>(At + Length));
      size_t To = R.nextBelow(Bytes.size() + 1);
      Bytes.insert(Bytes.begin() + static_cast<long>(To), Span.begin(),
                   Span.end());
      break;
    }
    }
  }
  return Bytes;
}

TEST(FrameFuzz, RandomDamageAndChunkingKeepDecoderInvariants) {
  Rng R(0xF4A3E5u); // fixed seed: a reproducible corpus
  frame::Decoder::Stats Corpus;
  for (int Case = 0; Case < 400; ++Case) {
    const Binding &B = Bindings[Case % 2];
    SCOPED_TRACE(std::string(B.Name) + " case " + std::to_string(Case));
    std::vector<uint8_t> Bytes = randomDamagedStream(R, B);

    // Whole feed: every byte is accounted, and every yielded frame is
    // exactly the bytes it was decoded from.
    Decoded Whole = decode(B, Bytes);
    Corpus.Frames += Whole.Stats.Frames;
    Corpus.CorruptFrames += Whole.Stats.CorruptFrames;
    Corpus.ResyncBytes += Whole.Stats.ResyncBytes;
    ASSERT_EQ(Whole.Stats.FrameBytes + Whole.Stats.ResyncBytes, Bytes.size());
    ASSERT_EQ(Whole.Stats.Frames, Whole.Frames.size());
    ASSERT_EQ(Whole.Pending, 0u);
    for (const frame::Frame &F : Whole.Frames) {
      std::vector<uint8_t> Encoded =
          record(B, F.Stream, F.Sequence, F.Payload);
      ASSERT_NE(std::search(Bytes.begin(), Bytes.end(), Encoded.begin(),
                            Encoded.end()),
                Bytes.end());
    }

    // Any chunking yields the same frames and the same stats.
    for (int Trial = 0; Trial < 3; ++Trial) {
      size_t Chunk = 1 + R.nextBelow(Trial == 0 ? 4 : 200);
      Decoded Chunked = decode(B, Bytes, Chunk);
      ASSERT_TRUE(sameFrames(Chunked.Frames, Whole.Frames))
          << "chunk=" << Chunk;
      ASSERT_TRUE(sameStats(Chunked.Stats, Whole.Stats)) << "chunk=" << Chunk;
    }

    // The journal scanner reports what the decoder found.
    if (!B.IsWire) {
      JournalScan Scan = scanJournal(Bytes);
      EXPECT_EQ(Scan.ValidRecords, Whole.Frames.size());
      EXPECT_EQ(Scan.CorruptRecords, Whole.Stats.CorruptFrames);
      if (!Whole.Frames.empty()) {
        EXPECT_EQ(Scan.LastPayload, Whole.Frames.back().Payload);
      }
    }
  }
  // The corpus really exercises both intact records and damage.
  EXPECT_GT(Corpus.Frames, 0u);
  EXPECT_GT(Corpus.CorruptFrames, 0u);
  EXPECT_GT(Corpus.ResyncBytes, 0u);
}

} // namespace
