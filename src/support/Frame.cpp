//===- support/Frame.cpp - CRC-framed record codec ------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/Frame.h"

#include "support/Crc32.h"

#include <cassert>

using namespace twpp;
using namespace twpp::frame;

namespace {

/// Offsets of the header fields; the CRC covers everything before it.
constexpr size_t StreamAt = 8;
constexpr size_t SequenceAt = 12;
constexpr size_t LengthAt = 20;
constexpr size_t CrcAt = 24;

void storeLe(uint8_t *At, uint64_t Value, int Bytes) {
  for (int I = 0; I < Bytes; ++I)
    At[I] = static_cast<uint8_t>(Value >> (8 * I));
}

uint32_t recordCrc(const uint8_t *Header, const uint8_t *Payload,
                   size_t Length) {
  uint32_t Crc = crc32Update(crc32Init(), Header, CrcAt);
  return crc32Final(crc32Update(Crc, Payload, Length));
}

} // namespace

void frame::append(std::vector<uint8_t> &Out, Format F, uint32_t Stream,
                   uint64_t Sequence, ByteSpan Payload) {
  assert(Payload.size() <= MaxLength && "payload overflows the length field");
  size_t Start = Out.size();
  Out.resize(Start + HeaderSize);
  uint8_t *Header = Out.data() + Start;
  storeLe(Header, F.Magic, 4);
  storeLe(Header + 4, F.Version, 4);
  storeLe(Header + StreamAt, Stream, 4);
  storeLe(Header + SequenceAt, Sequence, 8);
  storeLe(Header + LengthAt, Payload.size(), 4);
  storeLe(Header + CrcAt, recordCrc(Header, Payload.Data, Payload.size()), 4);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

void Decoder::feed(const uint8_t *Data, size_t Size) {
  // Compact before growing: once the cursor has moved past consumed
  // records, their bytes are dead weight every later append would keep
  // copying around.
  if (Pos > 0 && (Pos >= 4096 || Pos == Buffer.size())) {
    Buffer.erase(Buffer.begin(), Buffer.begin() + static_cast<long>(Pos));
    Pos = 0;
  }
  Buffer.insert(Buffer.end(), Data, Data + Size);
}

bool Decoder::next(Frame &Out) {
  // Every decision below looks only at bytes already buffered, and waits
  // (before finish()) whenever the bytes it needs are not all there yet:
  // that is what makes the outcome independent of the chunking.
  while (true) {
    size_t Avail = Buffer.size() - Pos;
    if (Avail < HeaderSize) {
      // Could still be the prefix of a valid header; wait for more bytes
      // unless the stream already ended, in which case the tail is
      // garbage by definition.
      if (!Finished)
        return false;
      Counts.ResyncBytes += Avail;
      Pos = Buffer.size();
      return false;
    }
    const uint8_t *Header = Buffer.data() + Pos;
    uint32_t Length = le32At(Header, LengthAt);
    bool Plausible = le32At(Header, 0) == Fmt.Magic &&
                     le32At(Header, 4) == Fmt.Version &&
                     Length <= MaxPayload;
    if (Plausible && Avail < HeaderSize + Length && !Finished)
      return false; // The record straddles the read edge; wait for it.
    bool Intact = Plausible && Avail >= HeaderSize + Length;
    if (Intact && recordCrc(Header, Header + HeaderSize, Length) !=
                      le32At(Header, CrcAt)) {
      ++Counts.CorruptFrames;
      Intact = false;
    }
    if (!Intact) {
      // Not a record boundary, an absurd length, a torn tail that can
      // never complete, or a CRC failure: resynchronize byte-by-byte so
      // one damaged region cannot hide the rest of the stream.
      ++Pos;
      ++Counts.ResyncBytes;
      continue;
    }
    Out.Stream = le32At(Header, StreamAt);
    Out.Sequence = le64At(Header, SequenceAt);
    Out.Payload.assign(Header + HeaderSize, Header + HeaderSize + Length);
    Pos += HeaderSize + Length;
    ++Counts.Frames;
    Counts.FrameBytes += HeaderSize + Length;
    return true;
  }
}
