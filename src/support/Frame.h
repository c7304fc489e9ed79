//===- support/Frame.h - CRC-framed record codec ----------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one record framing behind every CRC-framed byte stream: the
/// `twpp-wire-v1` ingest wire (ingest/Wire.h) and the checkpoint journal
/// (wpp/Journal.h). Every record is
///
///   fixed32 magic    fixed32 version
///   fixed32 stream   fixed64 sequence
///   fixed32 length   fixed32 crc32(24-byte header prefix + payload)
///   length payload bytes
///
/// A Format names the (magic, version) pair a stream's records carry.
/// The CRC covers the header prefix as well as the payload: stream and
/// sequence are inputs to sequencing and recovery, so a flipped bit there
/// must read as a corrupt record, not as a plausible one from another
/// stream or the far future.
///
/// Decoder is the read side: it accepts arbitrary byte chunks, validates
/// framing and CRC, and on any damage resynchronizes by scanning
/// byte-by-byte for the next magic, accounting every skipped byte. It is
/// chunk-invariant — the frames and Stats it yields depend only on the
/// bytes fed, never on how they were split across feed() calls — and
/// damage never makes it fail; it only costs the damaged records.
/// docs/FORMATS.md ("Framed records") specifies the layout.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_FRAME_H
#define TWPP_SUPPORT_FRAME_H

#include "support/ByteStream.h"

#include <cstdint>
#include <vector>

namespace twpp::frame {

/// magic + version + stream + sequence + length + crc.
inline constexpr size_t HeaderSize = 4 + 4 + 4 + 8 + 4 + 4;
/// The largest payload the 32-bit length field can describe; a decoder
/// built with this cap is uncapped.
inline constexpr uint32_t MaxLength = UINT32_MAX;

/// The (magic, version) pair identifying one framed format.
struct Format {
  uint32_t Magic;
  uint32_t Version;
};

/// One decoded record: header fields plus raw payload bytes.
struct Frame {
  uint32_t Stream = 0;
  uint64_t Sequence = 0;
  std::vector<uint8_t> Payload;
};

/// Appends one complete record to \p Out. \p Payload must not alias
/// \p Out and must be at most MaxLength bytes.
void append(std::vector<uint8_t> &Out, Format F, uint32_t Stream,
            uint64_t Sequence, ByteSpan Payload);

/// Incremental record decoder with byte-resync. Feed it chunks as they
/// arrive; pull records until next() reports it needs more.
class Decoder {
public:
  /// Cumulative progress/damage accounting. After finish() and a drain,
  /// FrameBytes + ResyncBytes equals the bytes fed.
  struct Stats {
    uint64_t Frames = 0;        ///< Valid records decoded.
    uint64_t FrameBytes = 0;    ///< Bytes consumed by valid records.
    uint64_t CorruptFrames = 0; ///< Plausible headers failing CRC.
    uint64_t ResyncBytes = 0;   ///< Bytes skipped scanning for a magic.
  };

  /// Decodes records of format \p F. A length beyond \p MaxPayload is
  /// damage (resync) rather than a reason to wait for — or allocate —
  /// bytes that will never arrive.
  Decoder(Format F, uint32_t MaxPayload) : Fmt(F), MaxPayload(MaxPayload) {}

  /// Appends \p Size bytes to the pending buffer.
  void feed(const uint8_t *Data, size_t Size);

  /// Marks end of input: a pending partial record at the tail can never
  /// complete, so next() stops waiting for it and resyncs past it.
  void finish() { Finished = true; }

  /// Extracts the next valid record, skipping damage. \returns false when
  /// more input is needed (or, after finish(), when the buffer is
  /// exhausted).
  bool next(Frame &Out);

  const Stats &stats() const { return Counts; }

  /// Bytes currently buffered and not yet consumed.
  size_t pendingBytes() const { return Buffer.size() - Pos; }

private:
  Format Fmt;
  uint32_t MaxPayload;
  std::vector<uint8_t> Buffer;
  size_t Pos = 0;
  bool Finished = false;
  Stats Counts;
};

} // namespace twpp::frame

#endif // TWPP_SUPPORT_FRAME_H
