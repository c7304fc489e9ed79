//===- ingest/Wire.h - twpp-wire-v1 framed trace protocol ------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `twpp-wire-v1` binary wire protocol carrying trace event streams
/// from instrumented producers to the ingestion frontend. Every frame is
/// one support/Frame.h record under the "TWPW" magic, version 1: the
/// record's stream is the producer id and its sequence the per-producer
/// frame number. Sequence numbers start at 0 (the Hello frame) and
/// increase by one per frame, which is what gap/duplicate/reorder
/// detection keys on. The CRC over the header prefix is why a flipped
/// producerId or sequence reads as a corrupt frame, not as a phantom one.
///
/// The payload's first byte selects the frame kind:
///
///   Hello  (0): varuint functionCount — opens the stream.
///   Events (1): varuint count, then count events, each encoded as one
///               varuint `tag | id << 2` (tag 0 Enter, 1 Block, 2 Exit;
///               Exit carries id 0).
///   Bye    (2): varuint totalEvents — closes the stream; the receiver
///               cross-checks the declared count against what it applied
///               so silent loss is impossible.
///
/// FrameDecoder is the receive side: the shared frame::Decoder bound to
/// the wire format and a 1 MiB payload cap. Frames routinely straddle
/// read-buffer edges; damage only costs the damaged frames.
/// docs/FORMATS.md specifies the protocol.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_INGEST_WIRE_H
#define TWPP_INGEST_WIRE_H

#include "support/ByteStream.h"
#include "support/Frame.h"
#include "trace/Events.h"

#include <cstdint>
#include <vector>

namespace twpp::ingest {

/// "TWPW", little-endian (the journal is "TWPJ", archives are "TWPP").
inline constexpr uint32_t WireMagic = 0x57505754;
inline constexpr uint32_t WireVersion = 1;
inline constexpr frame::Format WireFormat{WireMagic, WireVersion};
inline constexpr size_t WireHeaderSize = frame::HeaderSize;
/// Upper bound a decoder accepts for payloadLength. A corrupt length
/// field beyond this is treated as damage (resync) instead of making the
/// receiver wait for — or allocate — gigabytes that will never arrive.
inline constexpr uint32_t WireMaxPayload = 1u << 20;

/// Payload kind selector (first payload byte).
enum class WireFrameKind : uint8_t { Hello = 0, Events = 1, Bye = 2 };

/// One decoded frame; its Stream is the producer id.
using WireFrame = frame::Frame;

/// One decoded payload, whatever the kind.
struct WirePayload {
  WireFrameKind Kind = WireFrameKind::Hello;
  /// Hello: the producer's function universe size.
  uint32_t FunctionCount = 0;
  /// Events: the batch, decoded and structurally valid (tag in range).
  std::vector<TraceEvent> Events;
  /// Bye: total events the producer claims to have sent.
  uint64_t TotalEvents = 0;
};

/// Builds the payload bytes of a Hello frame.
std::vector<uint8_t> encodeHelloPayload(uint32_t FunctionCount);

/// Builds the payload bytes of an Events frame over [Begin, End).
std::vector<uint8_t> encodeEventsPayload(const TraceEvent *Begin,
                                         const TraceEvent *End);

/// Builds the payload bytes of a Bye frame.
std::vector<uint8_t> encodeByePayload(uint64_t TotalEvents);

/// Decodes a frame payload. \returns false on a malformed payload
/// (unknown kind byte, bad varint, truncated batch, trailing bytes) —
/// possible despite the CRC when the *producer* is buggy or malicious,
/// so the receiver treats it as accounted damage, never trusts it.
bool decodeWirePayload(ByteSpan Payload, WirePayload &Out);

/// Appends one complete frame to \p Out.
inline void appendWireFrame(std::vector<uint8_t> &Out, uint32_t ProducerId,
                            uint64_t Sequence,
                            const std::vector<uint8_t> &Payload) {
  frame::append(Out, WireFormat, ProducerId, Sequence, ByteSpan(Payload));
}

/// Incremental wire decoder: feed() chunks as they arrive off the socket,
/// pull frames with next() until it reports it needs more.
class FrameDecoder : public frame::Decoder {
public:
  FrameDecoder() : frame::Decoder(WireFormat, WireMaxPayload) {}
};

} // namespace twpp::ingest

#endif // TWPP_INGEST_WIRE_H
