//===- ingest/Wire.cpp - twpp-wire-v1 framed trace protocol ---------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "ingest/Wire.h"

using namespace twpp;
using namespace twpp::ingest;

namespace {

/// Event tags inside an Events payload. On-wire values — never renumber.
constexpr uint64_t TagEnter = 0;
constexpr uint64_t TagBlock = 1;
constexpr uint64_t TagExit = 2;

} // namespace

std::vector<uint8_t> ingest::encodeHelloPayload(uint32_t FunctionCount) {
  ByteWriter W;
  W.writeByte(static_cast<uint8_t>(WireFrameKind::Hello));
  W.writeVarUint(FunctionCount);
  return W.take();
}

std::vector<uint8_t> ingest::encodeEventsPayload(const TraceEvent *Begin,
                                                 const TraceEvent *End) {
  ByteWriter W;
  W.writeByte(static_cast<uint8_t>(WireFrameKind::Events));
  W.writeVarUint(static_cast<uint64_t>(End - Begin));
  for (const TraceEvent *E = Begin; E != End; ++E) {
    switch (E->EventKind) {
    case TraceEvent::Kind::Enter:
      W.writeVarUint(TagEnter | (static_cast<uint64_t>(E->Id) << 2));
      break;
    case TraceEvent::Kind::Block:
      W.writeVarUint(TagBlock | (static_cast<uint64_t>(E->Id) << 2));
      break;
    case TraceEvent::Kind::Exit:
      W.writeVarUint(TagExit);
      break;
    }
  }
  return W.take();
}

std::vector<uint8_t> ingest::encodeByePayload(uint64_t TotalEvents) {
  ByteWriter W;
  W.writeByte(static_cast<uint8_t>(WireFrameKind::Bye));
  W.writeVarUint(TotalEvents);
  return W.take();
}

bool ingest::decodeWirePayload(ByteSpan Payload, WirePayload &Out) {
  Out = WirePayload();
  ByteReader R(Payload);
  uint8_t KindByte = R.readByte();
  if (R.hasError())
    return false;
  switch (KindByte) {
  case static_cast<uint8_t>(WireFrameKind::Hello): {
    Out.Kind = WireFrameKind::Hello;
    uint64_t Count = R.readVarUint();
    if (R.hasError() || Count > UINT32_MAX)
      return false;
    Out.FunctionCount = static_cast<uint32_t>(Count);
    break;
  }
  case static_cast<uint8_t>(WireFrameKind::Events): {
    Out.Kind = WireFrameKind::Events;
    uint64_t Count = R.readVarUint();
    // A CRC-valid but absurd count (more events than bytes) is producer
    // damage; reject before reserving.
    if (R.hasError() || Count > Payload.size())
      return false;
    Out.Events.reserve(static_cast<size_t>(Count));
    for (uint64_t I = 0; I < Count; ++I) {
      uint64_t Tagged = R.readVarUint();
      if (R.hasError())
        return false;
      uint64_t Tag = Tagged & 3;
      uint64_t Id = Tagged >> 2;
      if (Id > UINT32_MAX)
        return false;
      switch (Tag) {
      case TagEnter:
        Out.Events.push_back(TraceEvent::enter(static_cast<uint32_t>(Id)));
        break;
      case TagBlock:
        Out.Events.push_back(TraceEvent::block(static_cast<uint32_t>(Id)));
        break;
      case TagExit:
        if (Id != 0)
          return false;
        Out.Events.push_back(TraceEvent::exit());
        break;
      default:
        return false;
      }
    }
    break;
  }
  case static_cast<uint8_t>(WireFrameKind::Bye): {
    Out.Kind = WireFrameKind::Bye;
    Out.TotalEvents = R.readVarUint();
    if (R.hasError())
      return false;
    break;
  }
  default:
    return false;
  }
  return R.atEnd();
}
