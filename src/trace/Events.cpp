//===- trace/Events.cpp - Whole program path event model ------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "trace/Events.h"

using namespace twpp;

TraceSink::~TraceSink() = default;

void twpp::replayEvents(std::span<const TraceEvent> Events, TraceSink &Sink) {
  for (const TraceEvent &Event : Events) {
    switch (Event.EventKind) {
    case TraceEvent::Kind::Enter:
      Sink.onEnter(Event.Id);
      break;
    case TraceEvent::Kind::Block:
      Sink.onBlock(Event.Id);
      break;
    case TraceEvent::Kind::Exit:
      Sink.onExit();
      break;
    }
  }
}

uint64_t RawTrace::blockEventCount() const {
  uint64_t Count = 0;
  for (const TraceEvent &Event : Events)
    if (Event.EventKind == TraceEvent::Kind::Block)
      ++Count;
  return Count;
}

uint64_t RawTrace::callCount() const {
  uint64_t Count = 0;
  for (const TraceEvent &Event : Events)
    if (Event.EventKind == TraceEvent::Kind::Enter)
      ++Count;
  return Count;
}

bool RawTrace::isWellFormed() const {
  uint64_t Depth = 0;
  for (const TraceEvent &Event : Events) {
    switch (Event.EventKind) {
    case TraceEvent::Kind::Enter:
      if (Event.Id >= FunctionCount)
        return false;
      ++Depth;
      break;
    case TraceEvent::Kind::Block:
      if (Depth == 0)
        return false;
      break;
    case TraceEvent::Kind::Exit:
      if (Depth == 0)
        return false;
      --Depth;
      break;
    }
  }
  return Depth == 0;
}
