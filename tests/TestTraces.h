//===- tests/TestTraces.h - Shared fixture traces ---------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 1 running example and small random-trace generators
/// shared by several test suites.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TESTS_TESTTRACES_H
#define TWPP_TESTS_TESTTRACES_H

#include "support/Random.h"
#include "trace/Events.h"

#include <vector>

namespace twpp::fixtures {

/// The paper's Figure 1 WPP: main's loop runs five times calling f; f's
/// loop runs three times per call along one of two paths; the f calls
/// follow path2, path2, path1, path2, path1.
inline RawTrace figure1Trace() {
  RawTrace Trace;
  Trace.FunctionCount = 2; // 0 = main, 1 = f
  auto &E = Trace.Events;
  auto EmitF = [&E](bool SecondPath) {
    E.push_back(TraceEvent::enter(1));
    E.push_back(TraceEvent::block(1));
    for (int I = 0; I < 3; ++I) {
      if (SecondPath) {
        for (BlockId B : {2, 7, 8, 9, 6})
          E.push_back(TraceEvent::block(B));
      } else {
        for (BlockId B : {2, 3, 4, 5, 6})
          E.push_back(TraceEvent::block(B));
      }
    }
    E.push_back(TraceEvent::block(10));
    E.push_back(TraceEvent::exit());
  };

  E.push_back(TraceEvent::enter(0));
  E.push_back(TraceEvent::block(1));
  bool SecondPath[5] = {true, true, false, true, false};
  for (int Call = 0; Call < 5; ++Call) {
    E.push_back(TraceEvent::block(2));
    E.push_back(TraceEvent::block(3));
    EmitF(SecondPath[Call]);
    E.push_back(TraceEvent::block(4));
  }
  E.push_back(TraceEvent::block(6));
  E.push_back(TraceEvent::exit());
  return Trace;
}

/// A random but well-formed trace: random call nesting, random block ids.
/// Exercises the pipeline with unstructured inputs (no CFG discipline).
inline RawTrace randomTrace(uint64_t Seed, uint32_t FunctionCount = 5,
                            uint32_t MaxEvents = 4000) {
  Rng R(Seed);
  RawTrace Trace;
  Trace.FunctionCount = FunctionCount;
  auto &E = Trace.Events;
  uint32_t Depth = 0;
  E.push_back(TraceEvent::enter(
      static_cast<FunctionId>(R.nextBelow(FunctionCount))));
  Depth = 1;
  while (E.size() < MaxEvents && Depth > 0) {
    uint64_t Roll = R.nextBelow(10);
    if (Roll < 6) {
      E.push_back(TraceEvent::block(
          static_cast<BlockId>(1 + R.nextBelow(12))));
    } else if (Roll < 8 && Depth < 12) {
      E.push_back(TraceEvent::enter(
          static_cast<FunctionId>(R.nextBelow(FunctionCount))));
      ++Depth;
    } else {
      E.push_back(TraceEvent::exit());
      --Depth;
    }
  }
  while (Depth > 0) {
    E.push_back(TraceEvent::exit());
    --Depth;
  }
  return Trace;
}

/// A deterministic trace of \p Calls nested call pairs (about nine events
/// each), long enough to cross several of the streaming compactor's
/// telemetry publish points. \p Shift varies the function and block ids.
inline RawTrace nestedCallTrace(uint64_t Calls, uint64_t Shift = 0) {
  RawTrace Trace;
  Trace.FunctionCount = 4;
  auto &E = Trace.Events;
  for (uint64_t I = 0; I < Calls; ++I) {
    uint64_t C = I + Shift;
    E.push_back(TraceEvent::enter(static_cast<FunctionId>(C % 4)));
    for (uint64_t B = 0; B < 1 + C % 5; ++B)
      E.push_back(
          TraceEvent::block(static_cast<BlockId>(1 + (C * 7 + B) % 13)));
    E.push_back(TraceEvent::enter(static_cast<FunctionId>((C + 1) % 4)));
    for (uint64_t B = 0; B < C % 3; ++B)
      E.push_back(TraceEvent::block(static_cast<BlockId>(1 + (C + B) % 11)));
    E.push_back(TraceEvent::exit());
    E.push_back(TraceEvent::block(static_cast<BlockId>(1 + C % 2)));
    E.push_back(TraceEvent::exit());
  }
  return Trace;
}

} // namespace twpp::fixtures

#endif // TWPP_TESTS_TESTTRACES_H
