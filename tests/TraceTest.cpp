//===- tests/TraceTest.cpp - trace/ unit tests -----------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "trace/Events.h"
#include "trace/UncompactedFile.h"

#include "support/Random.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace twpp;

namespace {

/// The paper's Figure 1 example: main loops five times, calling f each
/// iteration; f's loop runs three times per call, along one of two paths.
RawTrace figure1Trace() {
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

TEST(RawTraceTest, WellFormedness) {
  RawTrace Trace = figure1Trace();
  EXPECT_TRUE(Trace.isWellFormed());
  EXPECT_EQ(Trace.callCount(), 6u); // main + five calls to f

  // Block outside a call.
  RawTrace Bad1;
  Bad1.FunctionCount = 1;
  Bad1.Events = {TraceEvent::block(1)};
  EXPECT_FALSE(Bad1.isWellFormed());

  // Unbalanced exit.
  RawTrace Bad2;
  Bad2.FunctionCount = 1;
  Bad2.Events = {TraceEvent::enter(0), TraceEvent::exit(),
                 TraceEvent::exit()};
  EXPECT_FALSE(Bad2.isWellFormed());

  // Function id out of range.
  RawTrace Bad3;
  Bad3.FunctionCount = 1;
  Bad3.Events = {TraceEvent::enter(1), TraceEvent::exit()};
  EXPECT_FALSE(Bad3.isWellFormed());
}

TEST(RawTraceTest, CollectingSinkAccumulates) {
  CollectingSink Sink(3);
  Sink.onEnter(2);
  Sink.onBlock(7);
  Sink.onExit();
  RawTrace Trace = Sink.take();
  ASSERT_EQ(Trace.Events.size(), 3u);
  EXPECT_EQ(Trace.Events[0], TraceEvent::enter(2));
  EXPECT_EQ(Trace.Events[1], TraceEvent::block(7));
  EXPECT_EQ(Trace.Events[2], TraceEvent::exit());
  EXPECT_TRUE(Trace.isWellFormed());
}

TEST(UncompactedFileTest, EncodeDecodeRoundTrip) {
  RawTrace Trace = figure1Trace();
  RawTrace Back;
  ASSERT_TRUE(decodeUncompactedTrace(encodeUncompactedTrace(Trace), Back));
  EXPECT_EQ(Back, Trace);
}

TEST(UncompactedFileTest, RejectsCorruptMagic) {
  std::vector<uint8_t> Bytes = encodeUncompactedTrace(figure1Trace());
  Bytes[0] ^= 0xFF;
  RawTrace Back;
  EXPECT_FALSE(decodeUncompactedTrace(Bytes, Back));
}

TEST(UncompactedFileTest, FileRoundTrip) {
  std::string Path = uniqueTempPath("twpp_owpp_test.bin");
  RawTrace Trace = figure1Trace();
  ASSERT_TRUE(writeUncompactedTraceFile(Path, Trace));
  RawTrace Back;
  ASSERT_TRUE(readUncompactedTraceFile(Path, Back));
  EXPECT_EQ(Back, Trace);
  std::remove(Path.c_str());
}

TEST(ExtractionTest, FindsEveryCallOfFunction) {
  RawTrace Trace = figure1Trace();
  std::vector<std::vector<BlockId>> Traces;
  extractFunctionTraces(Trace, 1, Traces);
  ASSERT_EQ(Traces.size(), 5u);
  // Calls 1, 2 and 4 took the second path; calls 3 and 5 the first
  // (paper Figure 1 verbatim).
  std::vector<BlockId> First = {1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6,
                                2, 3, 4, 5, 6, 10};
  std::vector<BlockId> Second = {1, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6,
                                 2, 7, 8, 9, 6, 10};
  EXPECT_EQ(Traces[0], Second);
  EXPECT_EQ(Traces[1], Second);
  EXPECT_EQ(Traces[2], First);
  EXPECT_EQ(Traces[3], Second);
  EXPECT_EQ(Traces[4], First);
}

TEST(ExtractionTest, MainTraceExcludesCalleeBlocks) {
  RawTrace Trace = figure1Trace();
  std::vector<std::vector<BlockId>> Traces;
  extractFunctionTraces(Trace, 0, Traces);
  ASSERT_EQ(Traces.size(), 1u);
  std::vector<BlockId> Main = {1, 2, 3, 4, 2, 3, 4, 2, 3, 4,
                               2, 3, 4, 2, 3, 4, 6};
  EXPECT_EQ(Traces[0], Main);
}

TEST(ExtractionTest, AbsentFunctionYieldsNothing) {
  RawTrace Trace = figure1Trace();
  Trace.FunctionCount = 3;
  std::vector<std::vector<BlockId>> Traces;
  extractFunctionTraces(Trace, 2, Traces);
  EXPECT_TRUE(Traces.empty());
}

} // namespace
