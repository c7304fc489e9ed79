//===- tests/StreamingTest.cpp - online compaction -------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Streaming.h"

#include "TestTraces.h"
#include "runtime/Interpreter.h"
#include "lang/Lower.h"

#include <gtest/gtest.h>

using namespace twpp;

namespace {

TEST(StreamingTest, MatchesOfflinePartition) {
  RawTrace Trace = fixtures::figure1Trace();
  StreamingCompactor Sink(Trace.FunctionCount);
  replayEvents(Trace.Events, Sink);
  ASSERT_TRUE(Sink.balanced());
  EXPECT_EQ(Sink.takePartitioned(), partitionWpp(Trace));
}

TEST(StreamingTest, TakeCompactedMatchesFullPipeline) {
  RawTrace Trace = fixtures::randomTrace(777);
  StreamingCompactor Sink(Trace.FunctionCount);
  replayEvents(Trace.Events, Sink);
  EXPECT_EQ(Sink.takeCompacted(), compactWpp(Trace));
}

TEST(StreamingTest, FrameTrackingAndReuse) {
  StreamingCompactor Sink(2);
  EXPECT_TRUE(Sink.balanced());
  Sink.onEnter(0);
  Sink.onBlock(1);
  Sink.onEnter(1);
  EXPECT_EQ(Sink.openFrames(), 2u);
  Sink.onExit();
  EXPECT_EQ(Sink.openFrames(), 1u);
  Sink.onExit();
  ASSERT_TRUE(Sink.balanced());
  PartitionedWpp First = Sink.takePartitioned();
  EXPECT_EQ(First.Dcg.Nodes.size(), 2u);

  // The compactor is reusable after take.
  Sink.onEnter(1);
  Sink.onBlock(5);
  Sink.onExit();
  PartitionedWpp Second = Sink.takePartitioned();
  EXPECT_EQ(Second.Dcg.Nodes.size(), 1u);
  EXPECT_EQ(Second.Functions[1].UniqueTraces[0], (PathTrace{5}));
}

TEST(StreamingTest, InterpreterCanStreamDirectly) {
  // The instrumented-execution deployment mode: the interpreter writes
  // into the online compactor; no raw trace ever exists.
  Module M;
  std::string Error;
  ASSERT_TRUE(compileProgram("fn f(n) {"
                             "  t = 0; i = 0;"
                             "  while (i < n) { t = t + i; i = i + 1; }"
                             "  return t;"
                             "}"
                             "fn main() {"
                             "  k = 0;"
                             "  while (k < 10) {"
                             "    r = call f(k % 3); print r; k = k + 1;"
                             "  }"
                             "}",
                             M, Error))
      << Error;

  StreamingCompactor Streaming(
      static_cast<uint32_t>(M.Functions.size()));
  Interpreter Interp(M, Streaming);
  ExecutionResult Result = Interp.run({});
  ASSERT_TRUE(Result.Completed) << Result.Error;
  ASSERT_TRUE(Streaming.balanced());
  TwppWpp Online = Streaming.takeCompacted();

  ExecutionResult Result2;
  RawTrace Trace = traceExecution(M, {}, Result2);
  EXPECT_EQ(Online, compactWpp(Trace));
  EXPECT_EQ(reconstructRawTrace(Online), Trace);
}

/// Property: streaming == offline on random traces.
class StreamingEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingEquivalence, RandomTraces) {
  RawTrace Trace = fixtures::randomTrace(GetParam(), 7, 5000);
  StreamingCompactor Sink(Trace.FunctionCount);
  replayEvents(Trace.Events, Sink);
  EXPECT_EQ(Sink.takePartitioned(), partitionWpp(Trace));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingEquivalence,
                         ::testing::Values(71, 72, 73, 74, 75, 76));

} // namespace
