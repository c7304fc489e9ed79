//===- tests/StreamingTest.cpp - online compaction -------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Streaming.h"

#include "TestTraces.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "runtime/Interpreter.h"
#include "lang/Lower.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

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

/// What per-call telemetry a trace must produce, derived straight from
/// its events: a reference histogram fed one record() per call in exit
/// order, and the distinct (function, path trace) pairs.
struct CallTelemetry {
  obs::Histogram Lengths{obs::names::powerOfTwoBounds(1u << 20)};
  uint64_t Calls = 0;
  uint64_t BlockEvents = 0;
  std::set<std::pair<FunctionId, std::vector<BlockId>>> Unique;

  void add(const RawTrace &Trace) {
    std::vector<std::pair<FunctionId, std::vector<BlockId>>> Open;
    for (const TraceEvent &E : Trace.Events) {
      switch (E.EventKind) {
      case TraceEvent::Kind::Enter:
        Open.push_back({E.Id, {}});
        break;
      case TraceEvent::Kind::Block:
        Open.back().second.push_back(E.Id);
        break;
      case TraceEvent::Kind::Exit:
        ++Calls;
        BlockEvents += Open.back().second.size();
        Lengths.record(Open.back().second.size());
        Unique.insert(std::move(Open.back()));
        Open.pop_back();
        break;
      }
    }
  }
};

uint64_t counterValue(const char *Name) {
  return obs::metrics().counter(Name).value();
}

obs::Histogram &traceLengthHistogram() {
  return obs::metrics().histogram(obs::names::PartitionTraceLength,
                                  obs::names::powerOfTwoBounds(1u << 20));
}

/// Turns metrics on over a clean registry for a scope, restoring the
/// process-global flag afterwards.
struct ScopedMetrics {
  bool Was = obs::enabled();
  ScopedMetrics() {
    obs::setMetricsEnabled(true);
    obs::metrics().reset();
  }
  ~ScopedMetrics() {
    obs::metrics().reset();
    obs::setMetricsEnabled(Was);
  }
};

TEST(StreamingTelemetry, PublishedMetricsMatchPerSampleReference) {
  // The compactor batches its per-call telemetry and publishes it every
  // PublishInterval events and at take. Once taken, the exported values
  // must be what per-sample recording gives: with one compactor the samples reach the
  // histogram in exit order, so even the P² quantiles match exactly.
  ScopedMetrics On;
  RawTrace Trace = fixtures::nestedCallTrace(1200);
  ASSERT_GT(Trace.Events.size(), 2 * StreamingCompactor::PublishInterval);
  CallTelemetry Want;
  Want.add(Trace);
  StreamingCompactor Sink(Trace.FunctionCount);
  replayEvents(Trace.Events, Sink);
  (void)Sink.takeCompacted();
  EXPECT_EQ(counterValue(obs::names::PartitionCalls), Want.Calls);
  EXPECT_EQ(counterValue(obs::names::PartitionBlockEvents), Want.BlockEvents);
  EXPECT_EQ(counterValue(obs::names::PartitionUniqueTraces),
            Want.Unique.size());
  EXPECT_EQ(traceLengthHistogram().counts(), Want.Lengths.counts());
  RunningStats Got = traceLengthHistogram().stats();
  RunningStats Ref = Want.Lengths.stats();
  EXPECT_EQ(Got.count(), Ref.count());
  EXPECT_EQ(Got.sum(), Ref.sum());
  EXPECT_EQ(Got.min(), Ref.min());
  EXPECT_EQ(Got.max(), Ref.max());
  EXPECT_EQ(Got.mean(), Ref.mean());
  EXPECT_EQ(Got.p50(), Ref.p50());
  EXPECT_EQ(Got.p95(), Ref.p95());
}

TEST(StreamingTelemetry, InterleavedCompactorsKeepExactTotals) {
  // Two compactors fed alternately on one thread (the ingest dispatcher's
  // case) publish their batches at their own cadence, so samples reach
  // the histogram out of exit order: order-independent figures stay
  // exact; the P² estimates depend on the order.
  ScopedMetrics On;
  RawTrace First = fixtures::nestedCallTrace(1200);
  RawTrace Second = fixtures::nestedCallTrace(1000, /*Shift=*/3);
  CallTelemetry Want, FirstOnly, SecondOnly;
  Want.add(First);
  Want.add(Second);
  FirstOnly.add(First);
  SecondOnly.add(Second);
  StreamingCompactor A(First.FunctionCount);
  StreamingCompactor B(Second.FunctionCount);
  size_t Longest = std::max(First.Events.size(), Second.Events.size());
  for (size_t I = 0; I < Longest; ++I) {
    if (I < First.Events.size())
      replayEvents({&First.Events[I], 1}, A);
    if (I < Second.Events.size())
      replayEvents({&Second.Events[I], 1}, B);
  }
  (void)A.takeCompacted();
  (void)B.takeCompacted();
  EXPECT_EQ(counterValue(obs::names::PartitionCalls), Want.Calls);
  EXPECT_EQ(counterValue(obs::names::PartitionBlockEvents), Want.BlockEvents);
  // Each compactor dedupes its own stream.
  EXPECT_EQ(counterValue(obs::names::PartitionUniqueTraces),
            FirstOnly.Unique.size() + SecondOnly.Unique.size());
  EXPECT_EQ(traceLengthHistogram().counts(), Want.Lengths.counts());
  RunningStats Got = traceLengthHistogram().stats();
  RunningStats Ref = Want.Lengths.stats();
  EXPECT_EQ(Got.count(), Ref.count());
  EXPECT_EQ(Got.sum(), Ref.sum());
  EXPECT_EQ(Got.min(), Ref.min());
  EXPECT_EQ(Got.max(), Ref.max());
}

} // namespace
