//===- tests/ParallelPipelineTest.cpp - pool + parallel determinism --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the work-stealing ThreadPool / parallelFor, and the
/// determinism guarantee of the parallel compaction path: for any job
/// count the pipeline must produce results — down to the archive bytes —
/// identical to the serial path.
///
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"
#include "support/ThreadPool.h"
#include "workloads/Workload.h"
#include "wpp/Archive.h"
#include "wpp/Streaming.h"

#include "TestSupport.h"
#include "TestTraces.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

using namespace twpp;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);
  constexpr int TaskCount = 500;
  std::vector<std::atomic<int>> Hits(TaskCount);
  for (int I = 0; I < TaskCount; ++I)
    Pool.run([&Hits, I] { Hits[I].fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  for (int I = 0; I < TaskCount; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "task " << I;
  EXPECT_EQ(Pool.taskCount(), static_cast<uint64_t>(TaskCount));
}

TEST(ThreadPool, WaitWithNoTasksReturns) {
  ThreadPool Pool(2);
  Pool.wait();
  Pool.wait(); // wait() is idempotent.
  EXPECT_EQ(Pool.taskCount(), 0u);
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool Pool(3);
  std::atomic<int> Sum{0};
  for (int Round = 0; Round < 5; ++Round) {
    for (int I = 0; I < 64; ++I)
      Pool.run([&Sum] { Sum.fetch_add(1, std::memory_order_relaxed); });
    Pool.wait();
    EXPECT_EQ(Sum.load(), (Round + 1) * 64);
  }
}

TEST(ThreadPool, TasksMaySpawnSubtasks) {
  // run() from inside a task must be legal and the subtasks must finish
  // before wait() returns.
  ThreadPool Pool(4);
  std::atomic<int> Leaves{0};
  for (int I = 0; I < 16; ++I)
    Pool.run([&Pool, &Leaves] {
      for (int J = 0; J < 8; ++J)
        Pool.run([&Leaves] { Leaves.fetch_add(1, std::memory_order_relaxed); });
    });
  Pool.wait();
  EXPECT_EQ(Leaves.load(), 16 * 8);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 100; ++I)
      Pool.run([&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
    // No wait(): the destructor must drain the queue before joining.
  }
  EXPECT_EQ(Ran.load(), 100);
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool Pool(1);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 10; ++I)
    Pool.run([&Sum, I] { Sum.fetch_add(I, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 55);
  EXPECT_EQ(Pool.stealCount(), 0u); // Nobody to steal from.
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelFor, CoversEveryIndex) {
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> Hits(257);
    parallelFor(ParallelConfig::withJobs(Jobs), Hits.size(),
                [&Hits](size_t I) {
                  Hits[I].fetch_add(1, std::memory_order_relaxed);
                });
    for (size_t I = 0; I < Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "jobs " << Jobs << " index " << I;
  }
}

TEST(ParallelFor, ZeroAndOneElementRanges) {
  int Calls = 0;
  parallelFor(ParallelConfig::withJobs(8), 0,
              [&Calls](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  parallelFor(ParallelConfig::withJobs(8), 1,
              [&Calls](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 1);
}

TEST(ParallelFor, MatchesSerialResult) {
  // Independent per-slot writes: the parallel schedule must not change
  // the result.
  std::vector<uint64_t> Serial(1000), Parallel(1000);
  auto Fill = [](std::vector<uint64_t> &Out) {
    return [&Out](size_t I) { Out[I] = I * I + 7; };
  };
  parallelFor(ParallelConfig::withJobs(1), Serial.size(), Fill(Serial));
  parallelFor(ParallelConfig::withJobs(8), Parallel.size(), Fill(Parallel));
  EXPECT_EQ(Serial, Parallel);
}

TEST(ParallelConfigTest, EffectiveJobs) {
  EXPECT_EQ(ParallelConfig::withJobs(1).effectiveJobs(), 1u);
  EXPECT_EQ(ParallelConfig::withJobs(6).effectiveJobs(), 6u);
  EXPECT_FALSE(ParallelConfig::withJobs(1).parallel());
  EXPECT_TRUE(ParallelConfig::withJobs(2).parallel());
  // Jobs = 0 resolves to the hardware concurrency, never to zero.
  EXPECT_GE(ParallelConfig::withJobs(0).effectiveJobs(), 1u);
}

//===----------------------------------------------------------------------===//
// Parallel pipeline determinism
//===----------------------------------------------------------------------===//

/// Compacts \p Trace serially and with 8 jobs and asserts every stage
/// result and the final archive bytes are identical.
void checkJobCountInvariance(const RawTrace &Trace, const std::string &Tag) {
  ParallelConfig Serial = ParallelConfig::withJobs(1);
  ParallelConfig Wide = ParallelConfig::withJobs(8);

  TwppWpp SerialWpp = compactWpp(Trace, Serial);
  TwppWpp WideWpp = compactWpp(Trace, Wide);
  ASSERT_EQ(SerialWpp, WideWpp) << Tag;

  std::vector<uint8_t> SerialBytes = encodeArchive(SerialWpp, Serial);
  std::vector<uint8_t> WideBytes = encodeArchive(WideWpp, Wide);
  ASSERT_EQ(SerialBytes, WideBytes) << Tag << ": archive bytes differ";
}

TEST(ParallelDeterminism, Figure1Trace) {
  checkJobCountInvariance(fixtures::figure1Trace(), "figure1");
}

TEST(ParallelDeterminism, RandomTraces) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    checkJobCountInvariance(fixtures::randomTrace(Seed, 8, 3000),
                            "seed " + std::to_string(Seed));
}

TEST(ParallelDeterminism, TestProfileWorkloads) {
  // The reduced-scale paper workloads: realistic shape, many functions,
  // skewed per-function work — the case the work-stealing pool exists for.
  for (const WorkloadProfile &Profile : testProfiles()) {
    RawTrace Trace = generateWorkloadTrace(Profile);
    checkJobCountInvariance(Trace, Profile.Name);
  }
}

TEST(ParallelDeterminism, ArchiveFilesAreByteIdentical) {
  // cmp-level check through the file layer, the satellite's exact claim:
  // `--jobs 1` and `--jobs 8` archives compare equal byte for byte.
  RawTrace Trace = generateWorkloadTrace(testProfiles().front());
  TwppWpp Wpp = compactWpp(Trace);

  std::string PathSerial = uniqueTempPath("jobs1.twpp");
  std::string PathWide = uniqueTempPath("jobs8.twpp");
  ASSERT_TRUE(
      writeArchiveFile(PathSerial, Wpp, ParallelConfig::withJobs(1)));
  ASSERT_TRUE(writeArchiveFile(PathWide, Wpp, ParallelConfig::withJobs(8)));

  std::vector<uint8_t> SerialBytes, WideBytes;
  ASSERT_TRUE(readFileBytes(PathSerial, SerialBytes));
  ASSERT_TRUE(readFileBytes(PathWide, WideBytes));
  EXPECT_EQ(SerialBytes, WideBytes);
  std::remove(PathSerial.c_str());
  std::remove(PathWide.c_str());
}

TEST(ParallelDeterminism, StreamingCompactorParallelPath) {
  // The online sink's parallel finalization must equal the serial batch
  // pipeline result.
  RawTrace Trace = fixtures::randomTrace(99, 6, 2500);
  StreamingCompactor Sink(Trace.FunctionCount);
  replayEvents(Trace.Events, Sink);
  ASSERT_TRUE(Sink.balanced());
  EXPECT_EQ(Sink.takeCompacted(ParallelConfig::withJobs(8)),
            compactWpp(Trace));
}

} // namespace
