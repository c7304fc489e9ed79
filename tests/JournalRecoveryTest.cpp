//===- tests/JournalRecoveryTest.cpp - crash-safe streaming ----------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-safety property of the journaled streaming compactor: kill
/// the compactor at any event index (or tear the journal at any byte)
/// and resumeFromJournal() must rebuild a compactor whose recovered
/// prefix compacts byte-identically to an uninterrupted run over the
/// same prefix. The tests stay meaningful under a CI-wide TWPP_FAULT
/// sweep: must-succeed setup IO runs under ScopedFaultSuspend, and the
/// operations under test are allowed to fail — but only gracefully,
/// with a named error and an intact fallback.
///
//===----------------------------------------------------------------------===//

#include "obs/Memory.h"
#include "support/ByteStream.h"
#include "support/Crc32.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Frame.h"
#include "verify/ArchiveChecks.h"
#include "wpp/Archive.h"
#include "wpp/Journal.h"
#include "wpp/Streaming.h"

#include "TestSupport.h"
#include "TestTraces.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

using namespace twpp;

namespace {

/// Archive bytes of an uninterrupted run over the first \p Events events,
/// with still-open calls closed on whatever blocks they had (the same
/// finalization recovery applies).
std::vector<uint8_t> referenceArchive(const RawTrace &Trace, size_t Events) {
  StreamingCompactor Sink(Trace.FunctionCount);
  replayEvents({Trace.Events.data(), Events}, Sink);
  while (!Sink.balanced())
    Sink.onExit();
  return encodeArchive(Sink.takeCompacted());
}

/// The records of a journal, read through the shared frame decoder:
/// each record's end offset and its sequence (the snapshot's event count).
struct JournalRecords {
  std::vector<size_t> Ends;
  std::vector<uint64_t> EventCounts;
};

JournalRecords readRecords(const std::vector<uint8_t> &Journal) {
  JournalRecords Out;
  frame::Decoder Decoder(JournalFormat, frame::MaxLength);
  Decoder.feed(Journal.data(), Journal.size());
  Decoder.finish();
  frame::Frame Record;
  while (Decoder.next(Record)) {
    Out.Ends.push_back(Decoder.stats().FrameBytes +
                       Decoder.stats().ResyncBytes);
    Out.EventCounts.push_back(Record.Sequence);
  }
  EXPECT_EQ(Decoder.stats().ResyncBytes, 0u)
      << "journal self-test: damaged record";
  return Out;
}

/// Appends one journal record holding \p Payload, as the writer frames it.
void appendRecord(std::vector<uint8_t> &Journal,
                  const std::vector<uint8_t> &Payload) {
  frame::append(Journal, JournalFormat, 0, 0, ByteSpan(Payload));
}

TEST(JournalFraming, RoundTripAndScan) {
  std::vector<uint8_t> Journal;
  std::vector<uint8_t> A = {1, 2, 3};
  std::vector<uint8_t> B = {9, 8, 7, 6, 5};
  appendRecord(Journal, A);
  appendRecord(Journal, B);
  JournalScan Scan = scanJournal(Journal);
  EXPECT_EQ(Scan.ValidRecords, 2u);
  EXPECT_EQ(Scan.CorruptRecords, 0u);
  EXPECT_EQ(Scan.TornBytes, 0u);
  EXPECT_EQ(Scan.LastPayload, B);
}

TEST(JournalFraming, TornTailYieldsLastValidRecord) {
  std::vector<uint8_t> Journal;
  std::vector<uint8_t> A = {1, 2, 3};
  std::vector<uint8_t> B = {4, 5, 6, 7};
  appendRecord(Journal, A);
  size_t AEnd = Journal.size();
  appendRecord(Journal, B);
  // Tear record B anywhere: header-only, mid-payload, one byte short.
  for (size_t Cut : {AEnd + 1, AEnd + frame::HeaderSize,
                     AEnd + frame::HeaderSize + 2, Journal.size() - 1}) {
    std::vector<uint8_t> Torn(Journal.begin(),
                              Journal.begin() + static_cast<long>(Cut));
    JournalScan Scan = scanJournal(Torn);
    EXPECT_EQ(Scan.ValidRecords, 1u) << "cut at " << Cut;
    EXPECT_EQ(Scan.LastPayload, A) << "cut at " << Cut;
    EXPECT_EQ(Scan.TornBytes, Cut - AEnd) << "cut at " << Cut;
  }
}

TEST(JournalFraming, CorruptCrcSkipsRecord) {
  std::vector<uint8_t> Journal;
  std::vector<uint8_t> A = {1, 2, 3};
  std::vector<uint8_t> B = {4, 5, 6};
  appendRecord(Journal, A);
  size_t AEnd = Journal.size();
  appendRecord(Journal, B);
  std::vector<uint8_t> Damaged = Journal;
  Damaged[AEnd + frame::HeaderSize] ^= 0xFF; // flip a payload byte of B
  JournalScan Scan = scanJournal(Damaged);
  EXPECT_EQ(Scan.ValidRecords, 1u);
  EXPECT_GE(Scan.CorruptRecords, 1u);
  EXPECT_EQ(Scan.LastPayload, A);
}

TEST(JournalFraming, ResynchronizesPastGarbage) {
  std::vector<uint8_t> Journal(37, 0xAB); // leading garbage
  std::vector<uint8_t> A = {42, 43};
  appendRecord(Journal, A);
  JournalScan Scan = scanJournal(Journal);
  EXPECT_EQ(Scan.ValidRecords, 1u);
  EXPECT_EQ(Scan.LastPayload, A);
}

TEST(JournalFraming, ResyncAliasingMagicInsideCorruptedPayload) {
  // A checkpoint payload that happens to contain a complete, CRC-valid
  // journal record (a checkpoint-of-a-checkpoint is exactly this shape).
  // While the outer record is intact the inner bytes are payload, full
  // stop. When the outer record's header is smashed, resync walks into
  // the payload and the aliased inner record *does* scan as valid — the
  // recovery contract survives because resume keys on the LAST valid
  // record, and the real successor record still scans.
  std::vector<uint8_t> Inner;
  std::vector<uint8_t> InnerPayload = {77, 78, 79};
  appendRecord(Inner, InnerPayload);

  std::vector<uint8_t> Journal;
  appendRecord(Journal, Inner); // outer record wrapping Inner
  size_t OuterEnd = Journal.size();
  std::vector<uint8_t> B = {1, 2, 3, 4};
  appendRecord(Journal, B);

  // Intact: the aliased magic inside the outer payload is invisible.
  JournalScan Clean = scanJournal(Journal);
  EXPECT_EQ(Clean.ValidRecords, 2u);
  EXPECT_EQ(Clean.LastPayload, B);

  // Smash the outer record's version field: its framing no longer
  // matches, resync slides into the payload, finds the inner record
  // (valid CRC — aliasing at its worst), then still reaches B.
  std::vector<uint8_t> Damaged = Journal;
  Damaged[4] ^= 0xFF;
  JournalScan Scan = scanJournal(Damaged);
  EXPECT_EQ(Scan.ValidRecords, 2u); // the aliased inner record + B
  EXPECT_EQ(Scan.LastPayload, B);   // recovery still lands on the truth
  EXPECT_EQ(Scan.TornBytes, 0u);

  // Same damage with no successor record: recovery now sees the aliased
  // inner payload — stale (it was checkpoint data, and it IS a valid
  // record shape), but never garbage, and restoreState() vets it anyway.
  std::vector<uint8_t> Headless(Damaged.begin(),
                                Damaged.begin() +
                                    static_cast<long>(OuterEnd));
  JournalScan Stale = scanJournal(Headless);
  EXPECT_EQ(Stale.ValidRecords, 1u);
  EXPECT_EQ(Stale.LastPayload, InnerPayload);
}

TEST(JournalFraming, RecordStraddlingReadBufferEdgeScansWhole) {
  // The scanner gets whatever prefix of the file a crashed writer left.
  // Sweep every cut point of a three-record journal — every way a record
  // can straddle the edge of what made it to disk — and require: records
  // wholly before the cut scan valid, the straddling record is torn (not
  // mis-decoded), and the scanner never crashes or spins.
  std::vector<uint8_t> Journal;
  std::vector<uint8_t> A = {10, 11, 12, 13, 14};
  std::vector<uint8_t> B = {20, 21};
  std::vector<uint8_t> C(300, 0x5A); // big enough to dwarf its header
  appendRecord(Journal, A);
  size_t AEnd = Journal.size();
  appendRecord(Journal, B);
  size_t BEnd = Journal.size();
  appendRecord(Journal, C);

  for (size_t Cut = 0; Cut <= Journal.size(); ++Cut) {
    std::vector<uint8_t> Prefix(Journal.begin(),
                                Journal.begin() + static_cast<long>(Cut));
    JournalScan Scan = scanJournal(Prefix);
    size_t WholeRecords = Cut >= Journal.size() ? 3u
                          : Cut >= BEnd         ? 2u
                          : Cut >= AEnd         ? 1u
                                                : 0u;
    ASSERT_EQ(Scan.ValidRecords, WholeRecords) << "cut at " << Cut;
    if (WholeRecords == 3)
      EXPECT_EQ(Scan.LastPayload, C) << "cut at " << Cut;
    else if (WholeRecords == 2)
      EXPECT_EQ(Scan.LastPayload, B) << "cut at " << Cut;
    else if (WholeRecords == 1)
      EXPECT_EQ(Scan.LastPayload, A) << "cut at " << Cut;
    else
      EXPECT_TRUE(Scan.LastPayload.empty()) << "cut at " << Cut;
  }
}

TEST(JournalRecovery, SnapshotRestoreRoundTrip) {
  for (uint64_t Seed : {11u, 22u, 33u}) {
    RawTrace Trace = fixtures::randomTrace(Seed, 5, 400);
    size_t Half = Trace.Events.size() / 2;
    StreamingCompactor Source(Trace.FunctionCount);
    replayEvents({Trace.Events.data(), Half}, Source);
    std::vector<uint8_t> Snapshot = Source.snapshotState();

    StreamingCompactor Restored(Trace.FunctionCount);
    ASSERT_TRUE(Restored.restoreState(Snapshot)) << "seed " << Seed;
    EXPECT_EQ(Restored.eventsConsumed(), Source.eventsConsumed());
    EXPECT_EQ(Restored.openFrames(), Source.openFrames());
    // Snapshots are deterministic: equal state, equal bytes.
    EXPECT_EQ(Restored.snapshotState(), Snapshot) << "seed " << Seed;

    // Both compactors must accept the rest of the trace and agree.
    std::span<const TraceEvent> Rest = std::span(Trace.Events).subspan(Half);
    replayEvents(Rest, Source);
    replayEvents(Rest, Restored);
    EXPECT_EQ(encodeArchive(Source.takeCompacted()),
              encodeArchive(Restored.takeCompacted()))
        << "seed " << Seed;
  }
}

TEST(JournalRecovery, RestoreRejectsMalformedPayloads) {
  RawTrace Trace = fixtures::randomTrace(77, 4, 200);
  StreamingCompactor Source(Trace.FunctionCount);
  replayEvents({Trace.Events.data(), Trace.Events.size() / 2}, Source);
  std::vector<uint8_t> Good = Source.snapshotState();

  StreamingCompactor Victim(Trace.FunctionCount);
  // Empty, truncated, and function-count-mismatched payloads must all be
  // rejected without changing the compactor.
  EXPECT_FALSE(Victim.restoreState({}));
  for (size_t Cut = 1; Cut + 1 < Good.size(); Cut += 3) {
    std::vector<uint8_t> Truncated(Good.begin(),
                                   Good.begin() + static_cast<long>(Cut));
    EXPECT_FALSE(Victim.restoreState(Truncated)) << "cut " << Cut;
  }
  StreamingCompactor WrongCount(Trace.FunctionCount + 1);
  EXPECT_FALSE(WrongCount.restoreState(Good));
  EXPECT_EQ(Victim.eventsConsumed(), 0u);
  EXPECT_TRUE(Victim.balanced());
  // A rejected restore leaves the compactor fully usable.
  EXPECT_TRUE(Victim.restoreState(Good));
  EXPECT_EQ(Victim.eventsConsumed(), Source.eventsConsumed());
}

TEST(JournalRecovery, CrashAtEveryEventIndex) {
  RawTrace Trace = fixtures::randomTrace(5, 5, 240);
  const size_t Events = Trace.Events.size();

  // One uninterrupted journaled run, checkpointing after every event.
  // The run is setup (the subject is the kill points below), so it is
  // shielded from any environment fault sweep.
  std::string JournalPath = uniqueTempPath("every_event.twppj");
  {
    fault::ScopedFaultSuspend SetupShield;
    StreamingConfig Config;
    Config.JournalPath = JournalPath;
    Config.CheckpointInterval = 1;
    StreamingCompactor Sink(Trace.FunctionCount, Config);
    replayEvents({Trace.Events.data(), Events}, Sink);
    EXPECT_EQ(Sink.checkpointsWritten(), Events);
    while (!Sink.balanced())
      Sink.onExit();
    (void)Sink.takeCompacted();
  }

  std::vector<uint8_t> Journal;
  {
    fault::ScopedFaultSuspend Shield;
    ASSERT_TRUE(readFileBytes(JournalPath, Journal).ok());
  }
  std::vector<size_t> Ends = readRecords(Journal).Ends;

  // Kill after every checkpointed event: the journal prefix ending at
  // record k is exactly what a crash right after event k+1's checkpoint
  // leaves behind. The recovered prefix must compact byte-identically to
  // an uninterrupted run over that prefix.
  for (size_t K = 0; K < Ends.size(); ++K) {
    std::string KillPath =
        uniqueTempPath("kill_" + std::to_string(K) + ".twppj");
    {
      fault::ScopedFaultSuspend Shield;
      std::vector<uint8_t> Prefix(Journal.begin(),
                                  Journal.begin() +
                                      static_cast<long>(Ends[K]));
      ASSERT_TRUE(writeFileBytes(KillPath, Prefix).ok());
    }
    std::string Error;
    std::unique_ptr<StreamingCompactor> Resumed =
        StreamingCompactor::resumeFromJournal(KillPath, StreamingConfig(),
                                              &Error);
    if (!Resumed) {
      // Only an injected fault may defeat resume — and then it must say
      // why, not crash.
      EXPECT_NE(fault::activeFaultSpec(), "") << Error;
      EXPECT_FALSE(Error.empty());
      std::remove(KillPath.c_str());
      continue;
    }
    size_t Recovered = static_cast<size_t>(Resumed->eventsConsumed());
    ASSERT_LE(Recovered, Events);
    while (!Resumed->balanced())
      Resumed->onExit();
    EXPECT_EQ(encodeArchive(Resumed->takeCompacted()),
              referenceArchive(Trace, Recovered))
        << "kill point " << K;
    std::remove(KillPath.c_str());
  }
  std::remove(JournalPath.c_str());
}

TEST(JournalRecovery, TornJournalAtAnyByteRecoversPriorCheckpoint) {
  RawTrace Trace = fixtures::randomTrace(9, 4, 160);
  std::string JournalPath = uniqueTempPath("torn_sweep.twppj");
  {
    fault::ScopedFaultSuspend SetupShield; // the cuts below are the subject
    StreamingConfig Config;
    Config.JournalPath = JournalPath;
    Config.CheckpointInterval = 8;
    StreamingCompactor Sink(Trace.FunctionCount, Config);
    replayEvents(Trace.Events, Sink);
    while (!Sink.balanced())
      Sink.onExit();
    (void)Sink.takeCompacted();
  }
  std::vector<uint8_t> Journal;
  {
    fault::ScopedFaultSuspend Shield;
    ASSERT_TRUE(readFileBytes(JournalPath, Journal).ok());
  }
  ASSERT_FALSE(Journal.empty());

  // Cut the journal at every 7th byte: resume must recover the last
  // checkpoint wholly contained in the prefix, or fail with a named
  // error when no complete record survives.
  for (size_t Cut = 0; Cut <= Journal.size(); Cut += 7) {
    std::string TornPath =
        uniqueTempPath("torn_" + std::to_string(Cut) + ".twppj");
    {
      fault::ScopedFaultSuspend Shield;
      std::vector<uint8_t> Prefix(Journal.begin(),
                                  Journal.begin() + static_cast<long>(Cut));
      ASSERT_TRUE(writeFileBytes(TornPath, Prefix).ok());
    }
    std::string Error;
    std::unique_ptr<StreamingCompactor> Resumed =
        StreamingCompactor::resumeFromJournal(TornPath, StreamingConfig(),
                                              &Error);
    if (!Resumed) {
      EXPECT_FALSE(Error.empty()) << "cut at " << Cut;
    } else {
      size_t Recovered = static_cast<size_t>(Resumed->eventsConsumed());
      while (!Resumed->balanced())
        Resumed->onExit();
      EXPECT_EQ(encodeArchive(Resumed->takeCompacted()),
                referenceArchive(Trace, Recovered))
          << "cut at " << Cut;
    }
    std::remove(TornPath.c_str());
  }
  std::remove(JournalPath.c_str());
}

TEST(JournalRecovery, ResumedJournalKeepsAppending) {
  RawTrace Trace = fixtures::randomTrace(31, 4, 200);
  size_t Half = Trace.Events.size() / 2;
  std::string JournalPath = uniqueTempPath("resume_append.twppj");
  {
    fault::ScopedFaultSuspend SetupShield; // the "crash" is the subject
    StreamingConfig Config;
    Config.JournalPath = JournalPath;
    Config.CheckpointInterval = 4;
    StreamingCompactor Sink(Trace.FunctionCount, Config);
    replayEvents({Trace.Events.data(), Half}, Sink);
  } // "crash": destructor closes the journal mid-run

  StreamingConfig ResumeConfig;
  ResumeConfig.CheckpointInterval = 4;
  std::string Error;
  std::unique_ptr<StreamingCompactor> Resumed =
      StreamingCompactor::resumeFromJournal(JournalPath, ResumeConfig,
                                            &Error);
  if (!Resumed) {
    EXPECT_NE(fault::activeFaultSpec(), "") << Error;
    return;
  }
  uint64_t RecordsBefore = 0;
  {
    fault::ScopedFaultSuspend Shield;
    std::vector<uint8_t> Journal;
    ASSERT_TRUE(readFileBytes(JournalPath, Journal).ok());
    RecordsBefore = scanJournal(Journal).ValidRecords;
  }
  size_t Recovered = static_cast<size_t>(Resumed->eventsConsumed());
  replayEvents(std::span(Trace.Events).subspan(Recovered), *Resumed);
  if (Resumed->lastJournalError().ok()) {
    fault::ScopedFaultSuspend Shield;
    std::vector<uint8_t> Journal;
    ASSERT_TRUE(readFileBytes(JournalPath, Journal).ok());
    // Resume keeps the old records and appends new checkpoints.
    EXPECT_GT(scanJournal(Journal).ValidRecords, RecordsBefore);
  }
  while (!Resumed->balanced())
    Resumed->onExit();
  EXPECT_EQ(encodeArchive(Resumed->takeCompacted()),
            referenceArchive(Trace, Trace.Events.size()));
  std::remove(JournalPath.c_str());
}

TEST(JournalRecovery, MemoryBudgetDegradesGracefully) {
  // A recursion-heavy trace under a tiny budget: open-frame detail must
  // be dropped (counted), never aborted on — and the result must still
  // pass the full archive verifier, anchors included. Built by hand so
  // deep frames are guaranteed to hold block detail when the budget
  // trips (a random trace can close frames before the budget matters).
  RawTrace Trace;
  Trace.FunctionCount = 3;
  for (uint32_t Depth = 0; Depth < 12; ++Depth) {
    Trace.Events.push_back(
        TraceEvent::enter(static_cast<FunctionId>(Depth % 3)));
    for (uint32_t B = 0; B < 8; ++B)
      Trace.Events.push_back(
          TraceEvent::block(static_cast<BlockId>(1 + (Depth + B) % 12)));
  }
  for (uint32_t Depth = 0; Depth < 12; ++Depth)
    Trace.Events.push_back(TraceEvent::exit());
  for (uint64_t Budget : {0, 64, 256, 1024}) {
    SCOPED_TRACE("budget " + std::to_string(Budget));
    StreamingConfig Config;
    Config.MemoryBudgetBytes = Budget;
    StreamingCompactor Sink(Trace.FunctionCount, Config);
    // An unbudgeted twin over the same events pins down what degradation
    // bought: the budget is enforced against trackedStateBytes, so the
    // budgeted compactor must hold strictly fewer tracked bytes and the
    // difference must be exactly the dropped block detail (degradation
    // removes block detail only, never frames or unique traces).
    StreamingCompactor Twin(Trace.FunctionCount);
    uint64_t TwinPeak = 0;
    for (size_t I = 0; I < Trace.Events.size(); ++I) {
      std::span<const TraceEvent> Event(&Trace.Events[I], 1);
      replayEvents(Event, Sink);
      replayEvents(Event, Twin);
      TwinPeak = std::max(TwinPeak, Twin.trackedStateBytes());
      // The incrementally maintained figure must be exactly what a
      // from-scratch recompute lands on, after every event: restoreState
      // rebuilds the count from the snapshot, so a restored twin's tracked
      // bytes must match.
      StreamingCompactor Restored(Trace.FunctionCount, Config);
      ASSERT_TRUE(Restored.restoreState(Sink.snapshotState()));
      ASSERT_EQ(Restored.trackedStateBytes(), Sink.trackedStateBytes())
          << "after event " << I;
    }
    // The budget trips exactly when the unbudgeted run exceeds it.
    bool Exceeded = Budget != 0 && TwinPeak > Budget;
    EXPECT_EQ(Sink.degradedFrames() > 0, Exceeded);
    EXPECT_EQ(Twin.degradedFrames(), 0u);
    if (Exceeded) {
      EXPECT_LT(Sink.trackedStateBytes(), Twin.trackedStateBytes());
      EXPECT_EQ((Twin.trackedStateBytes() - Sink.trackedStateBytes()) %
                    sizeof(BlockId),
                0u);
    } else {
      EXPECT_EQ(Sink.trackedStateBytes(), Twin.trackedStateBytes());
    }
    while (!Sink.balanced())
      Sink.onExit();
    std::vector<uint8_t> Bytes = encodeArchive(Sink.takeCompacted());
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(Bytes, Engine);
    EXPECT_TRUE(Engine.clean())
        << verify::renderDiagnosticsText(Engine);
  }
}

TEST(JournalRecovery, CheckpointCadenceIsExact) {
  // The checkpoint decision is a modulo on the event count: with interval
  // K an uninterrupted run writes exactly floor(events / K) records, the
  // r-th at event r*K. A resumed run carries the restored count on, so
  // the records it appends stay on the same multiples of K. IO faults
  // are not the subject here.
  fault::ScopedFaultSuspend Shield;
  RawTrace Trace = fixtures::randomTrace(41, 4, 300);
  const size_t Events = Trace.Events.size();
  for (uint64_t K : {3, 7}) {
    SCOPED_TRACE("interval " + std::to_string(K));
    std::string JournalPath =
        uniqueTempPath("cadence_" + std::to_string(K) + ".twppj");
    StreamingConfig Config;
    Config.JournalPath = JournalPath;
    Config.CheckpointInterval = K;
    {
      StreamingCompactor Sink(Trace.FunctionCount, Config);
      replayEvents(Trace.Events, Sink);
      EXPECT_EQ(Sink.checkpointsWritten(), Events / K);
    }
    std::vector<uint8_t> Journal;
    ASSERT_TRUE(readFileBytes(JournalPath, Journal).ok());
    std::vector<uint64_t> Counts = readRecords(Journal).EventCounts;
    ASSERT_EQ(Counts.size(), Events / K);
    for (size_t R = 0; R < Counts.size(); ++R)
      EXPECT_EQ(Counts[R], (R + 1) * K) << "record " << R;

    // Crash halfway (the journal is rewritten from scratch), resume with
    // the same interval, and finish the trace.
    {
      StreamingCompactor Sink(Trace.FunctionCount, Config);
      replayEvents({Trace.Events.data(), Events / 2}, Sink);
    }
    StreamingConfig ResumeConfig;
    ResumeConfig.CheckpointInterval = K;
    std::string Error;
    std::unique_ptr<StreamingCompactor> Resumed =
        StreamingCompactor::resumeFromJournal(JournalPath, ResumeConfig,
                                              &Error);
    ASSERT_NE(Resumed, nullptr) << Error;
    size_t Recovered = static_cast<size_t>(Resumed->eventsConsumed());
    EXPECT_EQ(Recovered % K, 0u);
    replayEvents(std::span(Trace.Events).subspan(Recovered), *Resumed);
    Resumed.reset();
    ASSERT_TRUE(readFileBytes(JournalPath, Journal).ok());
    Counts = readRecords(Journal).EventCounts;
    ASSERT_EQ(Counts.size(), Events / K);
    for (size_t R = 0; R < Counts.size(); ++R)
      EXPECT_EQ(Counts[R], (R + 1) * K) << "record " << R;
    std::remove(JournalPath.c_str());
  }
}

/// Turns memory tracking on for a scope, restoring the process-global
/// flag afterwards.
struct ScopedMemTracking {
  bool Was = obs::memTrackingEnabled();
  ScopedMemTracking() { obs::setMemTrackingEnabled(true); }
  ~ScopedMemTracking() { obs::setMemTrackingEnabled(Was); }
};

TEST(JournalRecovery, TrackedStateBytesMirrorsGlobalTag) {
  // With tracking enabled, the compactor publishes its instance ledger
  // into the global stream.state tag every PublishInterval events and at
  // checkpoint, restore and destruction, so the mem.live_bytes/stream.state
  // track describes the bytes trackedStateBytes() reports. Between publish
  // points the tag lags by at most the bytes the unpublished events moved.
  ScopedMemTracking Tracking;
  obs::MemAccount &Tag =
      obs::memTracker().account(obs::memtags::StreamState);
  const int64_t Before = Tag.liveBytes();
  const uint64_t Interval = StreamingCompactor::PublishInterval;
  RawTrace Trace = fixtures::nestedCallTrace(1200);
  ASSERT_GT(Trace.Events.size(), 2 * Interval);
  std::string JournalPath = uniqueTempPath("mirror.twppj");
  StreamingConfig Config;
  Config.JournalPath = JournalPath;
  {
    StreamingCompactor Sink(Trace.FunctionCount, Config);
    auto Lag = [&] {
      return Tag.liveBytes() - Before -
             static_cast<int64_t>(Sink.trackedStateBytes());
    };
    uint64_t Moved = 0; // |state change| since the last publish point
    uint64_t Publishes = 0;
    for (size_t I = 0; I < Trace.Events.size(); ++I) {
      uint64_t Prior = Sink.trackedStateBytes();
      replayEvents({&Trace.Events[I], 1}, Sink);
      uint64_t Now = Sink.trackedStateBytes();
      Moved += Now > Prior ? Now - Prior : Prior - Now;
      if (Sink.eventsConsumed() % Interval == 0) {
        ASSERT_EQ(Lag(), 0) << "at publish point, event " << I;
        Moved = 0;
        ++Publishes;
      } else {
        ASSERT_LE(static_cast<uint64_t>(std::abs(Lag())), Moved)
            << "after event " << I;
      }
      if (I == Interval + Interval / 2) {
        ASSERT_TRUE(Sink.checkpointNow().ok());
        EXPECT_EQ(Lag(), 0) << "after checkpointNow";
        Moved = 0;
      }
    }
    EXPECT_GE(Publishes, 2u);

    // restoreState publishes the recomputed count: the tag holds both
    // compactors' bytes exactly once the original has published too.
    ASSERT_TRUE(Sink.checkpointNow().ok());
    {
      StreamingCompactor Restored(Trace.FunctionCount);
      ASSERT_TRUE(Restored.restoreState(Sink.snapshotState()));
      EXPECT_EQ(Tag.liveBytes() - Before,
                static_cast<int64_t>(Sink.trackedStateBytes() +
                                     Restored.trackedStateBytes()));
    }
    EXPECT_EQ(Lag(), 0) << "after the restored twin's destruction";
    (void)Sink.takeCompacted();
    EXPECT_EQ(Tag.liveBytes(), Before) << "after takeCompacted";
  }
  // Destruction releases every mirrored byte.
  EXPECT_EQ(Tag.liveBytes(), Before);
  std::remove(JournalPath.c_str());
}

TEST(JournalRecovery, MirrorReleasedWhenTrackingSwitchedOffMidStream) {
  // Published bytes are released at destruction whether or not tracking
  // is still on, so switching it off mid-stream leaks nothing. The events
  // after the switch stop short of the next publish point, so the release
  // is the destructor's.
  ScopedMemTracking Tracking;
  obs::MemAccount &Tag =
      obs::memTracker().account(obs::memtags::StreamState);
  const int64_t Before = Tag.liveBytes();
  RawTrace Trace = fixtures::nestedCallTrace(600);
  const size_t Interval = StreamingCompactor::PublishInterval;
  ASSERT_GT(Trace.Events.size(), Interval + 200);
  {
    StreamingCompactor Sink(Trace.FunctionCount);
    replayEvents({Trace.Events.data(), Interval + 17}, Sink);
    EXPECT_GT(Tag.liveBytes(), Before);
    obs::setMemTrackingEnabled(false);
    replayEvents({Trace.Events.data() + Interval + 17, 100}, Sink);
  }
  EXPECT_EQ(Tag.liveBytes(), Before);
}

TEST(JournalRecovery, UnwritableJournalDegradesNotAborts) {
  RawTrace Trace = fixtures::randomTrace(55, 4, 120);
  StreamingConfig Config;
  Config.JournalPath =
      uniqueTempPath("no_such_dir") + "/nested/impossible.twppj";
  Config.CheckpointInterval = 1;
  StreamingCompactor Sink(Trace.FunctionCount, Config);
  EXPECT_FALSE(Sink.lastJournalError().ok());
  // Journaling is disabled, compaction is not.
  replayEvents(Trace.Events, Sink);
  EXPECT_EQ(Sink.checkpointsWritten(), 0u);
  while (!Sink.balanced())
    Sink.onExit();
  EXPECT_EQ(encodeArchive(Sink.takeCompacted()),
            referenceArchive(Trace, Trace.Events.size()));
}

TEST(JournalRecovery, ResumeFromMissingOrEmptyJournalFails) {
  std::string Error;
  EXPECT_EQ(StreamingCompactor::resumeFromJournal(
                uniqueTempPath("does_not_exist.twppj"), StreamingConfig(),
                &Error),
            nullptr);
  EXPECT_FALSE(Error.empty());

  std::string EmptyPath = uniqueTempPath("empty.twppj");
  {
    fault::ScopedFaultSuspend Shield;
    ASSERT_TRUE(writeFileBytes(EmptyPath, {}).ok());
  }
  Error.clear();
  EXPECT_EQ(StreamingCompactor::resumeFromJournal(
                EmptyPath, StreamingConfig(), &Error),
            nullptr);
  EXPECT_FALSE(Error.empty());
  std::remove(EmptyPath.c_str());
}

TEST(JournalRecovery, VersionOneJournalDoesNotResume) {
  // Version 1 framed records as fixed32 magic, fixed32 version, fixed64
  // length, crc32(payload). A journal written that way holds a perfectly
  // good snapshot, but its records are not v2 frames: resume must say so
  // instead of guessing (the run is redone from scratch).
  RawTrace Trace = fixtures::randomTrace(13, 4, 120);
  StreamingCompactor Source(Trace.FunctionCount);
  replayEvents({Trace.Events.data(), Trace.Events.size() / 2}, Source);
  std::vector<uint8_t> Snapshot = Source.snapshotState();
  ByteWriter V1;
  V1.writeFixed32(JournalMagic);
  V1.writeFixed32(1);
  V1.writeFixed64(Snapshot.size());
  V1.writeFixed32(crc32(Snapshot.data(), Snapshot.size()));
  V1.writeBytes(Snapshot.data(), Snapshot.size());

  std::string Path = uniqueTempPath("v1.twppj");
  {
    fault::ScopedFaultSuspend Shield;
    ASSERT_TRUE(writeFileBytes(Path, V1.bytes()).ok());
  }
  std::string Error;
  EXPECT_EQ(StreamingCompactor::resumeFromJournal(Path, StreamingConfig(),
                                                  &Error),
            nullptr);
  if (fault::activeFaultSpec().empty())
    EXPECT_EQ(Error, "journal holds no valid checkpoint: " + Path);
  else
    EXPECT_FALSE(Error.empty());
  std::remove(Path.c_str());
}

} // namespace
