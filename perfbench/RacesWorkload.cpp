//===- perfbench/RacesWorkload.cpp - races-concurrent ---------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Thread-aware archives and the race detector. One client loops over the
// six concurrentProfiles() traces; per profile it compacts the trace
// (compactConcurrentWpp), writes the version-2 archive durably, then opens
// it, reads the THRD/HBEG/ACCS trailer (readConcurrency) and runs
// detectRacesCompacted. The archive and timestamp-set layers are used
// differently here than on the paper workloads: a section trailer instead
// of function blocks, and countInRange/firstAtLeast range sweeps instead
// of series expansion. It is also the only workload that measures races/.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "races/RaceDetect.h"
#include "support/FileIO.h"
#include "wpp/Archive.h"
#include "wpp/Concurrent.h"

#include <filesystem>

using namespace twpp;
using namespace twpp::races;

namespace perfbench {
namespace {

struct RacesSetup {
  std::vector<ConcurrentInput> Inputs;
  /// detectRacesOracle on the in-memory compaction, per input.
  std::vector<RaceReport> Oracle;
  double GenerateS = 0;
};

RacesSetup buildSetup(uint64_t Seed) {
  RacesSetup S;
  uint64_t Start = nowNs();
  S.Inputs = concurrentInputs(Seed);
  S.GenerateS = secondsSince(Start);
  for (const ConcurrentInput &In : S.Inputs)
    S.Oracle.push_back(detectRacesOracle(compactConcurrentWpp(In.Trace).Conc));
  return S;
}

struct RacesTally {
  explicit RacesTally(size_t Profiles)
      : DurableUs(Profiles), VerdictUs(Profiles) {}

  uint64_t Cycles = 0;
  uint64_t Events = 0;
  uint64_t ArchiveBytes = 0;
  /// Per profile: compact + durable write of its archive.
  std::vector<Samples> DurableUs;
  /// Per profile: open + readConcurrency + detectRacesCompacted.
  std::vector<Samples> VerdictUs;
  /// Per cycle: the six verdicts together.
  Samples CycleVerdictUs;
  /// Everything runOne timed, for the traced run's per-cycle time.
  double BusyUs = 0;
  double CycleReadUs = 0;

  /// The sum over profiles of each profile's median: a cycle in which
  /// every profile takes its typical time. Robust to a stall (a slow
  /// fsync, a preempted slice) as long as it hits fewer than half of one
  /// profile's samples, whereas the median of whole cycles of six durable
  /// writes holds a stall once one write in eight stalls.
  static double typicalCycle(const std::vector<Samples> &PerProfile) {
    double Total = 0;
    for (const Samples &S : PerProfile)
      Total += S.quantile(0.5);
    return Total;
  }
};

/// Checks a verdict: same as the oracle, racy exactly when races were
/// injected.
void checkVerdict(const ConcurrentInput &In, const RaceReport &Oracle,
                  const RaceReport &Report, const char *Stage, Outcome &Out) {
  if (!sameVerdict(Report, Oracle))
    Out.fail(std::string(Stage) + ": " + In.Profile.Name +
             " verdict differs from detectRacesOracle");
  else if (Report.racy() != In.Profile.InjectRaces)
    Out.fail(std::string(Stage) + ": " + In.Profile.Name +
             (Report.racy() ? " reported races none were injected"
                            : " missed the injected races"));
}

/// One profile: compact + durable write, then open + read + detect.
void runOne(const RacesSetup &S, size_t Index, const std::string &Path,
            Tracer *T, int64_t Request, Outcome &Out, RacesTally &Tally) {
  const ConcurrentInput &In = S.Inputs[Index];
  ++Out.Attempted;
  uint64_t Start = nowNs();
  bool Written = false;
  {
    Tracer::Span Op(T, "op.compact_write", Request);
    ConcurrentWpp Wpp = compactConcurrentWpp(In.Trace);
    Written = writeConcurrentArchiveFile(Path, Wpp);
  }
  uint64_t Durable = nowNs();
  ConcurrencyInfo Conc;
  RaceReport Report;
  bool Read = false;
  {
    Tracer::Span Op(T, "op.verdict", Request);
    ArchiveReader Reader;
    Read = Written && Reader.open(Path) && Reader.readConcurrency(Conc);
    if (Read)
      Report = detectRacesCompacted(Conc);
  }
  uint64_t End = nowNs();
  if (!Written || !Read) {
    Out.fail("races: " + In.Profile.Name +
             (Written ? " archive could not be read back"
                      : " archive could not be written"));
    return;
  }
  checkVerdict(In, S.Oracle[Index], Report, "races", Out);
  Tally.Events += In.Events;
  Tally.ArchiveBytes += std::filesystem::file_size(Path);
  double DurableUs = static_cast<double>(Durable - Start) / 1000.0;
  double VerdictUs = static_cast<double>(End - Durable) / 1000.0;
  Tally.DurableUs[Index].add(DurableUs);
  Tally.VerdictUs[Index].add(VerdictUs);
  Tally.BusyUs += DurableUs + VerdictUs;
  Tally.CycleReadUs += VerdictUs;
}

/// Whole cycles over the six profiles for at least \p Seconds.
RacesTally runCycles(const RacesSetup &S, const std::string &Path,
                     double Seconds, Tracer *T, Outcome &Out) {
  RacesTally Tally(S.Inputs.size());
  uint64_t StartNs = nowNs();
  do {
    Tally.CycleReadUs = 0;
    for (size_t I = 0; I < S.Inputs.size(); ++I)
      runOne(S, I, Path, T,
             static_cast<int64_t>(Tally.Cycles * S.Inputs.size() + I), Out,
             Tally);
    if (Tally.CycleReadUs > 0)
      Tally.CycleVerdictUs.add(Tally.CycleReadUs);
    ++Tally.Cycles;
  } while (secondsSince(StartNs) < Seconds);
  return Tally;
}

struct Replay {
  uint64_t Events = 0;
  uint64_t SegmentPairs = 0;
  double CompactedS = 0;
  double OracleS = 0;
};

/// One pass over the profiles, one layer call at a time, each in a span.
/// The decompress-and-check oracle is timed alongside (outside the
/// ledger) for races.oracle_speedup.
Replay replayLayers(const RacesSetup &S, const ScratchDir &Dir, Tracer &T,
                    Outcome &Out) {
  Replay R;
  std::string Path = Dir.file("replay.twppa");
  for (size_t I = 0; I < S.Inputs.size(); ++I) {
    const ConcurrentInput &In = S.Inputs[I];
    R.Events += In.Events;
    Tracer::Span Request(&T, "races.replay", static_cast<int64_t>(I));
    ConcurrentWpp Wpp;
    {
      Tracer::Span L(&T, "wpp.concurrent.compact");
      Wpp = compactConcurrentWpp(In.Trace);
      L.items(In.Events);
    }
    std::vector<uint8_t> Bytes;
    {
      Tracer::Span L(&T, "wpp.encode_v2");
      Bytes = encodeConcurrentArchive(Wpp);
      L.items(In.Events);
      L.bytes(0, Bytes.size());
    }
    bool Ok = true;
    {
      Tracer::Span L(&T, "support.fileio.write");
      Ok = writeFileBytesAtomic(Path, Bytes).ok();
      L.bytes(Bytes.size(), 0);
    }
    ArchiveReader Reader;
    {
      Tracer::Span L(&T, "wpp.read.open");
      Ok = Ok && Reader.open(Path);
    }
    ConcurrencyInfo Conc;
    {
      Tracer::Span L(&T, "wpp.read.concurrency");
      Ok = Ok && Reader.readConcurrency(Conc);
    }
    RaceReport Report;
    uint64_t DetectStart = nowNs();
    {
      Tracer::Span L(&T, "races.detect");
      Report = detectRacesCompacted(Conc);
    }
    R.CompactedS += secondsSince(DetectStart);
    R.SegmentPairs += Report.Stats.SegmentPairs;
    if (!Ok) {
      Out.fail("replay: " + In.Profile.Name + " archive round trip failed");
      continue;
    }
    checkVerdict(In, S.Oracle[I], Report, "replay", Out);
    uint64_t OracleStart = nowNs();
    RaceReport Oracle = detectRacesOracle(Conc);
    R.OracleS += secondsSince(OracleStart);
    checkVerdict(In, Oracle, Report, "replay oracle", Out);
  }
  return R;
}

/// Ledger layers of the concurrent path, in path order.
const std::vector<const char *> RaceLayers = {
    "wpp.concurrent.compact", "wpp.encode_v2",        "support.fileio.write",
    "wpp.read.open",          "wpp.read.concurrency", "races.detect"};

} // namespace

Outcome runRaces(const Options &Opts) {
  Outcome Out;
  ScratchDir Dir(Opts.ScratchRoot);
  if (!Dir.ok()) {
    Out.fail("races: cannot create a scratch directory under " +
             Opts.ScratchRoot);
    return Out;
  }
  std::string Path = Dir.file("races.twppa");

  RacesSetup S;
  double SetupS = timedSetup(Opts, [&] {
    S = RacesSetup();
    S = buildSetup(Opts.Seed);
  });
  uint64_t CycleEvents = 0;
  for (const ConcurrentInput &In : S.Inputs)
    CycleEvents += In.Events;
  Out.detail("setup.input_events", "count", static_cast<double>(CycleEvents));
  Out.detail("workloads.generate_s", "s", S.GenerateS);

  // Warm-up: half a second of cycles; figures discarded.
  {
    Outcome Warm;
    runCycles(S, Path, 0.5, nullptr, Warm);
    for (const std::string &E : Warm.Errors)
      Out.fail("warm-up: " + E);
  }

  beginMeasuredPhase(Out);

  if (!Opts.Trace) {
    RacesTally Tally = runCycles(S, Path, Opts.Seconds, nullptr, Out);
    double DurableUs = RacesTally::typicalCycle(Tally.DurableUs);
    size_t N = S.Inputs.size() * Tally.Cycles;
    Out.metric("setup_s", "s", SetupS, setupReps(Opts));
    Out.metric("events_per_s", "1/s",
               DurableUs > 0 ? static_cast<double>(CycleEvents) * 1e6 /
                                   DurableUs
                             : 0,
               N);
    Out.metric("latency_us_p50", "us",
               RacesTally::typicalCycle(Tally.VerdictUs), N);
    // A few hundred cycles in a run: p90 has tens of cycles beyond it.
    Out.metric("latency_us_tail", "us", Tally.CycleVerdictUs.quantile(0.9),
               Tally.CycleVerdictUs.count());
    Out.metric("archive_bytes_per_event", "B/event",
               Tally.Events ? static_cast<double>(Tally.ArchiveBytes) /
                                  static_cast<double>(Tally.Events)
                            : 0,
               N);
    Out.metric("peak_rss_mb", "MB", peakRssMb());
    Out.detail("latency_tail_quantile", "ratio", 0.9,
               Tally.CycleVerdictUs.count());
    Out.detail("cycles", "count", static_cast<double>(Tally.Cycles));
    Samples Verdicts, Durables;
    for (size_t I = 0; I < S.Inputs.size(); ++I) {
      Verdicts.add(Tally.VerdictUs[I]);
      Durables.add(Tally.DurableUs[I]);
    }
    Out.detail("verdict_us_p50", "us", Verdicts.quantile(0.50), N);
    Out.detail("verdict_us_p99", "us", Verdicts.quantile(0.99), N);
    Out.detail("durable_us_p50", "us", Durables.quantile(0.50), N);
    Out.detail("durable_us_p99", "us", Durables.quantile(0.99), N);
    return Out;
  }

  RacesTally Plain = runCycles(S, Path, Opts.Seconds / 2, nullptr, Out);
  Tracer T;
  RacesTally Traced = runCycles(S, Path, Opts.Seconds / 2, &T, Out);
  double PlainCycleS =
      Plain.BusyUs * 1e-6 / static_cast<double>(Plain.Cycles);
  double TracedCycleS =
      Traced.BusyUs * 1e-6 / static_cast<double>(Traced.Cycles);

  Replay R = replayLayers(S, Dir, T, Out);
  // The replay is one cycle.
  reportTrace(Out, T, Opts, RaceLayers, PlainCycleS * 1e9, PlainCycleS,
              TracedCycleS, Traced.Cycles, S.GenerateS);
  double E = static_cast<double>(R.Events);
  size_t N = S.Inputs.size();
  Out.metric("wpp.concurrent.compact_ns_per_event", "ns/event",
             static_cast<double>(T.totals("wpp.concurrent.compact").SelfNs) / E,
             N);
  Out.metric("wpp.encode_v2.ns_per_event", "ns/event",
             static_cast<double>(T.totals("wpp.encode_v2").SelfNs) / E, N);
  Out.metric("wpp.read.concurrency_us", "us",
             T.totals("wpp.read.concurrency").selfUsPerCall(), N);
  Out.metric("races.detect_us", "us", T.totals("races.detect").selfUsPerCall(),
             N);
  Out.metric("races.segment_pairs", "count",
             static_cast<double>(R.SegmentPairs), N);
  Out.metric("races.oracle_speedup", "ratio",
             R.CompactedS > 0 ? R.OracleS / R.CompactedS : 0, N);
  Out.detail("e2e.cycle_s", "s", PlainCycleS, Plain.Cycles);
  Out.detail("e2e.traced_cycle_s", "s", TracedCycleS, Traced.Cycles);
  return Out;
}

} // namespace perfbench
