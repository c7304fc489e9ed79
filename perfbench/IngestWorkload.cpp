//===- perfbench/IngestWorkload.cpp - ingest-paper / ingest-observed ------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// The write path. Each round is one IngestServer run with Block
// backpressure that writes one durable archive per trace. The five paper
// traces are dealt round-robin to generatorThreads() producers; each
// producer owns one socketpair and streams its traces one after another,
// one producer id per trace. It is a closed loop: a producer stalls when
// its socket fills, as a traced program would. Every round carries every
// trace once, so rounds are alike and their median is meaningful.
//
// ingest-observed is the same workload with the program's metrics and
// memory tracking switched on for the whole process (flight-recorder
// tracing stays off): it prices the obs/ layer, and ingest-paper is its
// no-change control.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ingest/Ingest.h"
#include "ingest/Producer.h"
#include "ingest/Wire.h"
#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "support/FileIO.h"
#include "support/LZW.h"
#include "wpp/Archive.h"
#include "wpp/DynamicCallGraph.h"
#include "wpp/Streaming.h"
#include "wpp/Twpp.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace twpp;
using namespace twpp::ingest;

namespace perfbench {
namespace {

/// Events per Events frame, the producer default (ProducerOptions).
constexpr size_t BatchEvents = 4096;

struct IngestSetup {
  std::vector<PaperInput> Inputs;
  /// encodeArchive(compactWpp(trace)) per input: the archive bytes every
  /// ingested stream must reproduce exactly.
  std::vector<std::vector<uint8_t>> Oracle;
  double GenerateS = 0;
};

IngestSetup buildSetup(uint64_t Seed) {
  IngestSetup S;
  uint64_t Start = nowNs();
  S.Inputs = paperInputs(Seed);
  S.GenerateS = secondsSince(Start);
  for (const PaperInput &In : S.Inputs)
    S.Oracle.push_back(encodeArchive(compactWpp(In.Trace)));
  return S;
}

/// Accumulated figures of the measured rounds.
struct RoundTally {
  uint64_t Rounds = 0;
  uint64_t Events = 0;
  uint64_t ArchiveBytes = 0;
  /// Per round: events applied / wall time from the first frame sent to
  /// the last archive durable.
  Samples EventsPerS;
  /// Per round: last producer's send returned -> IngestServer::run()
  /// returned.
  Samples DrainUs;
  uint64_t BackpressureWaits = 0;
  uint64_t QueueDepthPeak = 0;
};

/// Which traces each producer streams in a round, in order: the traces
/// dealt round-robin, so every round carries every trace once.
using Deal = std::vector<std::vector<size_t>>;

Deal dealAll(size_t Traces) {
  Deal D(std::min<size_t>(generatorThreads(), Traces));
  for (size_t I = 0; I < Traces; ++I)
    D[I % D.size()].push_back(I);
  return D;
}

/// Runs one round and checks every archive it wrote against the oracle.
/// Each producer thread owns one connection and streams its traces one
/// after another, each as its own producer id (the trace index).
void runRound(const IngestSetup &S, const Deal &D, const std::string &Prefix,
              Tracer *T, int64_t Request, Outcome &Out, RoundTally &Tally) {
  IngestConfig Config;
  Config.OutPrefix = Prefix;
  Config.Policy = BackpressurePolicy::Block;
  IngestServer Server(Config);

  std::vector<size_t> Streams;
  for (const std::vector<size_t> &Traces : D)
    Streams.insert(Streams.end(), Traces.begin(), Traces.end());
  std::vector<int> WriteFds;
  for (size_t I = 0; I < D.size(); ++I) {
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0) {
      Out.Attempted += Streams.size();
      for (size_t J = 0; J < Streams.size(); ++J)
        Out.fail("ingest: socketpair failed");
      for (int Fd : WriteFds)
        ::close(Fd);
      return;
    }
    Server.addConnection(Sv[0]);
    WriteFds.push_back(Sv[1]);
  }

  std::vector<uint64_t> SendDoneNs(D.size(), 0);
  std::vector<char> SendOk(S.Inputs.size(), 0);
  std::vector<std::thread> Producers;
  uint64_t StartNs = nowNs();
  for (size_t I = 0; I < D.size(); ++I)
    Producers.emplace_back([&, I] {
      for (size_t Trace : D[I]) {
        const RawTrace &Events = S.Inputs[Trace].Trace;
        Tracer::Span Send(T, "ingest.producer.send", Request);
        Send.items(eventCount(Events));
        ProducerOptions Options;
        Options.ProducerId = static_cast<uint32_t>(Trace);
        Options.BatchEvents = BatchEvents;
        SendOk[Trace] = sendTraceOverFd(WriteFds[I], Events, Options);
      }
      SendDoneNs[I] = nowNs();
      ::close(WriteFds[I]);
    });
  IngestReport Report;
  {
    Tracer::Span Run(T, "ingest.server.run", Request);
    Report = Server.run();
  }
  uint64_t EndNs = nowNs();
  for (std::thread &Producer : Producers)
    Producer.join();

  uint64_t LastSendNs = *std::max_element(SendDoneNs.begin(), SendDoneNs.end());
  double WallS = static_cast<double>(EndNs - StartNs) * 1e-9;
  ++Tally.Rounds;
  Tally.EventsPerS.add(static_cast<double>(Report.EventsApplied) / WallS);
  Tally.DrainUs.add(static_cast<double>(EndNs - LastSendNs) / 1000.0);
  Tally.Events += Report.EventsApplied;
  Tally.BackpressureWaits += Report.BackpressureWaits;
  Tally.QueueDepthPeak = std::max(Tally.QueueDepthPeak, Report.QueueDepthPeak);

  // Correctness, outside the timed interval.
  if (!Report.FatalError.empty())
    Out.fail("ingest: server setup failed: " + Report.FatalError);
  for (size_t Trace : Streams) {
    ++Out.Attempted;
    const std::string &Name = S.Inputs[Trace].Name;
    const ProducerReport *P = nullptr;
    for (const ProducerReport &Candidate : Report.Producers)
      if (Candidate.ProducerId == Trace)
        P = &Candidate;
    if (!SendOk[Trace] || !P) {
      Out.fail("ingest: producer " + Name + " did not complete its stream");
      continue;
    }
    if (!P->lossless()) {
      Out.fail("ingest: producer " + Name + " was not lossless");
      continue;
    }
    std::vector<uint8_t> Bytes;
    IoError Err = readFileBytes(P->ArchivePath, Bytes);
    std::error_code Ec;
    std::filesystem::remove(P->ArchivePath, Ec);
    if (!Err.ok()) {
      Out.fail("ingest: archive of " + Name + " unreadable: " + Err.message());
      continue;
    }
    if (Bytes != S.Oracle[Trace]) {
      Out.fail("ingest: archive of " + Name +
               " differs from encodeArchive(compactWpp(trace))");
      continue;
    }
    Tally.ArchiveBytes += Bytes.size();
  }
}

/// Runs rounds for at least \p Seconds.
RoundTally runRounds(const IngestSetup &S, double Seconds,
                     const std::string &Prefix, Tracer *T, Outcome &Out) {
  Deal D = dealAll(S.Inputs.size());
  RoundTally Tally;
  uint64_t StartNs = nowNs();
  for (int64_t Round = 0; Round == 0 || secondsSince(StartNs) < Seconds;
       ++Round)
    runRound(S, D, Prefix, T, Round, Out, Tally);
  return Tally;
}

/// Wire bytes of one whole stream: Hello, Events batches, Bye.
std::vector<uint8_t> encodeStream(const RawTrace &Trace) {
  std::vector<uint8_t> Wire;
  uint64_t Seq = 0;
  appendWireFrame(Wire, 0, Seq++, encodeHelloPayload(Trace.FunctionCount));
  const TraceEvent *Begin = Trace.Events.data();
  size_t N = Trace.Events.size();
  for (size_t I = 0; I < N; I += BatchEvents)
    appendWireFrame(Wire, 0, Seq++,
                    encodeEventsPayload(Begin + I,
                                        Begin + std::min(N, I + BatchEvents)));
  appendWireFrame(Wire, 0, Seq++, encodeByePayload(N));
  return Wire;
}

/// Layer totals of one replay over every input.
struct Replay {
  uint64_t Events = 0;
  uint64_t WireBytes = 0;
  uint64_t Calls = 0;
  uint64_t UniqueTraces = 0;
  double LzwS = 0;
  uint64_t LzwIn = 0;
  uint64_t LzwOut = 0;
};

/// The write path one layer call at a time on this thread, each call in
/// its own span: wire encode, wire decode, partition, DBB, TWPP, archive
/// encode, durable write. LZW is timed as a separate probe (it runs
/// inside encodeArchive, so it is not a ledger row of its own).
Replay replayLayers(const IngestSetup &S, const ScratchDir &Dir, Tracer &T,
                    Outcome &Out) {
  Replay R;
  for (size_t I = 0; I < S.Inputs.size(); ++I) {
    const RawTrace &Trace = S.Inputs[I].Trace;
    uint64_t Events = eventCount(Trace);
    R.Events += Events;
    Tracer::Span Request(&T, "ingest.replay", static_cast<int64_t>(I));

    std::vector<uint8_t> Wire;
    {
      Tracer::Span L(&T, "ingest.wire_encode");
      Wire = encodeStream(Trace);
      L.items(Events);
      L.bytes(Events * sizeof(TraceEvent), Wire.size());
    }
    R.WireBytes += Wire.size();

    std::vector<TraceEvent> Decoded;
    {
      Tracer::Span L(&T, "ingest.wire_decode");
      FrameDecoder Decoder;
      WireFrame Frame;
      WirePayload Payload;
      constexpr size_t Chunk = 64 * 1024;
      for (size_t Pos = 0; Pos < Wire.size(); Pos += Chunk) {
        Decoder.feed(Wire.data() + Pos, std::min(Chunk, Wire.size() - Pos));
        while (Decoder.next(Frame))
          if (decodeWirePayload(ByteSpan(Frame.Payload), Payload) &&
              Payload.Kind == WireFrameKind::Events)
            Decoded.insert(Decoded.end(), Payload.Events.begin(),
                           Payload.Events.end());
      }
      L.items(Events);
      L.bytes(Wire.size(), Decoded.size() * sizeof(TraceEvent));
    }
    if (Decoded != Trace.Events)
      Out.fail("replay: wire round trip of " + S.Inputs[I].Name +
               " changed the events");

    PartitionedWpp Partitioned;
    {
      Tracer::Span L(&T, "wpp.partition");
      StreamingCompactor Compactor(Trace.FunctionCount);
      for (const TraceEvent &E : Decoded) {
        switch (E.EventKind) {
        case TraceEvent::Kind::Enter:
          Compactor.onEnter(E.Id);
          break;
        case TraceEvent::Kind::Block:
          Compactor.onBlock(E.Id);
          break;
        case TraceEvent::Kind::Exit:
          Compactor.onExit();
          break;
        }
      }
      Partitioned = Compactor.takePartitioned();
      L.items(Events);
    }
    for (const FunctionTraceTable &F : Partitioned.Functions) {
      R.Calls += F.CallCount;
      R.UniqueTraces += F.UniqueTraces.size();
    }
    std::vector<TraceEvent>().swap(Decoded);

    DbbWpp Dbb;
    {
      Tracer::Span L(&T, "wpp.dbb");
      Dbb = applyDbbCompaction(Partitioned);
      L.items(Events);
    }
    TwppWpp Twpp;
    {
      Tracer::Span L(&T, "wpp.twpp");
      Twpp = convertToTwpp(Dbb);
      L.items(Events);
    }
    std::vector<uint8_t> Archive;
    {
      Tracer::Span L(&T, "wpp.encode");
      Archive = encodeArchive(Twpp);
      L.items(Events);
      L.bytes(0, Archive.size());
    }
    {
      Tracer::Span L(&T, "support.fileio.write");
      IoError Err = writeFileBytesAtomic(Dir.file("replay.twppa"), Archive);
      L.items(Events);
      L.bytes(Archive.size(), 0);
      if (!Err.ok())
        Out.fail("replay: archive write failed: " + Err.message());
    }
    if (Archive != S.Oracle[I])
      Out.fail("replay: archive of " + S.Inputs[I].Name +
               " differs from the oracle");

    std::vector<uint8_t> DcgBytes = encodeDcg(Twpp.Dcg);
    uint64_t LzwStart = nowNs();
    std::vector<uint8_t> Compressed = lzwCompress(DcgBytes);
    R.LzwS += secondsSince(LzwStart);
    R.LzwIn += DcgBytes.size();
    R.LzwOut += Compressed.size();
  }
  return R;
}

/// Ledger layers of the write path, in path order.
const std::vector<const char *> WriteLayers = {
    "ingest.wire_encode", "ingest.wire_decode", "wpp.partition", "wpp.dbb",
    "wpp.twpp",           "wpp.encode",         "support.fileio.write"};

/// Short names the obs.tax.<layer> metrics use.
const std::pair<const char *, const char *> TaxLayers[] = {
    {"wire_decode", "ingest.wire_decode"},
    {"partition", "wpp.partition"},
    {"dbb", "wpp.dbb"},
    {"twpp", "wpp.twpp"},
    {"encode", "wpp.encode"}};

void setObservability(bool On) {
  obs::setMetricsEnabled(On);
  obs::setMemTrackingEnabled(On);
}

} // namespace

Outcome runIngest(const Options &Opts, bool Observed) {
  Outcome Out;

  ScratchDir Dir(Opts.ScratchRoot);
  if (!Dir.ok()) {
    Out.fail("ingest: cannot create a scratch directory under " +
             Opts.ScratchRoot);
    return Out;
  }
  std::string Prefix = Dir.file("ingest");

  IngestSetup S;
  double SetupS = timedSetup(Opts, [&] {
    S = IngestSetup();
    S = buildSetup(Opts.Seed);
  });
  uint64_t InputEvents = 0;
  for (const PaperInput &In : S.Inputs)
    InputEvents += eventCount(In.Trace);
  Out.detail("setup.input_events", "count", static_cast<double>(InputEvents));
  Out.detail("workloads.generate_s", "s", S.GenerateS);

  // Warm-up: one round of the smallest trace per producer brings up the
  // page cache, the allocator and the socket buffers; figures discarded.
  {
    std::vector<size_t> BySize(S.Inputs.size());
    std::iota(BySize.begin(), BySize.end(), 0);
    std::sort(BySize.begin(), BySize.end(), [&](size_t A, size_t B) {
      return eventCount(S.Inputs[A].Trace) < eventCount(S.Inputs[B].Trace);
    });
    Deal Warm(std::min<size_t>(generatorThreads(), S.Inputs.size()));
    for (size_t I = 0; I < Warm.size(); ++I)
      Warm[I].push_back(BySize[I]);
    Outcome Discard;
    RoundTally Ignored;
    runRound(S, Warm, Prefix, nullptr, 0, Discard, Ignored);
    for (const std::string &E : Discard.Errors)
      Out.fail("warm-up: " + E);
  }

  beginMeasuredPhase(Out);

  if (!Opts.Trace) {
    RoundTally Tally = runRounds(S, Opts.Seconds, Prefix, nullptr, Out);
    Out.metric("setup_s", "s", SetupS, setupReps(Opts));
    Out.metric("events_per_s", "1/s", Tally.EventsPerS.quantile(0.5),
               Tally.Rounds);
    // A run has about a dozen rounds, too few for any tail: the tail is
    // the median.
    reportLatency(Out, Tally.DrainUs, 0.5);
    Out.metric("archive_bytes_per_event", "B/event",
               Tally.Events ? static_cast<double>(Tally.ArchiveBytes) /
                                  static_cast<double>(Tally.Events)
                            : 0,
               Tally.Rounds);
    Out.metric("peak_rss_mb", "MB", peakRssMb());
    Out.detail("rounds", "count", static_cast<double>(Tally.Rounds));
    Out.detail("events", "count", static_cast<double>(Tally.Events));
    Out.detail("ingest.backpressure_waits", "count",
               static_cast<double>(Tally.BackpressureWaits));
    Out.detail("ingest.queue_depth_peak", "count",
               static_cast<double>(Tally.QueueDepthPeak));
    return Out;
  }

  // Traced run: untraced and traced passes of the same rounds, then the
  // layer-by-layer replay of the same inputs.
  RoundTally Plain = runRounds(S, Opts.Seconds / 2, Prefix, nullptr, Out);
  Tracer T;
  RoundTally Traced = runRounds(S, Opts.Seconds / 2, Prefix, &T, Out);
  double PlainNsPerEvent = 1e9 / Plain.EventsPerS.quantile(0.5);
  double TracedNsPerEvent = 1e9 / Traced.EventsPerS.quantile(0.5);

  std::map<std::string, Tracer::Totals> TaxBase;
  if (Observed) {
    // The same replay with observability off first: obs.tax.<layer> is
    // the ratio of the two, measured in one process.
    setObservability(false);
    Tracer Off;
    replayLayers(S, Dir, Off, Out);
    TaxBase = Off.allTotals();
    setObservability(true);
  }
  Replay R = replayLayers(S, Dir, T, Out);
  double E = static_cast<double>(R.Events);
  reportTrace(Out, T, Opts, WriteLayers, PlainNsPerEvent * E, PlainNsPerEvent,
              TracedNsPerEvent, Traced.Rounds, S.GenerateS);
  auto NsPerEvent = [&](const char *Layer) {
    return static_cast<double>(T.totals(Layer).SelfNs) / E;
  };
  uint64_t N = S.Inputs.size();
  Out.metric("ingest.wire_encode.ns_per_event", "ns/event",
             NsPerEvent("ingest.wire_encode"), N);
  Out.metric("ingest.wire_decode.ns_per_event", "ns/event",
             NsPerEvent("ingest.wire_decode"), N);
  Out.metric("ingest.wire.bytes_per_event", "B/event",
             static_cast<double>(R.WireBytes) / E, N);
  Out.metric("wpp.partition.ns_per_event", "ns/event",
             NsPerEvent("wpp.partition"), N);
  Out.metric("wpp.partition.unique_trace_ratio", "ratio",
             R.Calls ? static_cast<double>(R.UniqueTraces) /
                           static_cast<double>(R.Calls)
                     : 0,
             N);
  Out.metric("wpp.dbb.ns_per_event", "ns/event", NsPerEvent("wpp.dbb"), N);
  Out.metric("wpp.twpp.ns_per_event", "ns/event", NsPerEvent("wpp.twpp"), N);
  Out.metric("wpp.encode.ns_per_event", "ns/event", NsPerEvent("wpp.encode"),
             N);
  Out.metric("support.lzw.compress_mb_per_s", "MB/s",
             R.LzwS > 0 ? static_cast<double>(R.LzwIn) / 1e6 / R.LzwS : 0, N);
  Out.metric("support.lzw.ratio", "ratio",
             R.LzwOut ? static_cast<double>(R.LzwIn) /
                            static_cast<double>(R.LzwOut)
                      : 0,
             N);
  const Tracer::Totals &Write = T.totals("support.fileio.write");
  Out.metric("support.fileio.write_mb_per_s", "MB/s",
             Write.SelfNs ? static_cast<double>(Write.BytesIn) * 1e3 /
                                static_cast<double>(Write.SelfNs)
                          : 0,
             N);
  Out.metric("ingest.backpressure_waits", "count",
             static_cast<double>(Plain.BackpressureWaits), Plain.Rounds);
  Out.metric("ingest.queue_depth_peak", "count",
             static_cast<double>(Plain.QueueDepthPeak), Plain.Rounds);
  if (Observed)
    for (const auto &[Short, Layer] : TaxLayers) {
      double Base = static_cast<double>(TaxBase[Layer].SelfNs);
      Out.metric(std::string("obs.tax.") + Short, "ratio",
                 Base > 0 ? static_cast<double>(T.totals(Layer).SelfNs) / Base
                          : 0,
                 N);
    }
  Out.detail("e2e.ns_per_event", "ns/event", PlainNsPerEvent, Plain.Rounds);
  Out.detail("e2e.traced_ns_per_event", "ns/event", TracedNsPerEvent,
             Traced.Rounds);
  return Out;
}

} // namespace perfbench
