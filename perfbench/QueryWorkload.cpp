//===- perfbench/QueryWorkload.cpp - query-paper --------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// The read path. Setup compacts the five paper traces into archives; then
// one client runs a closed loop over a fixed seeded mix of queries:
//
//   extract   (most of the mix) a fresh ArchiveReader::open plus
//             extractFunctionPathTraces of one function picked with
//             probability proportional to its call count: the paper's
//             Table 4 standalone access case;
//   dcg       readDcg on a reader held open: LZW decode of the call graph;
//   dataflow  on a reader held open, extractFunction, buildAnnotatedCfg of
//             the function's most frequent trace and factFrequency of one
//             of its nodes under seeded GEN/KILL block effects.
//
// The write path does no timed work here, so a change that speeds
// encoding but slows decoding shows on this workload and not on ingest.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "dataflow/AnnotatedCfg.h"
#include "dataflow/Query.h"
#include "support/LZW.h"
#include "support/Random.h"
#include "wpp/Archive.h"
#include "wpp/DynamicCallGraph.h"
#include "wpp/Twpp.h"

#include <algorithm>
#include <filesystem>
#include <memory>

using namespace twpp;

namespace perfbench {
namespace {

/// Queries in one pass of the mix; the measured loop cycles over it.
constexpr size_t MixLength = 2048;
/// Exact query counts per pass: mostly extraction, fewer DCG reads and
/// dataflow queries. The proportions are assumed, not taken from measured
/// traffic. Exact counts (not per-query draws) keep every pass, and every
/// seed's mix, the same blend of work.
constexpr size_t ExtractCount = MixLength * 85 / 100;
constexpr size_t DcgCount = MixLength * 5 / 100;

enum class QueryKind : uint8_t { Extract, Dcg, Dataflow };
const char *const KindNames[] = {"extract", "dcg", "dataflow"};

struct Query {
  QueryKind Kind = QueryKind::Extract;
  uint32_t Archive = 0;
  FunctionId Function = 0;
  // Dataflow only: the trace analysed, the node asked about, the block
  // effects, and the oracle's answer.
  uint32_t TraceIndex = 0;
  BlockId Node = 0;
  std::vector<BlockEffect> Effects;
  uint64_t Holds = 0;
  uint64_t Total = 0;
};

struct ArchiveSet {
  std::string Path;
  TwppWpp Wpp;                                 ///< In-memory oracle.
  std::vector<FunctionPathTraces> Expanded;    ///< Per function oracle.
  std::vector<uint8_t> CompressedDcg;          ///< For the LZW probe.
  uint64_t Events = 0;
  uint64_t FileBytes = 0;
};

struct QuerySetup {
  std::vector<ArchiveSet> Archives;
  std::vector<Query> Mix;
  double GenerateS = 0;
};

EffectFn effectOf(const Query &Q) {
  const std::vector<BlockEffect> *Effects = &Q.Effects;
  return [Effects](BlockId B) {
    return B < Effects->size() ? (*Effects)[B] : BlockEffect::Transparent;
  };
}

/// Index of the most used unique trace of \p Table.
uint32_t mostFrequentTrace(const TwppFunctionTable &Table) {
  return static_cast<uint32_t>(
      std::max_element(Table.UseCounts.begin(), Table.UseCounts.end()) -
      Table.UseCounts.begin());
}

/// Picks a function with probability proportional to its calls; \p Cum
/// holds the running sum of call counts by function id.
FunctionId pickFunction(const std::vector<uint64_t> &Cum, Rng &R) {
  uint64_t Ticket = R.nextBelow(Cum.back());
  return static_cast<FunctionId>(
      std::upper_bound(Cum.begin(), Cum.end(), Ticket) - Cum.begin());
}

bool buildSetup(const Options &Opts, const ScratchDir &Dir, QuerySetup &S,
                Outcome &Out) {
  S = QuerySetup();
  uint64_t Start = nowNs();
  std::vector<PaperInput> Inputs = paperInputs(Opts.Seed);
  S.GenerateS = secondsSince(Start);

  std::vector<std::vector<uint64_t>> CumCalls;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    ArchiveSet A;
    A.Path = Dir.file("query" + std::to_string(I) + ".twppa");
    A.Events = eventCount(Inputs[I].Trace);
    A.Wpp = compactWpp(Inputs[I].Trace);
    IoError Err;
    if (!writeArchiveFile(A.Path, A.Wpp, ParallelConfig(), &Err)) {
      Out.fail("query: cannot write archive " + A.Path + ": " + Err.message());
      return false;
    }
    A.FileBytes = std::filesystem::file_size(A.Path);
    for (const TwppFunctionTable &Table : A.Wpp.Functions)
      A.Expanded.push_back(expandFunctionTraces(Table));
    A.CompressedDcg = lzwCompress(encodeDcg(A.Wpp.Dcg));
    std::vector<uint64_t> Cum;
    uint64_t Sum = 0;
    for (const TwppFunctionTable &Table : A.Wpp.Functions)
      Cum.push_back(Sum += Table.CallCount);
    CumCalls.push_back(std::move(Cum));
    S.Archives.push_back(std::move(A));
  }
  std::vector<PaperInput>().swap(Inputs);

  Rng R(Opts.Seed ^ 0x51E7C0DEull);
  std::vector<QueryKind> Kinds(MixLength, QueryKind::Dataflow);
  std::fill_n(Kinds.begin(), ExtractCount, QueryKind::Extract);
  std::fill_n(Kinds.begin() + ExtractCount, DcgCount, QueryKind::Dcg);
  for (size_t I = MixLength - 1; I > 0; --I)
    std::swap(Kinds[I], Kinds[R.nextBelow(I + 1)]);
  size_t PerKind[3] = {0, 0, 0};
  for (QueryKind Kind : Kinds) {
    Query Q;
    Q.Kind = Kind;
    // Each kind visits the archives in turn.
    Q.Archive = static_cast<uint32_t>(PerKind[static_cast<int>(Kind)]++ %
                                      S.Archives.size());
    const ArchiveSet &A = S.Archives[Q.Archive];
    Q.Function = pickFunction(CumCalls[Q.Archive], R);
    if (Q.Kind == QueryKind::Dataflow) {
      const TwppFunctionTable &Table = A.Wpp.Functions[Q.Function];
      Q.TraceIndex = mostFrequentTrace(Table);
      auto [StringIdx, DictIdx] = Table.Traces[Q.TraceIndex];
      AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(Table.TraceStrings[StringIdx],
                                                  Table.Dictionaries[DictIdx]);
      Q.Node = Cfg.Nodes[R.nextBelow(Cfg.Nodes.size())].Head;
      const PathTrace &Sequence = A.Expanded[Q.Function].Traces[Q.TraceIndex];
      BlockId MaxBlock = *std::max_element(Sequence.begin(), Sequence.end());
      for (BlockId B = 0; B <= MaxBlock; ++B) {
        double E = R.nextDouble();
        Q.Effects.push_back(E < 0.1   ? BlockEffect::Gen
                            : E < 0.2 ? BlockEffect::Kill
                                      : BlockEffect::Transparent);
      }
      FactFrequency Expected = factFrequency(
          buildAnnotatedCfgFromSequence(Sequence), Q.Node, effectOf(Q));
      Q.Holds = Expected.Holds;
      Q.Total = Expected.Total;
    }
    S.Mix.push_back(std::move(Q));
  }
  return true;
}

/// Per-kind and overall latency samples of a pass over the mix.
struct QueryTally {
  Samples All;
  Samples ByKind[3];
  /// Trace events the answers carry (extract: blocks of the expanded
  /// traces; dcg: calls; dataflow: executions of the node asked about)
  /// per second of query time, one sample per complete pass of the mix.
  Samples EventsPerS;
};

/// Runs queries from the mix until \p Seconds have passed (at least one).
QueryTally runQueries(const QuerySetup &S,
                      const std::vector<std::unique_ptr<ArchiveReader>> &Held,
                      double Seconds, Tracer *T, Outcome &Out) {
  QueryTally Tally;
  FunctionPathTraces Traces;
  DynamicCallGraph Dcg;
  TwppFunctionTable Table;
  uint64_t WindowServed = 0;
  double WindowS = 0;
  uint64_t StartNs = nowNs();
  for (size_t I = 0; I == 0 || secondsSince(StartNs) < Seconds; ++I) {
    const Query &Q = S.Mix[I % S.Mix.size()];
    const ArchiveSet &A = S.Archives[Q.Archive];
    ++Out.Attempted;
    bool Ok = false;
    uint64_t Served = 0;
    uint64_t OpStart = nowNs();
    switch (Q.Kind) {
    case QueryKind::Extract: {
      Tracer::Span Op(T, "op.extract", static_cast<int64_t>(I));
      ArchiveReader Reader;
      Ok = Reader.open(A.Path) &&
           Reader.extractFunctionPathTraces(Q.Function, Traces);
      break;
    }
    case QueryKind::Dcg: {
      Tracer::Span Op(T, "op.dcg", static_cast<int64_t>(I));
      Ok = Held[Q.Archive]->readDcg(Dcg);
      break;
    }
    case QueryKind::Dataflow: {
      Tracer::Span Op(T, "op.dataflow", static_cast<int64_t>(I));
      Ok = Held[Q.Archive]->extractFunction(Q.Function, Table);
      if (Ok) {
        auto [StringIdx, DictIdx] = Table.Traces[Q.TraceIndex];
        AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(
            Table.TraceStrings[StringIdx], Table.Dictionaries[DictIdx]);
        FactFrequency Freq = factFrequency(Cfg, Q.Node, effectOf(Q));
        Ok = Freq.Holds == Q.Holds && Freq.Total == Q.Total;
        Served = Freq.Total;
      }
      break;
    }
    }
    double Us = static_cast<double>(nowNs() - OpStart) / 1000.0;

    // Correctness against the in-memory oracle, outside the timed span.
    const char *Kind = KindNames[static_cast<int>(Q.Kind)];
    if (Ok && Q.Kind == QueryKind::Extract) {
      const FunctionPathTraces &Expected = A.Expanded[Q.Function];
      Ok = Traces.Traces == Expected.Traces &&
           Traces.UseCounts == Expected.UseCounts &&
           Traces.CallCount == Expected.CallCount;
      for (const PathTrace &P : Traces.Traces)
        Served += P.size();
    } else if (Ok && Q.Kind == QueryKind::Dcg) {
      Ok = Dcg == A.Wpp.Dcg;
      Served = Dcg.Nodes.size();
    }
    if (!Ok) {
      Out.fail(std::string("query: ") + Kind + " of function " +
               std::to_string(Q.Function) + " in archive " +
               std::to_string(Q.Archive) +
               " failed or differs from the in-memory oracle");
      continue;
    }
    Tally.All.add(Us);
    Tally.ByKind[static_cast<int>(Q.Kind)].add(Us);
    WindowServed += Served;
    WindowS += Us * 1e-6;
    if ((I + 1) % S.Mix.size() == 0) {
      Tally.EventsPerS.add(static_cast<double>(WindowServed) / WindowS);
      WindowServed = 0;
      WindowS = 0;
    }
  }
  if (Tally.EventsPerS.count() == 0 && WindowS > 0)
    Tally.EventsPerS.add(static_cast<double>(WindowServed) / WindowS);
  return Tally;
}

/// Figures of the one-layer-at-a-time replay of one pass over the mix.
struct Replay {
  uint64_t Ops[3] = {0, 0, 0};
  uint64_t DataflowQueries = 0;
  double LzwS = 0;
  uint64_t LzwOut = 0;
  double DcgDecodeS = 0;
};

Replay replayLayers(const QuerySetup &S,
                    const std::vector<std::unique_ptr<ArchiveReader>> &Held,
                    Tracer &T, Outcome &Out) {
  Replay R;
  for (size_t I = 0; I < S.Mix.size(); ++I) {
    const Query &Q = S.Mix[I];
    const ArchiveSet &A = S.Archives[Q.Archive];
    ++R.Ops[static_cast<int>(Q.Kind)];
    Tracer::Span Request(&T, "query.replay", static_cast<int64_t>(I));
    bool Ok = true;
    if (Q.Kind == QueryKind::Extract) {
      ArchiveReader Reader;
      {
        Tracer::Span L(&T, "wpp.read.open");
        Ok = Reader.open(A.Path);
      }
      TwppFunctionTable Table;
      {
        Tracer::Span L(&T, "wpp.read.extract");
        Ok = Ok && Reader.extractFunction(Q.Function, Table);
        L.bytes(Reader.blockLength(Q.Function), 0);
      }
      FunctionPathTraces Traces;
      {
        Tracer::Span L(&T, "wpp.expand");
        Traces = expandFunctionTraces(Table);
      }
      Ok = Ok && Traces.Traces == A.Expanded[Q.Function].Traces;
    } else if (Q.Kind == QueryKind::Dcg) {
      DynamicCallGraph Dcg;
      {
        Tracer::Span L(&T, "wpp.read.dcg");
        Ok = Held[Q.Archive]->readDcg(Dcg);
        L.bytes(A.CompressedDcg.size(), 0);
      }
      Ok = Ok && Dcg == A.Wpp.Dcg;
      // Probes of the two halves of readDcg, outside the ledger.
      std::vector<uint8_t> Plain;
      uint64_t LzwStart = nowNs();
      Ok = lzwDecompress(A.CompressedDcg, Plain) && Ok;
      R.LzwS += secondsSince(LzwStart);
      R.LzwOut += Plain.size();
      DynamicCallGraph Decoded;
      uint64_t DecodeStart = nowNs();
      Ok = decodeDcg(Plain, Decoded) && Ok;
      R.DcgDecodeS += secondsSince(DecodeStart);
    } else {
      TwppFunctionTable Table;
      {
        Tracer::Span L(&T, "wpp.read.extract");
        Ok = Held[Q.Archive]->extractFunction(Q.Function, Table);
        L.bytes(Held[Q.Archive]->blockLength(Q.Function), 0);
      }
      if (Ok) {
        auto [StringIdx, DictIdx] = Table.Traces[Q.TraceIndex];
        AnnotatedDynamicCfg Cfg;
        {
          Tracer::Span L(&T, "dataflow.cfg_build");
          Cfg = buildAnnotatedCfg(Table.TraceStrings[StringIdx],
                                  Table.Dictionaries[DictIdx]);
        }
        FactFrequency Freq;
        {
          Tracer::Span L(&T, "dataflow.propagate");
          Freq = factFrequency(Cfg, Q.Node, effectOf(Q));
          L.items(Freq.QueriesGenerated);
        }
        R.DataflowQueries += Freq.QueriesGenerated;
        Ok = Freq.Holds == Q.Holds && Freq.Total == Q.Total;
      }
    }
    if (!Ok)
      Out.fail("replay: query " + std::to_string(I) +
               " differs from the in-memory oracle");
  }
  return R;
}

/// Ledger layers of the read path.
const std::vector<const char *> ReadLayers = {
    "wpp.read.open", "wpp.read.extract",   "wpp.expand",
    "wpp.read.dcg",  "dataflow.cfg_build", "dataflow.propagate"};

} // namespace

Outcome runQuery(const Options &Opts) {
  Outcome Out;
  ScratchDir Dir(Opts.ScratchRoot);
  if (!Dir.ok()) {
    Out.fail("query: cannot create a scratch directory under " +
             Opts.ScratchRoot);
    return Out;
  }

  QuerySetup S;
  bool SetupOk = true;
  double SetupS = timedSetup(Opts, [&] {
    SetupOk = buildSetup(Opts, Dir, S, Out) && SetupOk;
  });
  if (!SetupOk)
    return Out;
  uint64_t Events = 0, FileBytes = 0;
  for (const ArchiveSet &A : S.Archives) {
    Events += A.Events;
    FileBytes += A.FileBytes;
  }
  Out.detail("setup.input_events", "count", static_cast<double>(Events));
  Out.detail("workloads.generate_s", "s", S.GenerateS);

  std::vector<std::unique_ptr<ArchiveReader>> Held;
  for (const ArchiveSet &A : S.Archives) {
    Held.push_back(std::make_unique<ArchiveReader>());
    if (!Held.back()->open(A.Path)) {
      Out.fail("query: cannot open " + A.Path);
      return Out;
    }
  }

  // Warm-up: half a second of the mix fills the page cache and the decode
  // arena; its figures are discarded.
  {
    Outcome Warm;
    runQueries(S, Held, 0.5, nullptr, Warm);
    for (const std::string &E : Warm.Errors)
      Out.fail("warm-up: " + E);
  }

  beginMeasuredPhase(Out);

  if (!Opts.Trace) {
    QueryTally Tally = runQueries(S, Held, Opts.Seconds, nullptr, Out);
    Out.metric("setup_s", "s", SetupS, setupReps(Opts));
    Out.metric("events_per_s", "1/s", Tally.EventsPerS.quantile(0.5),
               Tally.EventsPerS.count());
    // Thousands of queries in a run: hundreds beyond p99.
    reportLatency(Out, Tally.All, 0.99);
    Out.metric("archive_bytes_per_event", "B/event",
               static_cast<double>(FileBytes) / static_cast<double>(Events),
               S.Archives.size());
    Out.metric("peak_rss_mb", "MB", peakRssMb());
    for (int K = 0; K < 3; ++K) {
      std::string Name = KindNames[K];
      Out.detail(Name + "_us_p50", "us", Tally.ByKind[K].quantile(0.50),
                 Tally.ByKind[K].count());
      Out.detail(Name + "_us_p99", "us", Tally.ByKind[K].quantile(0.99),
                 Tally.ByKind[K].count());
    }
    return Out;
  }

  QueryTally Plain = runQueries(S, Held, Opts.Seconds / 2, nullptr, Out);
  Tracer T;
  QueryTally Traced = runQueries(S, Held, Opts.Seconds / 2, &T, Out);
  double PlainMeanUs = Plain.All.sum() / static_cast<double>(Plain.All.count());
  double TracedMeanUs =
      Traced.All.sum() / static_cast<double>(Traced.All.count());

  Replay R = replayLayers(S, Held, T, Out);
  // The untraced end-to-end time of the replayed work: each replayed
  // query costs its kind's mean untraced latency.
  double E2eNs = 0;
  for (int K = 0; K < 3; ++K)
    if (Plain.ByKind[K].count())
      E2eNs += static_cast<double>(R.Ops[K]) * 1000.0 * Plain.ByKind[K].sum() /
               static_cast<double>(Plain.ByKind[K].count());
  reportTrace(Out, T, Opts, ReadLayers, E2eNs, PlainMeanUs, TracedMeanUs,
              Traced.All.count(), S.GenerateS);
  auto MeanUs = [&](const char *Layer) {
    return T.totals(Layer).selfUsPerCall();
  };
  const Tracer::Totals &Extract = T.totals("wpp.read.extract");
  const Tracer::Totals &Propagate = T.totals("dataflow.propagate");
  uint64_t DcgOps = R.Ops[static_cast<int>(QueryKind::Dcg)];
  uint64_t DataflowOps = R.Ops[static_cast<int>(QueryKind::Dataflow)];
  Out.metric("wpp.read.open_us", "us", MeanUs("wpp.read.open"),
             T.totals("wpp.read.open").Calls);
  Out.metric("wpp.read.extract_us", "us", MeanUs("wpp.read.extract"),
             Extract.Calls);
  Out.metric("wpp.read.decode_mb_per_s", "MB/s",
             Extract.SelfNs ? static_cast<double>(Extract.BytesIn) * 1e3 /
                                  static_cast<double>(Extract.SelfNs)
                            : 0,
             Extract.Calls);
  Out.metric("wpp.expand.us", "us", MeanUs("wpp.expand"),
             T.totals("wpp.expand").Calls);
  Out.metric("wpp.read.dcg_us", "us", MeanUs("wpp.read.dcg"), DcgOps);
  Out.metric("support.lzw.decompress_mb_per_s", "MB/s",
             R.LzwS > 0 ? static_cast<double>(R.LzwOut) / 1e6 / R.LzwS : 0,
             DcgOps);
  Out.metric("wpp.dcg.decode_us", "us",
             DcgOps ? R.DcgDecodeS * 1e6 / static_cast<double>(DcgOps) : 0,
             DcgOps);
  Out.metric("dataflow.cfg_build_us", "us", MeanUs("dataflow.cfg_build"),
             DataflowOps);
  Out.metric("dataflow.propagate_us", "us", MeanUs("dataflow.propagate"),
             DataflowOps);
  Out.metric("dataflow.queries_per_answer", "ratio",
             Propagate.Calls ? static_cast<double>(R.DataflowQueries) /
                                   static_cast<double>(Propagate.Calls)
                             : 0,
             DataflowOps);
  Out.detail("e2e.op_us", "us", PlainMeanUs, Plain.All.count());
  Out.detail("e2e.traced_op_us", "us", TracedMeanUs, Traced.All.count());
  return Out;
}

} // namespace perfbench
