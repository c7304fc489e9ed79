//===- perfbench/bench.cpp - The repository benchmark binary --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// One process runs one workload for one seed and prints one JSON record
// as its last line of output: correctness (attempted / failed operations
// and every failure by name), the metrics of the requested mode with
// their units and sample counts, the traced run's layer ledger, and the
// provenance the compare tool checks. perfbench/run.py builds this binary
// and turns the record into the benchmark's result line.
//
//   twpp_perfbench --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> [--scratch <dir>] [--spans-out <path>]
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Parallel.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

using namespace perfbench;

namespace {

#ifndef TWPP_BENCH_COMPILER
#define TWPP_BENCH_COMPILER "unknown"
#endif
#ifndef TWPP_BENCH_BUILD_TYPE
#define TWPP_BENCH_BUILD_TYPE "unknown"
#endif

const char *const Workloads[] = {"ingest-paper", "query-paper",
                                 "races-concurrent", "ingest-observed"};

void usage() {
  std::fprintf(stderr,
               "usage: twpp_perfbench --workload <ingest-paper|query-paper|"
               "races-concurrent|ingest-observed> --seed <n> --seconds <s> "
               "--trace <0|1> [--scratch <dir>] [--spans-out <path>]\n");
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonMetrics(const std::vector<Metric> &Metrics) {
  std::string Out = "{";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    Out += (I ? "," : "") + jsonString(M.Name) + ":{\"value\":" +
           jsonNumber(M.Value) + ",\"unit\":" + jsonString(M.Unit) +
           ",\"samples\":" + std::to_string(M.Samples) + "}";
  }
  return Out + "}";
}

void printRecord(const Options &Opts, const Outcome &Out) {
  std::string Json = "{\"workload\":" + jsonString(Opts.Workload) +
                     ",\"seed\":" + std::to_string(Opts.Seed) +
                     ",\"trace\":" + (Opts.Trace ? "1" : "0") +
                     ",\"seconds\":" + jsonNumber(Opts.Seconds) +
                     ",\"correct\":" + (Out.Failed ? "false" : "true") +
                     ",\"attempted\":" + std::to_string(Out.Attempted) +
                     ",\"failed\":" + std::to_string(Out.Failed) +
                     ",\"errors\":[";
  for (size_t I = 0; I < Out.Errors.size(); ++I)
    Json += (I ? "," : "") + jsonString(Out.Errors[I]);
  Json += "],\"metrics\":" + jsonMetrics(Out.Metrics) +
          ",\"detail\":" + jsonMetrics(Out.Detail) + ",\"ledger\":[";
  for (size_t I = 0; I < Out.Ledger.size(); ++I) {
    const LedgerRow &L = Out.Ledger[I];
    Json += std::string(I ? "," : "") + "{\"layer\":" + jsonString(L.Layer) +
            ",\"calls\":" + std::to_string(L.Calls) +
            ",\"self_s\":" + jsonNumber(L.SelfS) +
            ",\"items\":" + std::to_string(L.Items) +
            ",\"bytes_in\":" + std::to_string(L.BytesIn) +
            ",\"bytes_out\":" + std::to_string(L.BytesOut) +
            ",\"share\":" + jsonNumber(L.Share) + "}";
  }
  Json += "],\"provenance\":{";
  std::map<std::string, std::string> Prov = Out.Provenance;
  Prov["build_type"] = TWPP_BENCH_BUILD_TYPE;
  Prov["compiler"] = TWPP_BENCH_COMPILER;
  Prov["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  Prov["generator_threads"] = std::to_string(generatorThreads());
  Prov["program_jobs"] = std::to_string(twpp::ParallelConfig().Jobs);
  bool First = true;
  for (const auto &[Key, Value] : Prov) {
    Json += (First ? "" : ",") + jsonString(Key) + ":" + jsonString(Value);
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc) {
      usage();
      return 2;
    }
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Value.empty();
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = *End == '\0' && Opts.Seconds > 0;
    } else if (Arg == "--trace") {
      HaveTrace = Value == "0" || Value == "1";
      Opts.Trace = Value == "1";
    } else if (Arg == "--scratch") {
      Opts.ScratchRoot = Value;
    } else if (Arg == "--spans-out") {
      Opts.SpansOut = Value;
    } else {
      usage();
      return 2;
    }
  }
  bool Known = false;
  for (const char *W : Workloads)
    Known |= Opts.Workload == W;
  if (!Known || !HaveSeed || !HaveSeconds || !HaveTrace) {
    usage();
    return 2;
  }

  // Telemetry is set here, not left to TWPP_METRICS / TWPP_MEM /
  // TWPP_TRACE in the environment: only ingest-observed measures with
  // metrics and memory tracking on, and no workload runs the flight
  // recorder.
  bool Observed = Opts.Workload == "ingest-observed";
  twpp::obs::setMetricsEnabled(Observed);
  twpp::obs::setMemTrackingEnabled(Observed);
  twpp::obs::setTracingEnabled(false);

  Outcome Out;
  if (Opts.Workload == "ingest-paper" || Observed)
    Out = runIngest(Opts, Observed);
  else if (Opts.Workload == "query-paper")
    Out = runQuery(Opts);
  else
    Out = runRaces(Opts);
  // The telemetry mode as the program reads it at the end of the run.
  std::string Telemetry;
  if (twpp::obs::enabled())
    Telemetry += "+metrics";
  if (twpp::obs::memTrackingEnabled())
    Telemetry += "+mem";
  if (twpp::obs::tracingEnabled())
    Telemetry += "+trace";
  Out.Provenance["telemetry"] = Telemetry.empty() ? "off" : Telemetry.substr(1);

  if (Out.Attempted == 0)
    Out.fail(Opts.Workload + ": no operation was attempted");
  for (const std::string &E : Out.Errors)
    std::fprintf(stderr, "twpp_perfbench: FAILED: %s\n", E.c_str());
  printRecord(Opts, Out);
  return Out.Failed ? 1 : 0;
}
