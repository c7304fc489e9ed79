//===- perfbench/Harness.cpp - Shared plumbing of the benchmark -----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <malloc.h>
#include <unistd.h>

using namespace twpp;

namespace perfbench {

unsigned generatorThreads() {
  long Cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  return Cores >= 3 ? static_cast<unsigned>((Cores - 1) / 2) : 1u;
}

std::vector<PaperInput> paperInputs(uint64_t Seed) {
  std::vector<PaperInput> Inputs;
  for (const WorkloadProfile &Profile : paperProfiles()) {
    SyntheticProgram Program = generateProgram(Profile);
    Program.Profile.Seed += Seed * 0x9E3779B97F4A7C15ull;
    CollectingSink Sink(Profile.FunctionCount);
    runSyntheticProgram(Program, Sink);
    Inputs.push_back({Profile.Name, Sink.take()});
  }
  return Inputs;
}

std::vector<ConcurrentInput> concurrentInputs(uint64_t Seed) {
  std::vector<ConcurrentInput> Inputs;
  for (ConcurrentProfile Profile : concurrentProfiles()) {
    Profile.Seed += Seed;
    ConcurrentInput In;
    In.Profile = Profile;
    In.Trace = generateConcurrentTrace(Profile);
    In.Events = In.Trace.Syncs.size() + In.Trace.Accesses.size();
    for (const ThreadTrace &Thread : In.Trace.Threads)
      In.Events += Thread.Trace.Events.size();
    Inputs.push_back(std::move(In));
  }
  return Inputs;
}

double Samples::sum() const {
  double Total = 0;
  for (double V : Values)
    Total += V;
  return Total;
}

double Samples::quantile(double Q) const {
  if (Values.empty())
    return 0;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

void reportLatency(Outcome &Out, const Samples &Latencies, double TailQ) {
  size_t N = Latencies.count();
  Out.metric("latency_us_p50", "us", Latencies.quantile(0.5), N);
  Out.metric("latency_us_tail", "us", Latencies.quantile(TailQ), N);
  Out.detail("latency_tail_quantile", "ratio", TailQ, N);
}

static double statusFieldMb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0)
      return std::atof(Line.c_str() + Len) / 1024.0; // kB -> MiB
  return 0;
}

double peakRssMb() { return statusFieldMb("VmHWM:"); }

void beginMeasuredPhase(Outcome &Out) {
  ::malloc_trim(0);
  bool Reset = false;
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    Reset = std::fputs("5", F) >= 0;
    Reset = std::fclose(F) == 0 && Reset;
  }
  Out.Provenance["rss_reset"] = Reset ? "clear_refs" : "unavailable";
  Out.detail("setup.rss_mb", "MB", statusFieldMb("VmRSS:"));
}

ScratchDir::ScratchDir(const std::string &Root) {
  std::string Template = Root + "/perfbench-run-XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  if (::mkdtemp(Buf.data()))
    Path = Buf.data();
}

ScratchDir::~ScratchDir() {
  if (Path.empty())
    return;
  std::error_code Ec;
  std::filesystem::remove_all(Path, Ec);
}

void Outcome::fail(const std::string &Message) {
  ++Failed;
  if (Errors.size() < 16)
    Errors.push_back(Message);
}

//===-- Tracer --------------------------------------------------------===//

namespace {
thread_local Tracer::Span *CurrentSpan = nullptr;
thread_local uint32_t ThreadIndex = 0;
std::atomic<uint32_t> NextThreadIndex{1};

uint32_t threadIndex() {
  if (ThreadIndex == 0)
    ThreadIndex = NextThreadIndex.fetch_add(1);
  return ThreadIndex;
}
} // namespace

Tracer::Span::Span(Tracer *Owner, const char *SpanName, int64_t Req)
    : T(Owner), Name(SpanName) {
  if (!T)
    return;
  if (CurrentSpan && CurrentSpan->T == T)
    Parent = CurrentSpan;
  Request = Req >= 0 ? Req : (Parent ? Parent->Request : 0);
  ParentRecord = Parent ? Parent->Record : -1;
  CurrentSpan = this;
  {
    std::lock_guard<std::mutex> Lock(T->Mutex);
    if (T->Records.size() < MaxStored) {
      Record = static_cast<int64_t>(T->Records.size());
      T->Records.push_back(
          {Name, 0, 0, ParentRecord, Request, threadIndex()});
    }
  }
  StartNs = nowNs();
}

Tracer::Span::~Span() {
  if (!T)
    return;
  uint64_t EndNs = nowNs();
  uint64_t Duration = EndNs - StartNs;
  if (Parent)
    Parent->ChildNs += Duration;
  CurrentSpan = Parent;
  std::lock_guard<std::mutex> Lock(T->Mutex);
  if (Record >= 0) {
    T->Records[Record].StartNs = StartNs;
    T->Records[Record].EndNs = EndNs;
    ++T->Stored;
  } else {
    ++T->Dropped;
  }
  Totals &Tot = T->ByName[Name];
  ++Tot.Calls;
  Tot.TotalNs += Duration;
  Tot.SelfNs += Duration > ChildNs ? Duration - ChildNs : 0;
  Tot.Items += Items;
  Tot.BytesIn += BytesIn;
  Tot.BytesOut += BytesOut;
}

const Tracer::Totals &Tracer::totals(const std::string &Name) const {
  static const Totals None;
  auto It = ByName.find(Name);
  return It == ByName.end() ? None : It->second;
}

void reportTrace(Outcome &Out, const Tracer &T, const Options &Opts,
                 const std::vector<const char *> &Layers, double E2eNs,
                 double PlainUnit, double TracedUnit, uint64_t TracedSamples,
                 double GenerateS) {
  double Attributed = 0;
  uint64_t Requests = 0;
  for (const char *Layer : Layers) {
    const Tracer::Totals &Tot = T.totals(Layer);
    double Share = static_cast<double>(Tot.SelfNs) / E2eNs;
    Attributed += Share;
    Requests = std::max(Requests, Tot.Calls);
    Out.Ledger.push_back({Layer, Tot.Calls, Tot.SelfNs * 1e-9, Tot.Items,
                          Tot.BytesIn, Tot.BytesOut, Share});
    Out.metric(std::string(Layer) + ".share", "ratio", Share, Tot.Calls);
  }
  Out.metric("ledger.unattributed_share", "ratio", 1.0 - Attributed, Requests);
  Out.metric("workloads.generate_s", "s", GenerateS);
  Out.metric("trace.overhead_pct", "%",
             (TracedUnit - PlainUnit) / PlainUnit * 100.0, TracedSamples);
  Out.detail("spans", "count", static_cast<double>(T.spanCount()));
  if (!Opts.SpansOut.empty() && !T.writeChromeTrace(Opts.SpansOut))
    Out.fail("trace: cannot write spans to " + Opts.SpansOut);
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", F);
  bool First = true;
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    if (R.EndNs == 0)
      continue; // still open: cannot happen once the run has ended
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%lld}}",
                 First ? "" : ",", R.Name, R.Thread,
                 static_cast<double>(R.StartNs - EpochNs) / 1000.0,
                 static_cast<double>(R.EndNs - R.StartNs) / 1000.0, I,
                 static_cast<long long>(R.Parent),
                 static_cast<long long>(R.Request));
    First = false;
  }
  std::fprintf(F, "\n],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(Dropped));
  return std::fclose(F) == 0;
}

} // namespace perfbench
