//===- perfbench/Harness.h - Shared plumbing of the benchmark ---*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the command
/// line, seeded input generation, latency samples, the per-run scratch
/// directory, measured-phase RSS, the outcome record, and the in-memory
/// span tracer behind the traced (per-layer) run. The benchmark only
/// calls the program's public functions; nothing here is program code.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_PERFBENCH_HARNESS_H
#define TWPP_PERFBENCH_HARNESS_H

#include "trace/Events.h"
#include "trace/ThreadEvents.h"
#include "workloads/Concurrent.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using twpp::RawTrace;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

/// The command line of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Directory under which the run makes its unique scratch directory.
  std::string ScratchRoot = ".";
  /// Where the traced run writes its spans (Chrome trace JSON); empty
  /// keeps them in memory only.
  std::string SpansOut;
};

/// Producer threads (and connections) the benchmark runs: at most half
/// the cores, and few enough that producers, the server's reader threads
/// (one per connection) and its dispatcher all fit on the cores, so the
/// figures do not depend on how the scheduler shares a core. One on a
/// 4-core machine.
unsigned generatorThreads();

//===-- Inputs --------------------------------------------------------===//

/// One paper profile's trace as generated for a seed.
struct PaperInput {
  std::string Name;
  RawTrace Trace;
};

/// The five paperProfiles() traces for \p Seed. Each profile keeps its
/// static program (generated from the profile's own seed) and \p Seed
/// reseeds only the program's run (runSyntheticProgram), so seeds vary
/// the executions but not the programs' shape statistics; seed 0 is the
/// profiles as shipped.
std::vector<PaperInput> paperInputs(uint64_t Seed);

/// One concurrentProfiles() trace as generated for a seed.
struct ConcurrentInput {
  twpp::ConcurrentProfile Profile;
  twpp::ConcurrentTrace Trace;
  /// Thread block events + sync events + access events.
  uint64_t Events = 0;
};

/// The six concurrentProfiles() traces, each profile's seed offset by
/// \p Seed.
std::vector<ConcurrentInput> concurrentInputs(uint64_t Seed);

/// Total events of a raw trace (enter + block + exit).
inline uint64_t eventCount(const RawTrace &Trace) {
  return Trace.Events.size();
}

//===-- Measurement ---------------------------------------------------===//

/// Latency (or any per-operation) samples of one kind.
class Samples {
public:
  void add(double Value) { Values.push_back(Value); }
  void add(const Samples &Other) {
    Values.insert(Values.end(), Other.Values.begin(), Other.Values.end());
  }
  size_t count() const { return Values.size(); }
  double sum() const;
  /// Linear-interpolated quantile, \p Q in [0, 1]; 0 when empty.
  double quantile(double Q) const;

private:
  std::vector<double> Values;
};

/// Median of \p Values (which it sorts).
double median(std::vector<double> Values);

/// VmHWM of this process in MiB.
double peakRssMb();

/// A unique directory for the run's archives and journals, removed with
/// everything in it when the object is destroyed.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Root);
  ~ScratchDir();
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  bool ok() const { return !Path.empty(); }
  std::string file(const std::string &Name) const { return Path + "/" + Name; }

private:
  std::string Path;
};

//===-- Outcome -------------------------------------------------------===//

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  uint64_t Samples = 0;
};

/// One row of the traced run's layer ledger.
struct LedgerRow {
  std::string Layer;
  uint64_t Calls = 0;
  double SelfS = 0;
  uint64_t Items = 0;
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  double Share = 0; ///< Of the untraced end-to-end time of the same work.
};

/// What a workload hands back: the result-line metrics for its mode, figures
/// kept only in the full record, and every correctness failure by name.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  std::vector<Metric> Metrics;
  std::vector<Metric> Detail;
  std::vector<LedgerRow> Ledger;
  std::map<std::string, std::string> Provenance;

  /// Counts one failed operation and keeps its message (the first few).
  void fail(const std::string &Message);

  void metric(const std::string &Name, const std::string &Unit, double Value,
              uint64_t SampleCount = 1) {
    Metrics.push_back({Name, Unit, Value, SampleCount});
  }
  void detail(const std::string &Name, const std::string &Unit, double Value,
              uint64_t SampleCount = 1) {
    Detail.push_back({Name, Unit, Value, SampleCount});
  }
};

/// Reports latency_us_p50 and latency_us_tail, the \p TailQ quantile, of
/// \p Latencies, plus TailQ in the record. Each workload fixes its TailQ
/// rather than deriving it from the sample count, so a faster program,
/// which gets more samples into a run, is not judged on a higher quantile.
void reportLatency(Outcome &Out, const Samples &Latencies, double TailQ);

/// Ends set-up: returns freed heap to the kernel and resets the kernel's
/// RSS high-water mark to the current RSS (/proc/self/clear_refs, value
/// 5), so peakRssMb() covers the measured phase only. Records whether the
/// reset worked (provenance rss_reset) and the RSS the phase starts from.
void beginMeasuredPhase(Outcome &Out);

/// Complete set-ups per run; setup_s is their median. The traced run does
/// not report set-up time and sets up once. Three, not more: in one
/// process later set-ups run slower (on races-concurrent, eight set-ups
/// had a median 15-25% above three, and the measured phase after them ran
/// 3-5% slower), so more repetitions would measure the repetition.
inline unsigned setupReps(const Options &Opts) { return Opts.Trace ? 1 : 3; }

/// Runs \p Fn (one complete setup) setupReps() times and \returns the
/// median wall time in seconds; the last repetition's state is kept.
template <typename FnT> double timedSetup(const Options &Opts, FnT &&Fn) {
  std::vector<double> Times;
  for (unsigned R = 0; R < setupReps(Opts); ++R) {
    uint64_t Start = nowNs();
    Fn();
    Times.push_back(secondsSince(Start));
  }
  return median(Times);
}

//===-- Tracing -------------------------------------------------------===//

/// In-memory span recorder for the traced run. A span is a call into one
/// layer: name, start, end, parent span and request id. Totals per name
/// (calls, self time, items, bytes) are aggregated as spans close, so
/// they stay exact even when the stored span list hits its cap. Spans may
/// be opened on several threads; each thread nests its own.
class Tracer {
public:
  /// An open span; closes on destruction. A span opened on a disabled
  /// (null) tracer costs nothing.
  class Span {
  public:
    Span(Tracer *T, const char *Name, int64_t Request = -1);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /// Work items (events, queries) this span processed.
    void items(uint64_t N) { Items += N; }
    void bytes(uint64_t In, uint64_t Out) {
      BytesIn += In;
      BytesOut += Out;
    }

  private:
    Tracer *T;
    const char *Name;
    int64_t Request = 0;
    int64_t Record = -1;
    int64_t ParentRecord = -1;
    Span *Parent = nullptr;
    uint64_t StartNs = 0;
    uint64_t ChildNs = 0;
    uint64_t Items = 0;
    uint64_t BytesIn = 0;
    uint64_t BytesOut = 0;
  };

  struct Totals {
    uint64_t Calls = 0;
    uint64_t TotalNs = 0;
    uint64_t SelfNs = 0;
    uint64_t Items = 0;
    uint64_t BytesIn = 0;
    uint64_t BytesOut = 0;

    double selfUsPerCall() const {
      return Calls ? static_cast<double>(SelfNs) / 1000.0 /
                         static_cast<double>(Calls)
                   : 0.0;
    }
  };

  const Totals &totals(const std::string &Name) const;
  const std::map<std::string, Totals> &allTotals() const { return ByName; }

  uint64_t spanCount() const { return Stored + Dropped; }

  /// Writes the stored spans as a Chrome trace (chrome://tracing,
  /// Perfetto). \returns false on IO failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Record {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int64_t Parent;
    int64_t Request;
    uint32_t Thread;
  };

  static constexpr size_t MaxStored = 200000;

  std::mutex Mutex; // guards everything below
  std::vector<Record> Records;
  std::map<std::string, Totals> ByName;
  uint64_t Stored = 0;
  uint64_t Dropped = 0;
  uint64_t EpochNs = nowNs();
};

/// Ends a traced run. Per layer of \p Layers (in path order): a ledger row
/// and a <layer>.share metric, its self time over \p E2eNs, the untraced
/// end-to-end time of the replayed work. Then ledger.unattributed_share
/// (one minus the shares), workloads.generate_s, and trace.overhead_pct
/// from the untraced and traced end-to-end time per unit of work
/// (\p PlainUnit, \p TracedUnit). Writes the spans when asked to.
void reportTrace(Outcome &Out, const Tracer &T, const Options &Opts,
                 const std::vector<const char *> &Layers, double E2eNs,
                 double PlainUnit, double TracedUnit, uint64_t TracedSamples,
                 double GenerateS);

//===-- Workloads -----------------------------------------------------===//

Outcome runIngest(const Options &Opts, bool Observed);
Outcome runQuery(const Options &Opts);
Outcome runRaces(const Options &Opts);

} // namespace perfbench

#endif // TWPP_PERFBENCH_HARNESS_H
