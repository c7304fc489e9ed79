//===- trace/Events.h - Whole program path event model ----------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The raw whole-program-path (WPP) model. A WPP is the complete control
/// flow trace of one program execution: a stream of function-enter,
/// basic-block, and function-exit events. This is what the paper's
/// instrumented Trimaran binaries produce and what every representation in
/// this library (uncompacted file, compacted TWPP archive, Sequitur
/// grammar) is derived from and must reconstruct exactly.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TRACE_EVENTS_H
#define TWPP_TRACE_EVENTS_H

#include <cstdint>
#include <span>
#include <vector>

namespace twpp {

/// Identifies a function within a traced program.
using FunctionId = uint32_t;

/// Identifies a static basic block within its function. Block ids are local
/// to the function (the paper numbers each function's blocks 1..n).
using BlockId = uint32_t;

/// One element of the control flow trace.
struct TraceEvent {
  enum class Kind : uint8_t {
    Enter, ///< A function call begins; Id is the callee FunctionId.
    Block, ///< A basic block executes; Id is the BlockId.
    Exit,  ///< The innermost active call returns; Id is unused (0).
  };

  Kind EventKind;
  uint32_t Id;

  static TraceEvent enter(FunctionId F) { return {Kind::Enter, F}; }
  static TraceEvent block(BlockId B) { return {Kind::Block, B}; }
  static TraceEvent exit() { return {Kind::Exit, 0}; }

  bool operator==(const TraceEvent &Other) const = default;
};

/// A complete WPP: the event stream of one execution plus the number of
/// functions in the traced program (needed to size per-function indexes).
struct RawTrace {
  std::vector<TraceEvent> Events;
  uint32_t FunctionCount = 0;

  bool operator==(const RawTrace &Other) const = default;

  /// Total number of basic-block events (the paper's trace length measure).
  uint64_t blockEventCount() const;

  /// Total number of function calls (Enter events).
  uint64_t callCount() const;

  /// Checks structural sanity: every Block lies inside an active call,
  /// Enter/Exit events balance, and ids are within range.
  bool isWellFormed() const;
};

/// Receives trace events as a program executes. The tracing interpreter and
/// the synthetic workload drivers both emit through this interface.
class TraceSink {
public:
  virtual ~TraceSink();
  virtual void onEnter(FunctionId F) = 0;
  virtual void onBlock(BlockId B) = 0;
  virtual void onExit() = 0;
};

/// Feeds \p Events, in order, into \p Sink. Pass a subspan to replay a
/// prefix or a suffix of a trace.
void replayEvents(std::span<const TraceEvent> Events, TraceSink &Sink);

/// TraceSink that accumulates the events into a RawTrace.
class CollectingSink final : public TraceSink {
public:
  explicit CollectingSink(uint32_t FunctionCount) {
    Trace.FunctionCount = FunctionCount;
  }

  void onEnter(FunctionId F) override {
    Trace.Events.push_back(TraceEvent::enter(F));
  }
  void onBlock(BlockId B) override {
    Trace.Events.push_back(TraceEvent::block(B));
  }
  void onExit() override { Trace.Events.push_back(TraceEvent::exit()); }

  /// Moves the accumulated trace out of the sink.
  RawTrace take() { return std::move(Trace); }

  const RawTrace &trace() const { return Trace; }

private:
  RawTrace Trace;
};

} // namespace twpp

#endif // TWPP_TRACE_EVENTS_H
