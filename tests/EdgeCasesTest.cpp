//===- tests/EdgeCasesTest.cpp - assorted boundary conditions --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"
#include "lang/Lower.h"
#include "runtime/Interpreter.h"
#include "support/FileIO.h"
#include "wpp/Archive.h"
#include "wpp/Twpp.h"

#include "TestSupport.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace twpp;

namespace {

TEST(LexerEdgeTest, HugeIntegerLiteralRejectedGracefully) {
  std::vector<Token> Tokens;
  std::string Error;
  EXPECT_FALSE(
      tokenize("fn main() { x = 99999999999999999999999; }", Tokens,
               Error));
  EXPECT_NE(Error.find("overflows"), std::string::npos);
  // INT64_MAX itself still parses.
  ASSERT_TRUE(tokenize("x = 9223372036854775807;", Tokens, Error)) << Error;
  EXPECT_EQ(Tokens[2].IntValue, INT64_MAX);
}

TEST(InterpreterEdgeTest, UninitializedReadsAreZero) {
  Module M;
  std::string Error;
  ASSERT_TRUE(compileProgram("fn main() { print never_assigned + 3; }", M,
                             Error));
  ExecutionResult Result;
  traceExecution(M, {}, Result);
  ASSERT_TRUE(Result.Completed);
  EXPECT_EQ(Result.Output, (std::vector<int64_t>{3}));
}

TEST(InterpreterEdgeTest, MissingArgumentsDefaultToZero) {
  // Arity is checked at compile time, so exercise the interpreter-level
  // default through the runtime API instead: main takes no inputs but
  // reads two.
  Module M;
  std::string Error;
  ASSERT_TRUE(compileProgram("fn main() { read a; read b; print a + b; }",
                             M, Error));
  ExecutionResult Result;
  traceExecution(M, {41}, Result);
  ASSERT_TRUE(Result.Completed);
  EXPECT_EQ(Result.Output, (std::vector<int64_t>{41}));
}

TEST(InterpreterEdgeTest, SignedOverflowWrapsInsteadOfTrapping) {
  Module M;
  std::string Error;
  ASSERT_TRUE(compileProgram("fn main() {"
                             "  x = 9223372036854775807;"
                             "  print x + 1;"
                             "  print x * 2;"
                             "}",
                             M, Error))
      << Error;
  ExecutionResult Result;
  traceExecution(M, {}, Result);
  ASSERT_TRUE(Result.Completed);
  EXPECT_EQ(Result.Output[0], INT64_MIN);
  EXPECT_EQ(Result.Output[1], -2);
}

TEST(ArchiveEdgeTest, EmptyWppRoundTrips) {
  TwppWpp Empty;
  std::string Path = uniqueTempPath("twpp_empty.twpp");
  ASSERT_TRUE(writeArchiveFile(Path, Empty));
  ArchiveReader Reader;
  ASSERT_TRUE(Reader.open(Path));
  EXPECT_EQ(Reader.functionCount(), 0u);
  TwppWpp Back;
  ASSERT_TRUE(Reader.readAll(Back));
  EXPECT_EQ(Back, Empty);
  std::remove(Path.c_str());
}

TEST(ArchiveEdgeTest, PrefixOnlyFileRejected) {
  // A file holding only the 28-byte prefix but advertising functions
  // must fail at open, not at first extract.
  TwppWpp Wpp;
  Wpp.Functions.resize(3);
  std::vector<uint8_t> Bytes = encodeArchive(Wpp);
  Bytes.resize(28);
  std::string Path = uniqueTempPath("twpp_prefix.twpp");
  ASSERT_TRUE(writeFileBytes(Path, Bytes));
  ArchiveReader Reader;
  EXPECT_FALSE(Reader.open(Path));
  std::remove(Path.c_str());
}

TEST(TwppEdgeTest, EmptyTraceCompactsAndReconstructs) {
  RawTrace Trace;
  Trace.FunctionCount = 4;
  TwppWpp Compacted = compactWpp(Trace);
  EXPECT_EQ(reconstructRawTrace(Compacted), Trace);
}

TEST(TwppEdgeTest, SingleCallNoBlocks) {
  RawTrace Trace;
  Trace.FunctionCount = 1;
  Trace.Events = {TraceEvent::enter(0), TraceEvent::exit()};
  TwppWpp Compacted = compactWpp(Trace);
  EXPECT_EQ(reconstructRawTrace(Compacted), Trace);
  EXPECT_EQ(Compacted.Functions[0].CallCount, 1u);
  EXPECT_EQ(Compacted.Functions[0].TraceStrings[0].Length, 0u);
}

TEST(TwppEdgeTest, LargeBlockIdsSurviveThePipeline) {
  RawTrace Trace;
  Trace.FunctionCount = 1;
  Trace.Events.push_back(TraceEvent::enter(0));
  for (BlockId B : {1000000u, 2000000u, 1000000u, 2000000u, 3000000u})
    Trace.Events.push_back(TraceEvent::block(B));
  Trace.Events.push_back(TraceEvent::exit());
  TwppWpp Compacted = compactWpp(Trace);
  EXPECT_EQ(reconstructRawTrace(Compacted), Trace);
}

} // namespace
