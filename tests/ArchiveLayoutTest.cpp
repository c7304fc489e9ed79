//===- tests/ArchiveLayoutTest.cpp - reader/verifier layout agreement ------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ArchiveReader::open and the byte-level verifier parse the archive
/// header, index and section trailer through the same layout parsers
/// (wpp/Archive.h), so for every header, index and section mutation the
/// corruption suites build, the reader's lastError() and the verifier's
/// first structural diagnostic must name the same check, location and
/// byte offset — on both read paths.
///
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"
#include "support/FileIO.h"
#include "verify/ArchiveChecks.h"
#include "verify/Checks.h"
#include "workloads/Concurrent.h"
#include "wpp/Archive.h"
#include "wpp/Concurrent.h"

#include "TestSupport.h"
#include "TestTraces.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;

namespace {

constexpr size_t IndexStart = 28;
constexpr size_t IndexRowSize = 24;

void writeLe64(std::vector<uint8_t> &Bytes, size_t At, uint64_t Value) {
  for (int I = 0; I < 8; ++I)
    Bytes[At + I] = static_cast<uint8_t>(Value >> (8 * I));
}

/// The verifier's first diagnostic from a layout check (header, index
/// bounds or section trailer), or nullptr.
const verify::Diagnostic *
firstStructuralError(const verify::DiagnosticEngine &Engine) {
  for (const verify::Diagnostic &D : Engine.diagnostics())
    if (D.Sev == verify::Severity::Error &&
        (D.CheckId == verify::checks::ArchiveHeader ||
         D.CheckId == verify::checks::ArchiveIndexBounds ||
         D.CheckId == verify::checks::ArchiveSection))
      return &D;
  return nullptr;
}

struct Mutation {
  std::string Name;
  std::vector<uint8_t> Bytes;
};

std::vector<Mutation> buildMutations() {
  const std::vector<uint8_t> V1 =
      encodeArchive(compactWpp(fixtures::randomTrace(2024, 6, 3000)));
  const std::vector<uint8_t> V2 = encodeConcurrentArchive(compactConcurrentWpp(
      generateConcurrentTrace(testConcurrentProfiles()[0])));
  std::vector<Mutation> Out;
  auto Add = [&Out](std::string Name, std::vector<uint8_t> Bytes) {
    Out.push_back({std::move(Name), std::move(Bytes)});
  };

  // Header.
  Add("empty", {});
  Add("short_header", std::vector<uint8_t>(V1.begin(), V1.begin() + 20));
  {
    std::vector<uint8_t> V = V1;
    V[0] ^= 0xFF;
    Add("bad_magic", std::move(V));
  }
  {
    std::vector<uint8_t> V = V1;
    V[4] ^= 0xFF;
    Add("bad_version", std::move(V));
  }
  {
    std::vector<uint8_t> V = V1;
    V[8] = V[9] = V[10] = 0xFF;
    V[11] = 0x7F;
    Add("count_past_eof", std::move(V));
  }
  {
    std::vector<uint8_t> V = V1;
    writeLe64(V, 12, V1.size() + 1);
    Add("dcg_offset_past_eof", std::move(V));
  }
  {
    std::vector<uint8_t> V = V1;
    writeLe64(V, 20, V1.size());
    Add("dcg_length_past_eof", std::move(V));
  }

  // Truncations: the prefix lengths the corruption suites cut at, plus a
  // torn tail.
  const size_t FunctionCount = le32At(V1.data(), 8);
  const size_t IndexEnd = IndexStart + FunctionCount * IndexRowSize;
  for (size_t Length : {size_t(1), size_t(11), size_t(27), IndexStart,
                        IndexStart + 5, IndexEnd - 1, IndexEnd,
                        V1.size() - V1.size() / 4, V1.size() - 1})
    Add("truncated_" + std::to_string(Length),
        std::vector<uint8_t>(V1.begin(), V1.begin() + Length));

  // Index.
  for (size_t F : {size_t(0), FunctionCount / 2, FunctionCount - 1}) {
    size_t Row = IndexStart + F * IndexRowSize;
    std::vector<uint8_t> V = V1;
    writeLe64(V, Row, V1.size() + 1000);
    Add("row_" + std::to_string(F) + "_offset_past_eof", std::move(V));
    V = V1;
    writeLe64(V, Row, ~uint64_t(0) - 8);
    writeLe64(V, Row + 8, 1000);
    Add("row_" + std::to_string(F) + "_extent_wraps", std::move(V));
  }

  // Section trailer: records start right after the DCG.
  const size_t TrailerAt =
      static_cast<size_t>(le64At(V2.data(), 12) + le64At(V2.data(), 20));
  std::vector<std::vector<uint8_t>> Records;
  for (size_t Pos = TrailerAt; Pos < V2.size();) {
    size_t End = Pos + 12 + static_cast<size_t>(le64At(V2.data(), Pos + 4));
    Records.emplace_back(V2.begin() + Pos, V2.begin() + End);
    Pos = End;
  }
  EXPECT_EQ(Records.size(), 3u) << "THRD, HBEG, ACCS";
  auto WithTrailer = [&](std::vector<size_t> Order) {
    std::vector<uint8_t> V(V2.begin(), V2.begin() + TrailerAt);
    for (size_t I : Order)
      V.insert(V.end(), Records[I].begin(), Records[I].end());
    return V;
  };
  {
    std::vector<uint8_t> V = V2;
    V[TrailerAt] = V[TrailerAt + 1] = V[TrailerAt + 2] = V[TrailerAt + 3] =
        'X';
    Add("unknown_section", std::move(V));
  }
  Add("duplicate_section", WithTrailer({0, 1, 2, 0}));
  Add("missing_thrd", WithTrailer({1, 2}));
  Add("truncated_trailer",
      std::vector<uint8_t>(V2.begin(), V2.end() - 7));
  Add("truncated_section_head",
      std::vector<uint8_t>(V2.begin(), V2.begin() + TrailerAt + 5));
  return Out;
}

TEST(ArchiveLayoutAgreement, ReaderAndVerifierNameTheSameFirstFault) {
  for (const Mutation &M : buildMutations()) {
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(M.Bytes, Engine);
    const verify::Diagnostic *Verifier = firstStructuralError(Engine);
    ASSERT_NE(Verifier, nullptr)
        << M.Name << ": " << verify::renderDiagnosticsText(Engine);

    std::string Path = uniqueTempPath(M.Name + ".twpp");
    ASSERT_TRUE(writeFileBytes(Path, M.Bytes).ok()) << M.Name;
    for (IoMode Mode : {IoMode::Buffered, IoMode::Mmap}) {
      ArchiveReader Reader;
      ASSERT_FALSE(Reader.open(Path, Mode)) << M.Name;
      const verify::Diagnostic &Open = Reader.lastError();
      std::string What = M.Name + " (" + ioModeName(Mode) + ")";
      EXPECT_EQ(Open.CheckId, Verifier->CheckId) << What;
      EXPECT_EQ(Open.Location, Verifier->Location) << What;
      EXPECT_EQ(Open.ByteOffset, Verifier->ByteOffset) << What;
    }
    std::remove(Path.c_str());
  }
}

} // namespace
