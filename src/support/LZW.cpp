//===- support/LZW.cpp - Welch's adaptive dictionary codec ----------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/LZW.h"

#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"
#include "support/ByteStream.h"
#include "support/Intern.h"

#include <algorithm>

using namespace twpp;

namespace {

/// Encoder dictionary key: (prefix code, next byte) packed into 64 bits.
/// The packing is injective, so the key is its own hash and equal hashes
/// mean equal strings.
uint64_t packKey(uint32_t PrefixCode, uint8_t Byte) {
  return (static_cast<uint64_t>(PrefixCode) << 8) | Byte;
}

/// Decoder-side dictionary entry. Entries 0-255 are the implicit single
/// byte roots; later entries chain back through Prefix.
struct DecodeEntry {
  uint32_t Prefix;   ///< Code of the string this entry extends.
  uint8_t LastByte;  ///< Byte appended to the prefix string.
  uint8_t FirstByte; ///< First byte of the full string (for KwKwK).
  uint32_t Length;   ///< Full expanded length.
};

} // namespace

std::vector<uint8_t> twpp::lzwCompress(const std::vector<uint8_t> &Input) {
  obs::PhaseSpan Span("lzw_compress");
  ByteWriter Writer;
  if (Input.empty())
    return Writer.take();

  // Codes 0-255 are the single-byte strings; code 256 + I is the
  // dictionary's first-seen index I. At LZWMaxDictSize codes the
  // dictionary freezes and is only looked up.
  Interner Dict;
  auto SameKey = [](uint32_t) { return true; };
  uint32_t Current = Input[0];
  for (size_t I = 1, E = Input.size(); I != E; ++I) {
    uint8_t Byte = Input[I];
    uint64_t Key = packKey(Current, Byte);
    uint32_t Known = Dict.size();
    uint32_t Index = 256 + Known < LZWMaxDictSize ? Dict.intern(Key, SameKey)
                                                  : Dict.find(Key, SameKey);
    if (Index < Known) {
      Current = 256 + Index;
      continue;
    }
    Writer.writeVarUint(Current);
    Current = Byte;
  }
  Writer.writeVarUint(Current);
  std::vector<uint8_t> Out = Writer.take();
  if (obs::enabled()) {
    obs::MetricsRegistry &M = obs::metrics();
    static obs::Counter &Calls = M.counter(obs::names::LzwCompressCalls);
    static obs::Counter &BytesIn = M.counter(obs::names::LzwCompressBytesIn);
    static obs::Counter &BytesOut = M.counter(obs::names::LzwCompressBytesOut);
    static obs::Counter &DictEntries = M.counter(obs::names::LzwDictEntries);
    Calls.add();
    BytesIn.add(Input.size());
    BytesOut.add(Out.size());
    DictEntries.add(Dict.size());
  }
  return Out;
}

namespace {

void noteDecompress(size_t BytesInCount, size_t BytesOutCount) {
  if (!obs::enabled())
    return;
  obs::MetricsRegistry &M = obs::metrics();
  static obs::Counter &Calls = M.counter(obs::names::LzwDecompressCalls);
  static obs::Counter &BytesIn = M.counter(obs::names::LzwDecompressBytesIn);
  static obs::Counter &BytesOut = M.counter(obs::names::LzwDecompressBytesOut);
  Calls.add();
  BytesIn.add(BytesInCount);
  BytesOut.add(BytesOutCount);
}

} // namespace

bool twpp::lzwDecompress(ByteSpan Input, std::vector<uint8_t> &Output) {
  obs::PhaseSpan Span("lzw_decompress");
  Output.clear();
  if (Input.empty()) {
    noteDecompress(0, 0);
    return true;
  }

  ByteReader Reader(Input);
  // Every code is at least one byte and defines at most one entry.
  std::vector<DecodeEntry> Dict;
  Dict.reserve(std::min<size_t>(Input.size(), LZWMaxDictSize - 256));

  // Expands code \p Code to the end of Output. Returns false on a bad code.
  auto Expand = [&Dict, &Output](uint32_t Code) -> bool {
    if (Code < 256) {
      Output.push_back(static_cast<uint8_t>(Code));
      return true;
    }
    uint32_t Index = Code - 256;
    if (Index >= Dict.size())
      return false;
    const DecodeEntry &Entry = Dict[Index];
    size_t Start = Output.size();
    Output.resize(Start + Entry.Length);
    size_t Pos = Start + Entry.Length;
    uint32_t Walk = Code;
    while (Walk >= 256) {
      const DecodeEntry &E = Dict[Walk - 256];
      Output[--Pos] = E.LastByte;
      Walk = E.Prefix;
    }
    Output[--Pos] = static_cast<uint8_t>(Walk);
    return true;
  };

  auto FirstByteOf = [&Dict](uint32_t Code) -> uint8_t {
    if (Code < 256)
      return static_cast<uint8_t>(Code);
    return Dict[Code - 256].FirstByte;
  };

  auto LengthOf = [&Dict](uint32_t Code) -> uint32_t {
    if (Code < 256)
      return 1;
    return Dict[Code - 256].Length;
  };

  uint64_t First = Reader.readVarUint();
  if (Reader.hasError() || First >= 256) {
    Output.clear();
    return false;
  }
  uint32_t Previous = static_cast<uint32_t>(First);
  Output.push_back(static_cast<uint8_t>(Previous));

  while (!Reader.atEnd()) {
    uint64_t Raw = Reader.readVarUint();
    uint32_t NextCode = 256 + static_cast<uint32_t>(Dict.size());
    bool Open = NextCode < LZWMaxDictSize;
    // KwKwK: the code being defined right now. Its expansion is the
    // previous string plus that string's first byte.
    bool KwKwK = Open && Raw == NextCode;
    if (Reader.hasError() || (Raw >= NextCode && !KwKwK)) {
      Output.clear();
      return false;
    }
    uint32_t Code = static_cast<uint32_t>(Raw);
    if (Open)
      Dict.push_back({Previous, FirstByteOf(KwKwK ? Previous : Code),
                      FirstByteOf(Previous), LengthOf(Previous) + 1});
    if (!Expand(Code)) {
      Output.clear();
      return false;
    }
    Previous = Code;
  }
  noteDecompress(Input.size(), Output.size());
  return true;
}
