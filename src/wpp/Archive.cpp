//===- wpp/Archive.cpp - Compacted TWPP on-disk archive -------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Archive.h"

#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"
#include "obs/Trace.h"
#include "support/Arena.h"
#include "support/ByteStream.h"
#include "support/FileIO.h"
#include "support/LZW.h"
#include "wpp/VerifyHooks.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>

using namespace twpp;
using namespace twpp::archive;

namespace {

void encodeSeries(ByteWriter &Writer, const TimestampSet &Set) {
  std::vector<int64_t> Values = Set.encodeSigned();
  Writer.writeVarUint(Values.size());
  for (int64_t Value : Values)
    Writer.writeVarInt(Value);
}

/// Per-thread scratch for decodeSeries. One reset per series keeps the
/// footprint at the largest single series while the pooled blocks make
/// every decode after the first allocation-free.
Arena &decodeArena() {
  thread_local Arena Scratch(Arena::DefaultBlockBytes,
                             obs::memtags::ArenaDecode);
  return Scratch;
}

bool decodeSeries(ByteReader &Reader, TimestampSet &Set) {
  uint64_t Count = Reader.readVarUint();
  if (Reader.hasError() || Count > Reader.remaining() * 10)
    return false;
  Arena &Scratch = decodeArena();
  Scratch.reset();
  int64_t *Values =
      Scratch.allocateArray<int64_t>(static_cast<size_t>(Count));
  for (uint64_t I = 0; I != Count; ++I)
    Values[I] = Reader.readVarInt();
  if (Reader.hasError())
    return false;
  return TimestampSet::decodeSigned(Values, static_cast<size_t>(Count), Set);
}

void encodeDictionary(ByteWriter &Writer, const DbbDictionary &Dict) {
  Writer.writeVarUint(Dict.Chains.size());
  for (const auto &Chain : Dict.Chains) {
    Writer.writeVarUint(Chain.size());
    for (BlockId Block : Chain)
      Writer.writeVarUint(Block);
  }
}

bool decodeDictionary(ByteReader &Reader, DbbDictionary &Dict) {
  uint64_t ChainCount = Reader.readVarUint();
  if (Reader.hasError() || ChainCount > Reader.remaining())
    return false;
  Dict.Chains.resize(ChainCount);
  for (auto &Chain : Dict.Chains) {
    uint64_t Length = Reader.readVarUint();
    if (Reader.hasError() || Length < 2 || Length > Reader.remaining() + 2)
      return false;
    Chain.resize(Length);
    for (BlockId &Block : Chain)
      Block = static_cast<BlockId>(Reader.readVarUint());
  }
  return Reader.valid();
}

std::atomic<IoMode> DefaultIoMode{IoMode::Mmap};

void encodeThreadSection(ByteWriter &Writer, const ConcurrencyInfo &Conc) {
  Writer.writeVarUint(Conc.Threads.size());
  Writer.writeVarUint(Conc.FunctionCount);
  for (const ThreadInfo &T : Conc.Threads) {
    Writer.writeVarUint(T.Id);
    Writer.writeVarUint(T.BlockCount);
  }
}

void encodeEdgeSection(ByteWriter &Writer, const ConcurrencyInfo &Conc) {
  Writer.writeVarUint(Conc.Edges.size());
  for (const HbEdge &E : Conc.Edges) {
    Writer.writeVarUint(static_cast<uint64_t>(E.EdgeKind));
    Writer.writeVarUint(E.FromThread);
    Writer.writeVarUint(E.FromTime);
    Writer.writeVarUint(E.ToThread);
    Writer.writeVarUint(E.ToTime);
  }
}

void encodeAccessSection(ByteWriter &Writer, const ConcurrencyInfo &Conc) {
  Writer.writeVarUint(Conc.Accesses.size());
  for (const ThreadAccessTable &Table : Conc.Accesses) {
    Writer.writeVarUint(Table.Accesses.size());
    Address Prev = 0;
    for (const AddressAccess &Acc : Table.Accesses) {
      Writer.writeVarUint(Acc.Addr - Prev); // addresses sorted ascending
      Prev = Acc.Addr;
      encodeSeries(Writer, Acc.Reads);
      encodeSeries(Writer, Acc.Writes);
    }
  }
}

bool decodeThreadSection(ByteSpan Bytes, ConcurrencyInfo &Out) {
  ByteReader Reader(Bytes);
  uint64_t ThreadCount = Reader.readVarUint();
  Out.FunctionCount = static_cast<uint32_t>(Reader.readVarUint());
  if (Reader.hasError() || ThreadCount > Bytes.size())
    return false;
  Out.Threads.resize(ThreadCount);
  for (ThreadInfo &T : Out.Threads) {
    T.Id = static_cast<ThreadId>(Reader.readVarUint());
    T.BlockCount = Reader.readVarUint();
  }
  return Reader.valid();
}

bool decodeEdgeSection(ByteSpan Bytes, ConcurrencyInfo &Out) {
  ByteReader Reader(Bytes);
  uint64_t EdgeCount = Reader.readVarUint();
  if (Reader.hasError() || EdgeCount > Bytes.size())
    return false;
  Out.Edges.resize(EdgeCount);
  for (HbEdge &E : Out.Edges) {
    uint64_t Kind = Reader.readVarUint();
    if (Kind > static_cast<uint64_t>(HbEdge::Kind::Join))
      return false;
    E.EdgeKind = static_cast<HbEdge::Kind>(Kind);
    E.FromThread = static_cast<uint32_t>(Reader.readVarUint());
    E.FromTime = static_cast<uint32_t>(Reader.readVarUint());
    E.ToThread = static_cast<uint32_t>(Reader.readVarUint());
    E.ToTime = static_cast<uint32_t>(Reader.readVarUint());
  }
  return Reader.valid();
}

bool decodeAccessSection(ByteSpan Bytes, ConcurrencyInfo &Out) {
  ByteReader Reader(Bytes);
  uint64_t ThreadCount = Reader.readVarUint();
  if (Reader.hasError() || ThreadCount != Out.Threads.size())
    return false;
  Out.Accesses.resize(ThreadCount);
  for (ThreadAccessTable &Table : Out.Accesses) {
    uint64_t AddrCount = Reader.readVarUint();
    if (Reader.hasError() || AddrCount > Reader.remaining() + 1)
      return false;
    Table.Accesses.resize(AddrCount);
    Address Prev = 0;
    bool First = true;
    for (AddressAccess &Acc : Table.Accesses) {
      uint64_t Delta = Reader.readVarUint();
      if (!First && Delta == 0)
        return false; // addresses must be strictly ascending
      Acc.Addr = Prev + Delta;
      Prev = Acc.Addr;
      First = false;
      if (!decodeSeries(Reader, Acc.Reads) ||
          !decodeSeries(Reader, Acc.Writes))
        return false;
    }
  }
  return Reader.valid();
}

} // namespace

IoMode twpp::defaultArchiveIoMode() {
  return DefaultIoMode.load(std::memory_order_relaxed);
}

void twpp::setDefaultArchiveIoMode(IoMode Mode) {
  DefaultIoMode.store(Mode, std::memory_order_relaxed);
}

bool twpp::parseIoMode(const std::string &Text, IoMode &Mode) {
  if (Text == "mmap") {
    Mode = IoMode::Mmap;
    return true;
  }
  if (Text == "buffered") {
    Mode = IoMode::Buffered;
    return true;
  }
  return false;
}

const char *twpp::ioModeName(IoMode Mode) {
  return Mode == IoMode::Mmap ? "mmap" : "buffered";
}

void twpp::releaseArchiveDecodeScratch() { decodeArena().release(); }

bool twpp::decodeArchiveSection(uint32_t Tag, ByteSpan Payload,
                                ConcurrencyInfo &Out) {
  switch (Tag) {
  case ArchiveSectionThreads:
    return decodeThreadSection(Payload, Out);
  case ArchiveSectionHbEdges:
    return decodeEdgeSection(Payload, Out);
  case ArchiveSectionAccesses:
    return decodeAccessSection(Payload, Out);
  }
  return false;
}

std::vector<uint8_t>
twpp::encodeTwppFunctionTable(const TwppFunctionTable &Table) {
  ByteWriter Writer;
  Writer.writeVarUint(Table.CallCount);

  Writer.writeVarUint(Table.TraceStrings.size());
  for (const TwppTrace &Trace : Table.TraceStrings) {
    Writer.writeVarUint(Trace.Length);
    Writer.writeVarUint(Trace.Blocks.size());
    BlockId Prev = 0;
    for (const auto &[Block, Set] : Trace.Blocks) {
      Writer.writeVarUint(Block - Prev); // blocks sorted ascending
      Prev = Block;
      encodeSeries(Writer, Set);
    }
  }

  Writer.writeVarUint(Table.Dictionaries.size());
  for (const DbbDictionary &Dict : Table.Dictionaries)
    encodeDictionary(Writer, Dict);

  Writer.writeVarUint(Table.Traces.size());
  for (size_t I = 0; I < Table.Traces.size(); ++I) {
    Writer.writeVarUint(Table.Traces[I].first);
    Writer.writeVarUint(Table.Traces[I].second);
    Writer.writeVarUint(Table.UseCounts[I]);
  }
  return Writer.take();
}

bool twpp::decodeTwppFunctionTable(ByteSpan Bytes, TwppFunctionTable &Table) {
  Table = TwppFunctionTable();
  ByteReader Reader(Bytes);
  Table.CallCount = Reader.readVarUint();

  uint64_t StringCount = Reader.readVarUint();
  if (Reader.hasError() || StringCount > Bytes.size())
    return false;
  Table.TraceStrings.resize(StringCount);
  for (TwppTrace &Trace : Table.TraceStrings) {
    Trace.Length = static_cast<uint32_t>(Reader.readVarUint());
    uint64_t BlockCount = Reader.readVarUint();
    if (Reader.hasError() || BlockCount > Trace.Length ||
        BlockCount > Reader.remaining())
      return false;
    Trace.Blocks.resize(BlockCount);
    BlockId Prev = 0;
    uint64_t TotalTimestamps = 0;
    for (auto &[Block, Set] : Trace.Blocks) {
      Block = Prev + static_cast<BlockId>(Reader.readVarUint());
      Prev = Block;
      if (!decodeSeries(Reader, Set))
        return false;
      TotalTimestamps += Set.count();
    }
    // Every time step 1..Length belongs to exactly one block; reject
    // traces whose declared length the series cannot account for, so
    // later expansion never allocates for a phantom length.
    if (TotalTimestamps != Trace.Length)
      return false;
  }

  uint64_t DictCount = Reader.readVarUint();
  if (Reader.hasError() || DictCount > Bytes.size())
    return false;
  Table.Dictionaries.resize(DictCount);
  for (DbbDictionary &Dict : Table.Dictionaries)
    if (!decodeDictionary(Reader, Dict))
      return false;

  uint64_t TraceCount = Reader.readVarUint();
  if (Reader.hasError() || TraceCount > Bytes.size())
    return false;
  Table.Traces.resize(TraceCount);
  Table.UseCounts.resize(TraceCount);
  for (size_t I = 0; I < TraceCount; ++I) {
    uint64_t StringIdx = Reader.readVarUint();
    uint64_t DictIdx = Reader.readVarUint();
    Table.UseCounts[I] = Reader.readVarUint();
    if (StringIdx >= Table.TraceStrings.size() ||
        DictIdx >= Table.Dictionaries.size())
      return false;
    Table.Traces[I] = {static_cast<uint32_t>(StringIdx),
                       static_cast<uint32_t>(DictIdx)};
  }
  if (!Reader.valid())
    return false;
  if (obs::memTrackingEnabled()) {
    // Container overheads of the decoded table; the series payloads were
    // already recorded by TimestampSet::decodeSigned. Kept as an
    // independent tally of obs::deepSize so the twpp-mem-reconcile check
    // catches the two drifting apart.
    uint64_t Bytes = Table.TraceStrings.size() * sizeof(TwppTrace);
    for (const TwppTrace &Trace : Table.TraceStrings)
      Bytes += Trace.Blocks.size() * sizeof(std::pair<BlockId, TimestampSet>);
    Bytes += Table.Dictionaries.size() * sizeof(DbbDictionary);
    for (const DbbDictionary &Dict : Table.Dictionaries) {
      Bytes += Dict.Chains.size() * sizeof(std::vector<BlockId>);
      for (const std::vector<BlockId> &Chain : Dict.Chains)
        Bytes += Chain.size() * sizeof(BlockId);
    }
    Bytes += Table.Traces.size() * sizeof(std::pair<uint32_t, uint32_t>);
    Bytes += Table.UseCounts.size() * sizeof(uint64_t);
    obs::memAllocCurrent(Bytes);
  }
  return true;
}

namespace {

/// Shared layout for both versions: \p Conc == nullptr emits the
/// historical version-1 bytes; otherwise version 2 with the THRD/HBEG/
/// ACCS trailer after the DCG.
std::vector<uint8_t> encodeArchiveImpl(const TwppWpp &Wpp,
                                       const ParallelConfig &Config,
                                       const ConcurrencyInfo *Conc) {
  obs::PhaseSpan Span("archive_encode");
  uint32_t FunctionCount = static_cast<uint32_t>(Wpp.Functions.size());

  // Encode every function block concurrently; the layout below consumes
  // them in the stable call-count order, so the archive bytes do not
  // depend on the job count.
  std::vector<std::vector<uint8_t>> Blocks(FunctionCount);
  parallelFor(Config, FunctionCount, [&Wpp, &Blocks](size_t F) {
    obs::PhaseSpan FnSpan("encode_function", "function",
                          static_cast<int64_t>(F));
    Blocks[F] = encodeTwppFunctionTable(Wpp.Functions[F]);
    obs::memAlloc(obs::memtags::ArchiveEncode, Blocks[F].size());
  });

  // Most frequently called functions are stored first (paper Section 3).
  std::vector<uint32_t> Order(FunctionCount);
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&Wpp](uint32_t A, uint32_t B) {
    return Wpp.Functions[A].CallCount > Wpp.Functions[B].CallCount;
  });

  ByteWriter Writer;
  Writer.writeFixed32(Magic);
  Writer.writeFixed32(Conc ? VersionThreads : VersionSingle);
  Writer.writeFixed32(FunctionCount);
  size_t DcgFieldsAt = Writer.size();
  Writer.writeFixed64(0); // dcgOffset, patched below
  Writer.writeFixed64(0); // dcgLength, patched below
  size_t IndexAt = Writer.size();
  for (uint32_t F = 0; F != FunctionCount; ++F) {
    (void)F;
    Writer.writeFixed64(0);
    Writer.writeFixed64(0);
    Writer.writeFixed64(0);
  }

  std::vector<std::pair<uint64_t, uint64_t>> Extents(FunctionCount);
  for (uint32_t F : Order) {
    Extents[F] = {Writer.size(), Blocks[F].size()};
    Writer.writeBytes(Blocks[F].data(), Blocks[F].size());
    obs::memFree(obs::memtags::ArchiveEncode, Blocks[F].size());
  }

  std::vector<uint8_t> Dcg = lzwCompress(encodeDcg(Wpp.Dcg));
  Writer.patchFixed64(DcgFieldsAt, Writer.size());
  Writer.patchFixed64(DcgFieldsAt + 8, Dcg.size());
  Writer.writeBytes(Dcg.data(), Dcg.size());

  if (Conc) {
    auto WriteSection = [&Writer](uint32_t Tag, auto &&Encode) {
      Writer.writeFixed32(Tag);
      size_t LengthAt = Writer.size();
      Writer.writeFixed64(0);
      size_t PayloadAt = Writer.size();
      Encode();
      Writer.patchFixed64(LengthAt, Writer.size() - PayloadAt);
    };
    WriteSection(ArchiveSectionThreads,
                 [&] { encodeThreadSection(Writer, *Conc); });
    WriteSection(ArchiveSectionHbEdges,
                 [&] { encodeEdgeSection(Writer, *Conc); });
    WriteSection(ArchiveSectionAccesses,
                 [&] { encodeAccessSection(Writer, *Conc); });
  }

  for (uint32_t F = 0; F != FunctionCount; ++F) {
    size_t Row = IndexAt + static_cast<size_t>(F) * IndexRowSize;
    Writer.patchFixed64(Row, Extents[F].first);
    Writer.patchFixed64(Row + 8, Extents[F].second);
    Writer.patchFixed64(Row + 16, Wpp.Functions[F].CallCount);
  }
  std::vector<uint8_t> Out = Writer.take();
  // The stitched buffer is the encode path's high-water mark; alloc+free
  // so archive.encode records the peak without holding live bytes.
  obs::memAlloc(obs::memtags::ArchiveEncode, Out.size());
  obs::memFree(obs::memtags::ArchiveEncode, Out.size());
  maybeVerifyArchiveBytes(Out, "archive_encode");
  if (obs::enabled()) {
    obs::MetricsRegistry &M = obs::metrics();
    static obs::Counter &Encodes = M.counter(obs::names::ArchiveEncodes);
    Encodes.add();
    M.gauge(obs::names::ArchiveBytes).set(static_cast<int64_t>(Out.size()));
  }
  obs::traceInstant("archive_encoded", "bytes",
                    static_cast<int64_t>(Out.size()));
  return Out;
}

} // namespace

std::vector<uint8_t> twpp::encodeArchive(const TwppWpp &Wpp,
                                         const ParallelConfig &Config) {
  return encodeArchiveImpl(Wpp, Config, nullptr);
}

std::vector<uint8_t>
twpp::encodeConcurrentArchive(const ConcurrentWpp &Wpp,
                              const ParallelConfig &Config) {
  return encodeArchiveImpl(Wpp.Body, Config, &Wpp.Conc);
}

bool twpp::writeArchiveFile(const std::string &Path, const TwppWpp &Wpp,
                            const ParallelConfig &Config, IoError *Err) {
  IoError Result = writeFileBytesAtomic(Path, encodeArchive(Wpp, Config));
  if (Err)
    *Err = Result;
  return Result.ok();
}

bool twpp::writeConcurrentArchiveFile(const std::string &Path,
                                      const ConcurrentWpp &Wpp,
                                      const ParallelConfig &Config,
                                      IoError *Err) {
  IoError Result =
      writeFileBytesAtomic(Path, encodeConcurrentArchive(Wpp, Config));
  if (Err)
    *Err = Result;
  return Result.ok();
}

namespace {

verify::Diagnostic layoutFault(std::string CheckId, std::string Message,
                               std::string Location, uint64_t ByteOffset) {
  return verify::Diagnostic{std::move(CheckId), verify::Severity::Error,
                            std::move(Message), std::move(Location),
                            ByteOffset};
}

} // namespace

std::string twpp::archiveSectionName(uint32_t Tag) {
  return {static_cast<char>(Tag >> 24), static_cast<char>(Tag >> 16),
          static_cast<char>(Tag >> 8), static_cast<char>(Tag)};
}

LayoutFault twpp::parseArchiveHeader(ByteSpan Prefix, uint64_t FileSize,
                                     ArchiveHeader &Out) {
  Out = ArchiveHeader();
  if (Prefix.size() < HeaderSize || FileSize < HeaderSize)
    return layoutFault("twpp-archive-header",
                       "file of " + std::to_string(FileSize) +
                           " bytes is smaller than the fixed header (" +
                           std::to_string(HeaderSize) + " bytes)",
                       "header", 0);
  if (le32At(Prefix.begin(), 0) != Magic)
    return layoutFault("twpp-archive-header",
                       "bad magic (not a TWPP archive)", "header", 0);
  Out.Version = le32At(Prefix.begin(), 4);
  if (Out.Version != VersionSingle && Out.Version != VersionThreads)
    return layoutFault("twpp-archive-header",
                       "unsupported archive version " +
                           std::to_string(Out.Version),
                       "header", 4);
  Out.FunctionCount = le32At(Prefix.begin(), 8);
  Out.DcgOffset = le64At(Prefix.begin(), PrefixSize);
  Out.DcgLength = le64At(Prefix.begin(), PrefixSize + 8);
  // Every extent is checked against the file size so a corrupt header
  // cannot drive an absurd allocation later.
  if (static_cast<uint64_t>(Out.FunctionCount) * IndexRowSize >
      FileSize - HeaderSize)
    Out.CountFault = layoutFault(
        "twpp-archive-header",
        "function count " + std::to_string(Out.FunctionCount) +
            " implies an index larger than the file",
        "header", 8);
  if (Out.DcgOffset > FileSize || Out.DcgLength > FileSize - Out.DcgOffset)
    Out.DcgFault = layoutFault(
        "twpp-archive-header",
        "DCG extent (offset " + std::to_string(Out.DcgOffset) + ", length " +
            std::to_string(Out.DcgLength) + ") runs past end of file (" +
            std::to_string(FileSize) + " bytes)",
        "dcg extent", PrefixSize);
  return std::nullopt;
}

LayoutFault twpp::parseIndexRow(ByteSpan Index, uint32_t F,
                                uint64_t FileSize, ArchiveIndexRow &Out) {
  const uint64_t RowAt = static_cast<uint64_t>(F) * IndexRowSize;
  if (!Index.covers(RowAt, IndexRowSize))
    return layoutFault("twpp-archive-header", "truncated function index",
                       "index", HeaderSize);
  const uint8_t *Row = Index.begin() + RowAt;
  Out.Offset = le64At(Row, 0);
  Out.Length = le64At(Row, 8);
  Out.CallCount = le64At(Row, 16);
  if (Out.Offset > FileSize || Out.Length > FileSize - Out.Offset)
    return layoutFault("twpp-archive-index-bounds",
                       "block extent (offset " + std::to_string(Out.Offset) +
                           ", length " + std::to_string(Out.Length) +
                           ") runs past end of file",
                       "index row " + std::to_string(F), HeaderSize + RowAt);
  return std::nullopt;
}

const ArchiveSection *
twpp::findArchiveSection(const std::vector<ArchiveSection> &Sections,
                         uint32_t Tag) {
  for (const ArchiveSection &Sec : Sections)
    if (Sec.Tag == Tag)
      return &Sec;
  return nullptr;
}

LayoutFault twpp::parseSectionRecord(ByteSpan Head, uint64_t Pos,
                                     uint64_t FileSize,
                                     const std::vector<ArchiveSection> &Seen,
                                     ArchiveSection &Out) {
  if (Head.size() < SectionHeadSize || Pos > FileSize ||
      FileSize - Pos < SectionHeadSize)
    return layoutFault("twpp-archive-section",
                       "truncated section record at offset " +
                           std::to_string(Pos),
                       "section directory", Pos);
  Out.Tag = le32At(Head.begin(), 0);
  Out.Length = le64At(Head.begin(), 4);
  Out.Offset = Pos + SectionHeadSize;
  if (Out.Tag != ArchiveSectionThreads && Out.Tag != ArchiveSectionHbEdges &&
      Out.Tag != ArchiveSectionAccesses) {
    char Hex[9];
    std::snprintf(Hex, sizeof(Hex), "%08x", Out.Tag);
    return layoutFault("twpp-archive-section",
                       "unknown archive section tag 0x" + std::string(Hex),
                       "section directory", Pos);
  }
  if (Out.Length > FileSize - Out.Offset)
    return layoutFault("twpp-archive-section",
                       "section payload runs past end of file",
                       "section directory", Pos);
  if (findArchiveSection(Seen, Out.Tag))
    return layoutFault("twpp-archive-section",
                       "duplicate archive section tag", "section directory",
                       Pos);
  return std::nullopt;
}

LayoutFault
twpp::parseSectionTrailer(uint64_t TrailerStart, uint64_t FileSize,
                          const std::function<ByteSpan(uint64_t)> &ReadHead,
                          std::vector<ArchiveSection> &Out) {
  Out.clear();
  for (uint64_t Pos = TrailerStart; Pos < FileSize;) {
    ArchiveSection Sec;
    if (LayoutFault Fault =
            parseSectionRecord(ReadHead(Pos), Pos, FileSize, Out, Sec)) {
      Out.clear();
      return Fault;
    }
    Out.push_back(Sec);
    Pos = Sec.Offset + Sec.Length;
  }
  return std::nullopt;
}

LayoutFault
twpp::requireArchiveSection(const std::vector<ArchiveSection> &Sections,
                            uint32_t Tag, uint64_t TrailerStart) {
  if (findArchiveSection(Sections, Tag))
    return std::nullopt;
  return layoutFault("twpp-archive-section",
                     "version 2 archive is missing the " +
                         archiveSectionName(Tag) + " section",
                     "section directory", TrailerStart);
}

bool ArchiveReader::fail(verify::Diagnostic Fault) const {
  LastError = std::move(Fault);
  return false;
}

bool ArchiveReader::fail(std::string CheckId, std::string Message,
                         std::string Section, uint64_t ByteOffset) const {
  return fail(layoutFault(std::move(CheckId), std::move(Message),
                          std::move(Section), ByteOffset));
}

bool ArchiveReader::open(const std::string &ArchivePath) {
  return open(ArchivePath, defaultArchiveIoMode());
}

bool ArchiveReader::readSlice(uint64_t Offset, uint64_t Length,
                              std::vector<uint8_t> &Storage,
                              ByteSpan &Out) const {
  if (Mode == IoMode::Mmap) {
    if (!Map.span().covers(Offset, Length))
      return false;
    Out = Map.span().subspan(Offset, Length);
    return true;
  }
  if (!readFileSlice(Path, Offset, Length, Storage))
    return false;
  Out = ByteSpan(Storage);
  return true;
}

bool ArchiveReader::open(const std::string &ArchivePath, IoMode WantMode) {
  obs::PhaseSpan Span("archive_open");
  static obs::Counter &IndexReads =
      obs::metrics().counter(obs::names::ArchiveIndexReads);
  IndexReads.add();
  Path = ArchivePath;
  Index.clear();
  Sections.clear();
  Version = 1;
  Map.unmap();
  Mode = IoMode::Buffered;
  if (WantMode == IoMode::Mmap) {
    if (MappedFile::available() && Map.map(ArchivePath))
      Mode = IoMode::Mmap;
    else
      // Graceful degradation: any mmap failure (platform, fault
      // injection, IO) silently becomes the buffered path, identical in
      // everything but speed.
      obs::metrics().counter(obs::names::ArchiveMmapFallbacks).add();
  }

  std::vector<uint8_t> PrefixBytes;
  ByteSpan Prefix;
  if (!readSlice(0, HeaderSize, PrefixBytes, Prefix))
    return fail("twpp-archive-header",
                "cannot read the fixed header (file missing or smaller "
                "than " +
                    std::to_string(HeaderSize) + " bytes)",
                "header", 0);
  // A stat failure is its own error, not an empty file: the extent
  // checks would otherwise reject every archive with a misleading
  // message. In mmap mode the mapping's length IS the file size.
  std::optional<uint64_t> MaybeSize = Mode == IoMode::Mmap
                                          ? std::optional<uint64_t>(Map.size())
                                          : fileSize(Path);
  if (!MaybeSize)
    return fail("twpp-archive-header",
                "cannot determine the archive file size", "header", 0);
  const uint64_t Size = *MaybeSize;
  ArchiveHeader Header;
  if (LayoutFault Fault = parseArchiveHeader(Prefix, Size, Header))
    return fail(std::move(*Fault));
  if (Header.DcgFault)
    return fail(std::move(*Header.DcgFault));
  if (Header.CountFault)
    return fail(std::move(*Header.CountFault));
  DcgOffset = Header.DcgOffset;
  DcgLength = Header.DcgLength;

  std::vector<uint8_t> IndexBytes;
  ByteSpan IndexSpan;
  if (!readSlice(HeaderSize,
                 static_cast<uint64_t>(Header.FunctionCount) * IndexRowSize,
                 IndexBytes, IndexSpan))
    return fail("twpp-archive-header", "cannot read the function index",
                "index", HeaderSize);
  Index.resize(Header.FunctionCount);
  for (uint32_t F = 0; F != Header.FunctionCount; ++F)
    if (LayoutFault Fault = parseIndexRow(IndexSpan, F, Size, Index[F])) {
      Index.clear();
      return fail(std::move(*Fault));
    }

  // Version 2: walk the section trailer between the DCG and end of file,
  // reading only the record heads. Unknown tags are a hard error — a
  // reader that does not understand a section cannot claim to have read
  // the archive (this is how the thread trailer degrades loudly instead
  // of being silently dropped).
  if (Header.Version == VersionThreads) {
    std::vector<uint8_t> HeadBytes;
    auto ReadHead = [this, &HeadBytes](uint64_t Pos) {
      ByteSpan Head;
      return readSlice(Pos, SectionHeadSize, HeadBytes, Head) ? Head
                                                              : ByteSpan();
    };
    LayoutFault Fault =
        parseSectionTrailer(Header.dcgEnd(), Size, ReadHead, Sections);
    if (!Fault)
      Fault = requireArchiveSection(Sections, ArchiveSectionThreads,
                                    Header.dcgEnd());
    if (Fault) {
      Sections.clear();
      Index.clear();
      return fail(std::move(*Fault));
    }
  }
  Version = Header.Version;
  return true;
}

bool ArchiveReader::readConcurrency(ConcurrencyInfo &Out) const {
  Out = ConcurrencyInfo();
  // THRD decodes first: the access decoder checks its thread count
  // against the table.
  const uint32_t Tags[] = {ArchiveSectionThreads, ArchiveSectionHbEdges,
                           ArchiveSectionAccesses};
  for (uint32_t Tag : Tags)
    if (!findArchiveSection(Sections, Tag))
      return fail("twpp-archive-section",
                  "archive has no thread-aware section trailer", "sections",
                  verify::NoByteOffset);
  obs::PhaseSpan Span("archive_read_concurrency");
  obs::MemScope MemSpan(obs::memtags::ArchiveDecode,
                        obs::MemScope::Nest::IfUnscoped);
  std::vector<uint8_t> Storage;
  for (uint32_t Tag : Tags) {
    const ArchiveSection &Sec = *findArchiveSection(Sections, Tag);
    ByteSpan Bytes;
    if (!readSlice(Sec.Offset, Sec.Length, Storage, Bytes) ||
        !decodeArchiveSection(Tag, Bytes, Out)) {
      std::string Name = archiveSectionName(Tag);
      return fail("twpp-archive-section", Name + " section does not decode",
                  Name + " section", Sec.Offset);
    }
  }
  return true;
}

bool ArchiveReader::readAllConcurrent(ConcurrentWpp &Out) const {
  Out = ConcurrentWpp();
  if (!readConcurrency(Out.Conc))
    return false;
  return readAll(Out.Body);
}

bool ArchiveReader::extractFunction(FunctionId Function,
                                    TwppFunctionTable &Table) const {
  if (Function >= Index.size())
    return fail("twpp-archive-index-bounds",
                "function " + std::to_string(Function) +
                    " not in the archive (index holds " +
                    std::to_string(Index.size()) + " rows)",
                "index", verify::NoByteOffset);
  obs::PhaseSpan Span("archive_extract", "function",
                      static_cast<int64_t>(Function));
  obs::MemScope MemSpan(obs::memtags::ArchiveDecode,
                        obs::MemScope::Nest::IfUnscoped);
  std::vector<uint8_t> Storage;
  ByteSpan Block;
  if (!readSlice(Index[Function].Offset, Index[Function].Length, Storage,
                 Block))
    return fail("twpp-archive-block-decode",
                "cannot read the function block slice",
                "function " + std::to_string(Function) + " block",
                Index[Function].Offset);
  if (obs::enabled()) {
    // The Table 4 access-time story: one index row + one block per query.
    obs::MetricsRegistry &M = obs::metrics();
    static obs::Counter &BlockReads =
        M.counter(obs::names::ArchiveBlockReads);
    static obs::Counter &BytesRead =
        M.counter(obs::names::ArchiveBlockBytesRead);
    static obs::Histogram &BlockBytes = M.histogram(
        obs::names::ArchiveBlockBytes, obs::names::powerOfTwoBounds(1u << 24));
    BlockReads.add();
    BytesRead.add(Block.size());
    BlockBytes.record(Block.size());
    M.gauge(obs::names::ArenaDecodeReservedBytes)
        .set(static_cast<int64_t>(decodeArena().bytesReserved()));
  }
  if (!decodeTwppFunctionTable(Block, Table))
    return fail("twpp-archive-block-decode", "function block does not decode",
                "function " + std::to_string(Function) + " block",
                Index[Function].Offset);
  return true;
}

bool ArchiveReader::extractFunctionPathTraces(FunctionId Function,
                                              FunctionPathTraces &Out) const {
  TwppFunctionTable Table;
  if (!extractFunction(Function, Table))
    return false;
  Out = expandFunctionTraces(Table);
  return true;
}

bool ArchiveReader::readDcg(DynamicCallGraph &Dcg) const {
  obs::PhaseSpan Span("archive_read_dcg");
  obs::MemScope MemSpan(obs::memtags::ArchiveDecode,
                        obs::MemScope::Nest::IfUnscoped);
  static obs::Counter &DcgReads =
      obs::metrics().counter(obs::names::ArchiveDcgReads);
  DcgReads.add();
  std::vector<uint8_t> Storage;
  ByteSpan Compressed;
  if (!readSlice(DcgOffset, DcgLength, Storage, Compressed))
    return fail("twpp-archive-dcg-decode", "cannot read the DCG slice",
                "dcg", DcgOffset);
  std::vector<uint8_t> Raw;
  if (!lzwDecompress(Compressed, Raw))
    return fail("twpp-archive-dcg-decode", "DCG does not LZW-decompress",
                "dcg", DcgOffset);
  if (!decodeDcg(Raw, Dcg))
    return fail("twpp-archive-dcg-decode",
                "decompressed DCG does not decode as a call graph", "dcg",
                DcgOffset);
  return true;
}

bool ArchiveReader::readAll(TwppWpp &Wpp) const {
  obs::MemScope MemSpan(obs::memtags::ArchiveDecode,
                        obs::MemScope::Nest::IfUnscoped);
  Wpp = TwppWpp();
  if (!readDcg(Wpp.Dcg))
    return false;
  Wpp.Functions.resize(Index.size());
  obs::memAllocCurrent(Index.size() * sizeof(TwppFunctionTable));
  for (FunctionId F = 0; F != Index.size(); ++F)
    if (!extractFunction(F, Wpp.Functions[F]))
      return false;
  return true;
}
