//===- wpp/Archive.h - Compacted TWPP on-disk archive -----------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compacted TWPP file format. Per the paper's access-time design
/// (Section 3): a fixed header records where each function's block lives;
/// the path traces (with dictionaries) of the most frequently called
/// function are stored first; the LZW-compressed dynamic call graph
/// follows the function blocks. Extracting one function's traces costs two
/// small reads (index row + block) regardless of archive size — this is
/// what produces the >3 orders of magnitude speedup of Table 4.
///
/// Layout:
///   [0)   magic (fixed32) | version (fixed32) | functionCount (fixed32)
///   [12)  dcgOffset (fixed64) | dcgLength (fixed64)
///   [28)  index: functionCount rows of offset/length/callCount (fixed64x3)
///   [...] function blocks, sorted by call count descending
///   [...] LZW-compressed DCG
///
/// Version 2 (thread-aware archives only; single-threaded archives keep
/// emitting byte-identical version-1 files) appends a section trailer
/// after the DCG: a sequence of `tag (fixed32) | length (fixed64) |
/// payload` records walked to end of file. Known tags are "THRD" (thread
/// table), "HBEG" (happens-before edges) and "ACCS" (per-thread
/// per-address access timestamp sets); an unknown tag is a hard open()
/// error (twpp-archive-section), never silently skipped.
///
/// The layout is parsed in exactly one place: the piecewise parsers
/// below (parseArchiveHeader, parseIndexRow, parseSectionRecord and the
/// parseSectionTrailer walk). ArchiveReader, the byte-level verifier and
/// twpp_recover all call them and differ only in policy — the reader
/// stops at the first fault, the verifier reports every fault, salvage
/// tolerates what it can.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_ARCHIVE_H
#define TWPP_WPP_ARCHIVE_H

#include "support/FileIO.h"     // IoError
#include "support/Mmap.h"       // MappedFile + ByteSpan
#include "verify/Diagnostics.h" // header-only; no link dependency
#include "wpp/Concurrent.h"
#include "wpp/Twpp.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace twpp {

/// The on-disk layout constants (docs/FORMATS.md). Defined here once;
/// every archive parser and the encoder use these.
namespace archive {
inline constexpr uint32_t Magic = 0x54575050;  // "TWPP"
inline constexpr uint32_t VersionSingle = 1;   // single-threaded layout
inline constexpr uint32_t VersionThreads = 2;  // + section trailer
inline constexpr size_t PrefixSize = 12;       // magic + version + count
inline constexpr size_t DcgFieldsSize = 16;    // dcgOffset + dcgLength
inline constexpr size_t HeaderSize = PrefixSize + DcgFieldsSize;
inline constexpr size_t IndexRowSize = 24;     // offset + length + calls
inline constexpr size_t SectionHeadSize = 12;  // tag (fixed32) + length
} // namespace archive

/// Version-2 section trailer tags ("THRD", "HBEG", "ACCS" as big-endian
/// ASCII). Stable on-disk identifiers — never renumber.
inline constexpr uint32_t ArchiveSectionThreads = 0x54485244;
inline constexpr uint32_t ArchiveSectionHbEdges = 0x48424547;
inline constexpr uint32_t ArchiveSectionAccesses = 0x41434353;

/// The four ASCII characters of a section tag ("THRD").
std::string archiveSectionName(uint32_t Tag);

/// What a layout parser found wrong: check id, message, location and
/// byte offset of the first fault, or nothing when the bytes are sound.
/// The parsers apply no policy; callers decide whether a fault stops
/// them, is reported and skipped, or is tolerated.
using LayoutFault = std::optional<verify::Diagnostic>;

/// The fixed header's fields.
struct ArchiveHeader {
  uint32_t Version = 0;
  uint32_t FunctionCount = 0;
  uint64_t DcgOffset = 0;
  uint64_t DcgLength = 0;
  /// FunctionCount index rows do not fit in the file (header, offset 8).
  LayoutFault CountFault;
  /// The DCG extent runs past end of file (dcg extent, offset 12).
  LayoutFault DcgFault;

  uint64_t dcgEnd() const { return DcgOffset + DcgLength; }
};

/// Parses the fixed header from \p Prefix, the first bytes of a file of
/// \p FileSize bytes (at least archive::HeaderSize of them for a sound
/// header). \returns the fault that leaves nothing else readable: a short
/// header, bad magic or an unsupported version. The two extent checks,
/// which callers weigh differently, land in Out.CountFault and
/// Out.DcgFault.
LayoutFault parseArchiveHeader(ByteSpan Prefix, uint64_t FileSize,
                               ArchiveHeader &Out);

/// One index row: where a function's block lives and its call count.
struct ArchiveIndexRow {
  uint64_t Offset = 0;
  uint64_t Length = 0;
  uint64_t CallCount = 0;
};

/// Parses row \p F of \p Index (the index region, which starts at file
/// offset archive::HeaderSize) and checks its block extent against
/// \p FileSize. \p Out holds the row's fields even when its extent
/// check fails.
LayoutFault parseIndexRow(ByteSpan Index, uint32_t F, uint64_t FileSize,
                          ArchiveIndexRow &Out);

/// One version-2 section record; Offset is the payload's file offset.
struct ArchiveSection {
  uint32_t Tag = 0;
  uint64_t Offset = 0;
  uint64_t Length = 0;
};

/// The record for \p Tag in \p Sections, or nullptr.
const ArchiveSection *findArchiveSection(
    const std::vector<ArchiveSection> &Sections, uint32_t Tag);

/// Parses the section record at file offset \p Pos from \p Head (the
/// archive::SectionHeadSize bytes there; fewer means truncation). Checks
/// that the tag is known, that the payload fits in \p FileSize and that
/// \p Seen holds no record with the same tag.
LayoutFault parseSectionRecord(ByteSpan Head, uint64_t Pos, uint64_t FileSize,
                               const std::vector<ArchiveSection> &Seen,
                               ArchiveSection &Out);

/// Walks the version-2 section trailer, [TrailerStart, FileSize), into
/// \p Out and stops at the first bad record. \p ReadHead produces the
/// record head at a file offset (an empty span when it cannot), so a
/// buffered reader touches only the heads, never the payloads.
LayoutFault
parseSectionTrailer(uint64_t TrailerStart, uint64_t FileSize,
                    const std::function<ByteSpan(uint64_t)> &ReadHead,
                    std::vector<ArchiveSection> &Out);

/// The fault for a version-2 archive whose trailer lacks section \p Tag,
/// or nothing when \p Sections holds it.
LayoutFault requireArchiveSection(const std::vector<ArchiveSection> &Sections,
                                  uint32_t Tag, uint64_t TrailerStart);

/// How ArchiveReader gets bytes off disk.
///  - Buffered: read() each extent into an owned buffer (the historical
///    path, and the fallback).
///  - Mmap: map the file once and decode every extent in place through
///    ByteSpan cursors — the zero-copy path. When the mapping cannot be
///    established (platform without mmap, injected io:mmap fault, IO
///    error) the reader falls back to Buffered and counts
///    archive.mmap_fallbacks; decoded structures are identical either way.
enum class IoMode : uint8_t { Buffered, Mmap };

/// Process-wide default mode for ArchiveReader::open(Path). Ships as Mmap
/// (zero-copy with graceful fallback); the CLIs' --io=mmap|buffered flag
/// sets it explicitly.
IoMode defaultArchiveIoMode();
void setDefaultArchiveIoMode(IoMode Mode);

/// Parses an --io= flag value ("mmap" or "buffered"). \returns false on
/// anything else, leaving \p Mode untouched.
bool parseIoMode(const std::string &Text, IoMode &Mode);

/// "mmap" / "buffered".
const char *ioModeName(IoMode Mode);

/// Returns the calling thread's pooled decode-scratch arena (arena.decode
/// ledger bytes) to the heap. Decode keeps the pool warm across queries by
/// design; long-idle services and leak-asserting tests call this to settle
/// the ledger explicitly.
void releaseArchiveDecodeScratch();

/// Serializes one function's TWPP tables (trace strings, dictionaries,
/// (t, d) pairs, use counts).
std::vector<uint8_t> encodeTwppFunctionTable(const TwppFunctionTable &Table);

/// Inverse of encodeTwppFunctionTable. \returns false on malformed bytes.
/// The span form is the primary entry point: the mmap read path hands it
/// a cursor straight into the mapping.
bool decodeTwppFunctionTable(ByteSpan Bytes, TwppFunctionTable &Table);

inline bool decodeTwppFunctionTable(const std::vector<uint8_t> &Bytes,
                                    TwppFunctionTable &Table) {
  return decodeTwppFunctionTable(ByteSpan(Bytes), Table);
}

/// Serializes a whole compacted TWPP into the archive byte format.
/// Function blocks are encoded concurrently under \p Config and stitched
/// serially in stable call-count order, so the bytes are identical for
/// any job count.
std::vector<uint8_t> encodeArchive(const TwppWpp &Wpp,
                                   const ParallelConfig &Config = {});

/// Writes \p Wpp to \p Path in archive format (atomically: temp + fsync
/// + rename). \returns true on success; on failure \p Err, when given,
/// receives the typed IO error.
bool writeArchiveFile(const std::string &Path, const TwppWpp &Wpp,
                      const ParallelConfig &Config = {},
                      IoError *Err = nullptr);

/// Decodes one version-2 section payload into the matching fields of
/// \p Out. THRD must be decoded before ACCS (the access decoder checks
/// the thread count against the table). \returns false on malformed
/// bytes or an unknown tag. Exposed for the verifier's raw-byte walk.
bool decodeArchiveSection(uint32_t Tag, ByteSpan Payload,
                          ConcurrencyInfo &Out);

/// Serializes a thread-aware concurrent WPP: the merged body in the
/// version-2 layout plus the THRD/HBEG/ACCS section trailer.
std::vector<uint8_t>
encodeConcurrentArchive(const ConcurrentWpp &Wpp,
                        const ParallelConfig &Config = {});

/// writeArchiveFile for concurrent WPPs (version-2 bytes).
bool writeConcurrentArchiveFile(const std::string &Path,
                                const ConcurrentWpp &Wpp,
                                const ParallelConfig &Config = {},
                                IoError *Err = nullptr);

/// Random-access reader over an archive file. open() reads only the fixed
/// header and index; extractFunction() reads only that function's block.
class ArchiveReader {
public:
  /// Opens \p Path and loads the header + index. \returns false on IO or
  /// format errors. The one-argument form uses defaultArchiveIoMode().
  bool open(const std::string &Path);
  bool open(const std::string &Path, IoMode Mode);

  /// The mode the reader is actually using after open(): Buffered either
  /// when requested or when an mmap attempt fell back.
  IoMode ioMode() const { return Mode; }

  uint32_t functionCount() const {
    return static_cast<uint32_t>(Index.size());
  }

  /// Number of calls to \p Function recorded in the archive; 0 when the
  /// archive holds no such function.
  uint64_t callCount(FunctionId Function) const {
    return Function < Index.size() ? Index[Function].CallCount : 0;
  }

  /// On-disk byte length of \p Function's block; 0 when the archive holds
  /// no such function. (twpp_memstat's compressed-size column.)
  uint64_t blockLength(FunctionId Function) const {
    return Function < Index.size() ? Index[Function].Length : 0;
  }

  /// On-disk byte length of the LZW-compressed DCG extent.
  uint64_t dcgLength() const { return DcgLength; }

  /// Reads and decodes the block of \p Function (one file slice).
  /// \returns false on IO or format errors.
  bool extractFunction(FunctionId Function, TwppFunctionTable &Table) const;

  /// Expands \p Function's unique path traces to raw block sequences.
  bool extractFunctionPathTraces(FunctionId Function,
                                 FunctionPathTraces &Out) const;

  /// Reads and LZW-decompresses the dynamic call graph.
  bool readDcg(DynamicCallGraph &Dcg) const;

  /// Loads the entire archive back into memory (DCG + every function).
  bool readAll(TwppWpp &Wpp) const;

  /// Archive format version (1 or 2) after a successful open().
  uint32_t version() const { return Version; }

  /// True when the archive carries the thread-aware section trailer.
  bool threadAware() const {
    return findArchiveSection(Sections, ArchiveSectionThreads);
  }

  /// Decodes the concurrency metadata (thread table, happens-before
  /// edges, access sets) — the race detector's whole input; the
  /// control-flow blocks stay untouched on disk. Fails on archives
  /// without the thread trailer.
  bool readConcurrency(ConcurrencyInfo &Out) const;

  /// Loads a thread-aware archive completely: merged body + concurrency
  /// metadata.
  bool readAllConcurrent(ConcurrentWpp &Out) const;

  /// Describes the most recent failure of any reader method as a
  /// verifier diagnostic: the violated check id, the archive section
  /// ("header", "index row 3", "function 2 block", "dcg") in Location,
  /// and the file offset of the offending bytes in ByteOffset. Only
  /// meaningful after a method returned false.
  const verify::Diagnostic &lastError() const { return LastError; }

private:
  /// Records the diagnostic as lastError() and returns false (failure
  /// shorthand).
  bool fail(std::string CheckId, std::string Message, std::string Section,
            uint64_t ByteOffset) const;
  bool fail(verify::Diagnostic Fault) const;

  /// Produces the bytes of [Offset, Offset+Length): a view into the
  /// mapping in mmap mode, a read into \p Storage otherwise. \returns
  /// false when the extent cannot be produced (past-EOF, IO failure);
  /// the caller owns the diagnostic.
  bool readSlice(uint64_t Offset, uint64_t Length,
                 std::vector<uint8_t> &Storage, ByteSpan &Out) const;

  std::string Path;
  uint64_t DcgOffset = 0;
  uint64_t DcgLength = 0;
  uint32_t Version = 1;
  std::vector<ArchiveIndexRow> Index;
  std::vector<ArchiveSection> Sections;
  MappedFile Map;
  IoMode Mode = IoMode::Buffered;
  mutable verify::Diagnostic LastError;
};

} // namespace twpp

#endif // TWPP_WPP_ARCHIVE_H
