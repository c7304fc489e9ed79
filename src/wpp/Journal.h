//===- wpp/Journal.h - Checkpoint journal for streaming compaction -*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk journal (*.twppj) behind crash-safe streaming compaction.
/// A journal is an append-only sequence of checkpoint records, each one
/// support/Frame.h record under the "TWPJ" magic, version 2: the record's
/// stream is the producer id (0 outside ingestion) and its sequence the
/// stream position the checkpoint covers (events consumed by the
/// compactor, or the next expected frame for ingestion). Version 1
/// journals used a different header and do not resume.
///
/// The writer appends a record per checkpoint and fsyncs before
/// returning, so a crash at any instant leaves at most one torn record at
/// the tail. The scanner runs the shared frame decoder over the file and
/// surfaces the *last* valid payload — which is all recovery needs (each
/// checkpoint is a complete snapshot, not a delta). docs/DURABILITY.md
/// documents the format and its guarantees.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_JOURNAL_H
#define TWPP_WPP_JOURNAL_H

#include "support/FileIO.h"
#include "support/Frame.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace twpp {

/// "TWPJ", little-endian, as the archive magic is "TWPP".
inline constexpr uint32_t JournalMagic = 0x4A505754;
inline constexpr uint32_t JournalVersion = 2;
inline constexpr frame::Format JournalFormat{JournalMagic, JournalVersion};

/// What scanJournal found.
struct JournalScan {
  /// Records whose framing and CRC checked out.
  size_t ValidRecords = 0;
  /// Headers that looked like records but failed the CRC (bit flips,
  /// overwritten tails).
  size_t CorruptRecords = 0;
  /// Bytes after the end of the last valid record (torn tail, garbage).
  uint64_t TornBytes = 0;
  /// Payload of the last valid record — the checkpoint to resume from.
  std::vector<uint8_t> LastPayload;
};

/// Scans \p Bytes for framed records. Tolerant by construction: damage
/// never makes it fail, it only reduces ValidRecords (possibly to zero).
JournalScan scanJournal(const std::vector<uint8_t> &Bytes);

/// Reads and scans the journal at \p Path — the one entry point both
/// resume paths share. Damaged records (CRC failures, a torn tail) are
/// counted into journal.records_dropped. \returns the read error, if any.
IoError readJournal(const std::string &Path, JournalScan &Scan);

/// Append-mode journal file writer. Every append() is flushed and
/// fsynced before it returns, so an acknowledged checkpoint survives a
/// crash. All IO consults the fault seam under the "journal" operation.
class JournalWriter {
public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(JournalWriter &&Other) noexcept;
  JournalWriter &operator=(JournalWriter &&Other) noexcept;
  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;

  /// Opens \p Path for journaling. \p Append keeps existing records (the
  /// resume path); otherwise the file is truncated.
  IoError open(const std::string &Path, bool Append);

  /// Appends one record for \p Stream at stream position \p Sequence and
  /// makes it durable. A payload the 32-bit length field cannot describe
  /// is refused with WriteFailed.
  IoError append(uint32_t Stream, uint64_t Sequence,
                 const std::vector<uint8_t> &Payload);

  void close();
  bool isOpen() const { return File != nullptr; }
  const std::string &path() const { return JournalPath; }

private:
  std::FILE *File = nullptr;
  std::string JournalPath;
};

} // namespace twpp

#endif // TWPP_WPP_JOURNAL_H
