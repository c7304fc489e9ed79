//===- wpp/Journal.cpp - Checkpoint journal for streaming compaction ------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Journal.h"

#include "obs/Metrics.h"
#include "obs/Names.h"
#include "support/FaultInjection.h"

#include <cerrno>

#if !defined(_WIN32)
#include <unistd.h>
#else
#include <io.h>
#endif

using namespace twpp;

namespace {

IoError journalFail(IoStatus Status, const std::string &Detail,
                    int Err = errno) {
  IoError E;
  E.Status = Status;
  E.Errno = Err;
  E.Detail = Detail;
  return E;
}

IoError journalInjected(IoStatus Status, const std::string &Detail) {
  return journalFail(Status, Detail + " [injected]", 0);
}

bool syncJournalStream(std::FILE *File) {
#if defined(_WIN32)
  return _commit(_fileno(File)) == 0;
#else
  return ::fsync(fileno(File)) == 0;
#endif
}

} // namespace

JournalScan twpp::scanJournal(const std::vector<uint8_t> &Bytes) {
  JournalScan Scan;
  frame::Decoder Decoder(JournalFormat, frame::MaxLength);
  Decoder.feed(Bytes.data(), Bytes.size());
  Decoder.finish();
  frame::Frame Record;
  uint64_t EndOfLastValid = 0;
  while (Decoder.next(Record)) {
    Scan.LastPayload = std::move(Record.Payload);
    // Every consumed byte is either frame or resync, so their sum is the
    // offset just past this record.
    EndOfLastValid = Decoder.stats().FrameBytes + Decoder.stats().ResyncBytes;
  }
  Scan.ValidRecords = Decoder.stats().Frames;
  Scan.CorruptRecords = Decoder.stats().CorruptFrames;
  Scan.TornBytes = Bytes.size() - EndOfLastValid;
  return Scan;
}

IoError twpp::readJournal(const std::string &Path, JournalScan &Scan) {
  std::vector<uint8_t> Bytes;
  IoError Read = readFileBytes(Path, Bytes);
  if (!Read)
    return Read;
  Scan = scanJournal(Bytes);
  if (Scan.CorruptRecords > 0 || Scan.TornBytes > 0)
    obs::metrics()
        .counter(obs::names::JournalRecordsDropped)
        .add(Scan.CorruptRecords + (Scan.TornBytes > 0 ? 1 : 0));
  return IoError::success();
}

JournalWriter::~JournalWriter() { close(); }

JournalWriter::JournalWriter(JournalWriter &&Other) noexcept
    : File(Other.File), JournalPath(std::move(Other.JournalPath)) {
  Other.File = nullptr;
  Other.JournalPath.clear();
}

JournalWriter &JournalWriter::operator=(JournalWriter &&Other) noexcept {
  if (this != &Other) {
    close();
    File = Other.File;
    JournalPath = std::move(Other.JournalPath);
    Other.File = nullptr;
    Other.JournalPath.clear();
  }
  return *this;
}

IoError JournalWriter::open(const std::string &Path, bool Append) {
  close();
  if (fault::shouldFailIo("journal"))
    return journalInjected(IoStatus::OpenFailed, Path);
  File = std::fopen(Path.c_str(), Append ? "ab" : "wb");
  if (!File)
    return journalFail(IoStatus::OpenFailed, Path);
  JournalPath = Path;
  return IoError::success();
}

IoError JournalWriter::append(uint32_t Stream, uint64_t Sequence,
                              const std::vector<uint8_t> &Payload) {
  if (!File)
    return journalFail(IoStatus::OpenFailed, "journal not open", 0);
  if (Payload.size() > frame::MaxLength)
    return journalFail(IoStatus::WriteFailed,
                       JournalPath + " (checkpoint exceeds 4 GiB)", 0);
  if (fault::shouldFailIo("journal"))
    return journalInjected(IoStatus::WriteFailed, JournalPath);
  std::vector<uint8_t> Frame;
  frame::append(Frame, JournalFormat, Stream, Sequence, ByteSpan(Payload));
  size_t Written = std::fwrite(Frame.data(), 1, Frame.size(), File);
  if (Written != Frame.size())
    return journalFail(IoStatus::ShortWrite, JournalPath);
  if (std::fflush(File) != 0)
    return journalFail(IoStatus::FlushFailed, JournalPath);
  // The record must be durable before the checkpoint is acknowledged;
  // otherwise a crash could roll the stream back past state the caller
  // already discarded.
  if (!syncJournalStream(File))
    return journalFail(IoStatus::SyncFailed, JournalPath);
  obs::metrics()
      .counter(obs::names::JournalBytes)
      .add(static_cast<uint64_t>(Frame.size()));
  return IoError::success();
}

void JournalWriter::close() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
  JournalPath.clear();
}
