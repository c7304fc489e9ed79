//===- support/Crc32.h - CRC-32 checksum ------------------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table-driven CRC-32 (the IEEE 802.3 polynomial, reflected form
/// 0xEDB88320) used by the framed-record codec (support/Frame.h) so a
/// torn or bit-flipped journal record or wire frame is detected before
/// its payload is trusted. Header only: tests and tools checksum byte
/// vectors directly.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_CRC32_H
#define TWPP_SUPPORT_CRC32_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace twpp {

namespace detail {

inline const std::array<uint32_t, 256> &crc32Table() {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : (C >> 1);
      T[I] = C;
    }
    return T;
  }();
  return Table;
}

} // namespace detail

/// Incremental form: feed \p Crc from a previous call (or crc32Init()) to
/// checksum discontiguous spans.
inline constexpr uint32_t crc32Init() { return 0xFFFFFFFFu; }

inline uint32_t crc32Update(uint32_t Crc, const void *Data, size_t Size) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  const auto &Table = detail::crc32Table();
  for (size_t I = 0; I < Size; ++I)
    Crc = Table[(Crc ^ Bytes[I]) & 0xFF] ^ (Crc >> 8);
  return Crc;
}

inline constexpr uint32_t crc32Final(uint32_t Crc) { return Crc ^ 0xFFFFFFFFu; }

/// One-shot checksum of \p Size bytes at \p Data.
inline uint32_t crc32(const void *Data, size_t Size) {
  return crc32Final(crc32Update(crc32Init(), Data, Size));
}

} // namespace twpp

#endif // TWPP_SUPPORT_CRC32_H
