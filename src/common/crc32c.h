// CRC32-C (Castagnoli) used to checksum pages and log blocks. On x86-64
// CPUs with SSE4.2 the `crc32` instruction computes it; elsewhere a
// byte-at-a-time table does. The path is picked once at run time from
// the CPU, and both give the same values. Masked variant for values
// stored alongside the data they protect (RocksDB idiom).

#pragma once

#include <cstddef>
#include <cstdint>

namespace socrates {
namespace crc32c {

/// Returns crc32c of data[0,n) extended from `init_crc`, on the fastest
/// path this CPU supports.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The byte-table implementation of Extend: the path on CPUs without
/// SSE4.2 and on non-x86 builds, and the reference the hardware path is
/// tested against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// True when Extend runs on the SSE4.2 `crc32` instruction.
bool HardwareAccelerated();

/// crc32c of data[0,n).
inline uint32_t Value(const char* data, size_t n) {
  return Extend(0, data, n);
}

inline constexpr uint32_t kMaskDelta = 0xa282ead8ul;

/// Mask a crc before storing it next to the protected bytes, so that the
/// crc of a buffer containing embedded crcs is not trivially fixated.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace socrates
