#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace socrates {
namespace crc32c {

namespace {

// CRC32-C polynomial, reflected.
constexpr uint32_t kPoly = 0x82f63b78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)

// The `crc32` instruction implements exactly this polynomial, reflected,
// so it needs no table. One serial 8-byte chain: a 3-stream interleave
// measured ~2x faster per page but only ~5% on end-to-end wall time.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = static_cast<uint32_t>(~init_crc);
  const char* p = data;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; p++, n--) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p));
  }
  return ~crc32;
}

bool CpuHasSse42() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & bit_SSE4_2) != 0;
}

#endif  // __x86_64__

}  // namespace

bool HardwareAccelerated() {
#if defined(__x86_64__)
  // A function-local static, not a namespace-scope function pointer: a
  // static initializer elsewhere that checksums a page still sees the
  // probe done first.
  static const bool kHasSse42 = CpuHasSse42();
  return kHasSse42;
#else
  return false;
#endif
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__)
  if (HardwareAccelerated()) return ExtendSse42(init_crc, data, n);
#endif
  return ExtendPortable(init_crc, data, n);
}

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = ~init_crc;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace crc32c
}  // namespace socrates
