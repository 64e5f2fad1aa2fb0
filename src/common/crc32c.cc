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

// Multiplication modulo the polynomial in the reflected representation
// (x^0 is bit 31). The raw CRC register is linear in its input, so
// running a register `v` over n zero bytes is MultModP(x^(8n), v).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(8n) mod P, by square-and-multiply over x^(2^k).
constexpr uint32_t XPow8N(uint64_t n) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t x2k = 1u << 23;     // x^8
  for (; n != 0; n >>= 1) {
    if (n & 1) result = MultModP(x2k, result);
    x2k = MultModP(x2k, x2k);
  }
  return result;
}

// A byte-sliced table for "run the register over n zero bytes":
// Shift(v) = t[0][v & 0xff] ^ t[1][(v >> 8) & 0xff] ^ ... by linearity.
struct ShiftTable {
  std::array<std::array<uint32_t, 256>, 4> t;
  uint32_t Shift(uint32_t v) const {
    return t[0][v & 0xff] ^ t[1][(v >> 8) & 0xff] ^
           t[2][(v >> 16) & 0xff] ^ t[3][v >> 24];
  }
};

constexpr ShiftTable MakeShiftTable(uint64_t n) {
  const uint32_t k = XPow8N(n);
  ShiftTable table{};
  for (int j = 0; j < 4; j++) {
    for (uint32_t b = 0; b < 256; b++) {
      table.t[j][b] = MultModP(k, b << (8 * j));
    }
  }
  return table;
}

// The `crc32` instruction implements exactly this polynomial, reflected,
// so it needs no table. It takes three cycles and a new one can start
// every cycle, so one chain leaves the unit idle two cycles in three:
// the buffer is cut into rounds of three kBlock-byte blocks, one chain
// per block, and the three registers are joined with shifts by kBlock
// bytes (a compile-time table). Bytes after the last whole round, fewer
// than 3 * kBlock, run on one chain.
constexpr size_t kBlock = 256;
constexpr ShiftTable kShift = MakeShiftTable(kBlock);

__attribute__((target("sse4.2"))) inline uint64_t Crc64(uint64_t crc,
                                                        const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return _mm_crc32_u64(crc, word);
}

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint32_t crc = ~init_crc;
  const char* p = data;
  for (; n >= 3 * kBlock; n -= 3 * kBlock, p += 3 * kBlock) {
    uint64_t c0 = crc, c1 = 0, c2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      c0 = Crc64(c0, p + i);
      c1 = Crc64(c1, p + kBlock + i);
      c2 = Crc64(c2, p + 2 * kBlock + i);
    }
    crc = kShift.Shift(kShift.Shift(static_cast<uint32_t>(c0)) ^
                       static_cast<uint32_t>(c1)) ^
          static_cast<uint32_t>(c2);
  }
  uint64_t crc64 = crc;
  for (; n >= 8; p += 8, n -= 8) crc64 = Crc64(crc64, p);
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; p++, n--) {
    crc = _mm_crc32_u8(crc, static_cast<unsigned char>(*p));
  }
  return ~crc;
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
