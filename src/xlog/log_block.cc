#include "xlog/log_block.h"

#include "common/coding.h"
#include "common/compress.h"
#include "common/crc32c.h"

namespace socrates {
namespace xlog {

namespace {

// 'S' 'L' 'B' + layout generation. The magic guards against a consumer
// parsing an arbitrary byte range (repair reads, disk garbage) as a frame.
constexpr uint32_t kFrameMagic = 0x31424c53;  // "SLB1"

// The one frame layout. The header still carries it, so bytes from any
// other layout are rejected as corrupt instead of being misparsed.
constexpr uint16_t kFrameLayout = 2;

constexpr uint8_t kFlagCompressed = 0x1;

// [magic u32][layout u16][flags u8][start_lsn u64][raw_len u32]
// [stored_len u32][npart u32]
constexpr size_t kHeaderBytes = 4 + 2 + 1 + 8 + 4 + 4 + 4;

}  // namespace

std::shared_ptr<const std::string> CompressBlockPayload(
    const LogBlock& block) {
  auto stored = std::make_shared<std::string>();
  compress::Compress(Slice(block.payload()), stored.get());
  if (stored->size() >= block.payload().size()) return nullptr;
  return stored;
}

std::string EncodeBlockFrame(const LogBlock& block,
                             const std::string* compressed) {
  const std::string& body =
      compressed != nullptr ? *compressed : block.payload();
  std::string frame;
  frame.reserve(kHeaderBytes + 4 * block.partitions().size() +
                body.size() + 4);
  PutFixed32(&frame, kFrameMagic);
  PutFixed16(&frame, kFrameLayout);
  frame.push_back(static_cast<char>(compressed != nullptr ? kFlagCompressed
                                                          : 0));
  PutFixed64(&frame, block.start_lsn);
  PutFixed32(&frame, static_cast<uint32_t>(block.payload().size()));
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  PutFixed32(&frame, static_cast<uint32_t>(block.partitions().size()));
  for (PartitionId p : block.partitions()) PutFixed32(&frame, p);
  frame.append(body);
  PutFixed32(&frame,
             crc32c::Mask(crc32c::Value(body.data(), body.size())));
  return frame;
}

Status DecodeBlockFrame(Slice frame, LogBlock* out) {
  if (frame.size() < kHeaderBytes + 4) {
    return Status::Corruption("block frame truncated");
  }
  const char* p = frame.data();
  if (DecodeFixed32(p) != kFrameMagic) {
    return Status::Corruption("block frame bad magic");
  }
  if (DecodeFixed16(p + 4) != kFrameLayout) {
    return Status::Corruption("block frame unknown layout");
  }
  uint8_t flags = static_cast<uint8_t>(p[6]);
  Lsn start_lsn = DecodeFixed64(p + 7);
  uint32_t raw_len = DecodeFixed32(p + 15);
  uint32_t stored_len = DecodeFixed32(p + 19);
  uint32_t npart = DecodeFixed32(p + 23);
  uint64_t need = kHeaderBytes + 4ull * npart + stored_len + 4;
  if (frame.size() != need) {
    return Status::Corruption("block frame length mismatch");
  }
  const char* parts = p + kHeaderBytes;
  const char* body = parts + 4ull * npart;
  uint32_t crc = DecodeFixed32(body + stored_len);
  if (crc32c::Unmask(crc) != crc32c::Value(body, stored_len)) {
    return Status::Corruption("block frame checksum mismatch");
  }
  std::set<PartitionId> partitions;
  for (uint32_t i = 0; i < npart; i++) {
    partitions.insert(DecodeFixed32(parts + 4ull * i));
  }
  std::string payload;
  if (flags & kFlagCompressed) {
    Status s = compress::Decompress(Slice(body, stored_len), raw_len,
                                    &payload);
    if (!s.ok()) return s;
  } else {
    if (stored_len != raw_len) {
      return Status::Corruption("block frame raw length mismatch");
    }
    payload.assign(body, stored_len);
  }
  *out = LogBlock::Make(start_lsn, std::move(payload),
                        std::move(partitions));
  return Status::OK();
}

}  // namespace xlog
}  // namespace socrates
