#include "src/ckpt/image.h"

#include "src/ckpt/serializer.h"

namespace ckckpt {

const CkptRecord* CkptImage::Find(RecordType type) const {
  for (const CkptRecord& rec : records_) {
    if (rec.type == type) {
      return &rec;
    }
  }
  return nullptr;
}

std::vector<uint8_t> CkptImage::Serialize() const {
  Writer w;
  w.Reserve(SizeBytes());
  w.U32(kMagic);
  w.U32(kVersion);
  w.U32(static_cast<uint32_t>(records_.size()));
  for (const CkptRecord& rec : records_) {
    // Frame straight into the output, then checksum that span in place.
    size_t start = w.size();
    w.U16(static_cast<uint16_t>(rec.type));
    w.U16(0);  // flags, reserved
    w.U32(static_cast<uint32_t>(rec.payload.size()));
    w.Bytes(rec.payload.data(), rec.payload.size());
    w.U32(Crc32(w.data().data() + start, w.size() - start));
  }
  return w.Take();
}

size_t CkptImage::SizeBytes() const {
  size_t total = 12;  // magic + version + count
  for (const CkptRecord& rec : records_) {
    total += 8 + rec.payload.size() + 4;  // frame + payload + crc
  }
  return total;
}

bool CkptImage::Parse(const std::vector<uint8_t>& bytes, CkptImage* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  Reader r(bytes);
  if (r.U32() != kMagic) {
    return fail("bad magic (not a checkpoint image)");
  }
  uint32_t version = r.U32();
  if (version != kVersion) {
    return fail("unsupported image version " + std::to_string(version));
  }
  uint32_t count = r.U32();
  CkptImage image;
  bool saw_end = false;
  for (uint32_t i = 0; i < count; ++i) {
    uint16_t type = r.U16();
    r.U16();  // flags, reserved (covered by the CRC)
    uint32_t length = r.U32();
    if (!r.ok() || r.remaining() < static_cast<size_t>(length) + 4) {
      return fail("image truncated in record " + std::to_string(i));
    }
    // The CRC covers the 8-byte frame header and the payload exactly as they
    // sit in the input; only a verified payload is copied out.
    const uint8_t* payload = r.Span(length);
    uint32_t stored_crc = r.U32();
    if (Crc32(payload - 8, 8 + static_cast<size_t>(length)) != stored_crc) {
      return fail("CRC mismatch in record " + std::to_string(i) + " (type " +
                  std::to_string(type) + ")");
    }
    CkptRecord rec;
    rec.type = static_cast<RecordType>(type);
    rec.payload.assign(payload, payload + length);
    saw_end = saw_end || rec.type == RecordType::kEnd;
    image.records_.push_back(std::move(rec));
  }
  if (!r.ok()) {
    return fail("image truncated");
  }
  if (!saw_end) {
    return fail("image missing end record (truncated record list)");
  }
  *out = std::move(image);
  return true;
}

}  // namespace ckckpt
