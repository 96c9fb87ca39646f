#include "common/coding.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ode {

void PutFixed16(std::string* dst, uint16_t value) {
  char buf[2];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  dst->append(buf, 2);
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  dst->append(buf, 8);
}

void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

void PutDouble(std::string* dst, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutFixed64(dst, bits);
}

uint16_t DecodeFixed16(const char* ptr) {
  const auto* p = reinterpret_cast<const unsigned char*>(ptr);
  return static_cast<uint16_t>(p[0]) | (static_cast<uint16_t>(p[1]) << 8);
}

uint32_t DecodeFixed32(const char* ptr) {
  const auto* p = reinterpret_cast<const unsigned char*>(ptr);
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t DecodeFixed64(const char* ptr) {
  const auto* p = reinterpret_cast<const unsigned char*>(ptr);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

Status Decoder::GetFixed16(uint16_t* value) {
  if (input_.size() < 2) return Status::Corruption("truncated fixed16");
  *value = DecodeFixed16(input_.data());
  input_.remove_prefix(2);
  return Status::OK();
}

Status Decoder::GetFixed32(uint32_t* value) {
  if (input_.size() < 4) return Status::Corruption("truncated fixed32");
  *value = DecodeFixed32(input_.data());
  input_.remove_prefix(4);
  return Status::OK();
}

Status Decoder::GetFixed64(uint64_t* value) {
  if (input_.size() < 8) return Status::Corruption("truncated fixed64");
  *value = DecodeFixed64(input_.data());
  input_.remove_prefix(8);
  return Status::OK();
}

Status Decoder::GetVarint32(uint32_t* value) {
  uint64_t v = 0;
  ODE_RETURN_IF_ERROR(GetVarint64(&v));
  if (v > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *value = static_cast<uint32_t>(v);
  return Status::OK();
}

Status Decoder::GetVarint64(uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (input_.empty()) return Status::Corruption("truncated varint");
    auto byte = static_cast<unsigned char>(input_.front());
    input_.remove_prefix(1);
    if (byte & 0x80) {
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    } else {
      result |= static_cast<uint64_t>(byte) << shift;
      *value = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint too long");
}

Status Decoder::GetDouble(double* value) {
  uint64_t bits = 0;
  ODE_RETURN_IF_ERROR(GetFixed64(&bits));
  std::memcpy(value, &bits, sizeof(*value));
  return Status::OK();
}

Status Decoder::GetLengthPrefixed(std::string_view* value) {
  uint64_t len = 0;
  ODE_RETURN_IF_ERROR(GetVarint64(&len));
  return GetRaw(static_cast<size_t>(len), value);
}

Status Decoder::GetRaw(size_t n, std::string_view* value) {
  if (input_.size() < n) return Status::Corruption("truncated bytes");
  *value = input_.substr(0, n);
  input_.remove_prefix(n);
  return Status::OK();
}

namespace internal {

uint32_t Crc32cTable(std::string_view bytes, uint32_t seed) {
  // Reflected Castagnoli polynomial 0x82F63B78.
  static const uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  for (char c : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<uint8_t>(c)) & 0xff];
  }
  return ~crc;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2")))
uint32_t Crc32cHardware(std::string_view bytes, uint32_t seed) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
  }
  return ~crc32;
}

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

#else

// No crc32 instruction on this architecture: every call takes the table.
uint32_t Crc32cHardware(std::string_view bytes, uint32_t seed) {
  return Crc32cTable(bytes, seed);
}

bool Crc32cHardwareAvailable() { return false; }

#endif

}  // namespace internal

uint32_t Crc32c(std::string_view bytes, uint32_t seed) {
  static const bool hardware = internal::Crc32cHardwareAvailable();
  return hardware ? internal::Crc32cHardware(bytes, seed)
                  : internal::Crc32cTable(bytes, seed);
}

}  // namespace ode
