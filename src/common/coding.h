#ifndef ODEVIEW_COMMON_CODING_H_
#define ODEVIEW_COMMON_CODING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ode {

/// Little-endian / varint encoding primitives used by value serialization
/// and the storage engine. Follows the LevelDB/RocksDB coding style but
/// with bounds-checked, Status-returning decoders.

/// Appends fixed-width little-endian integers to `dst`.
void PutFixed16(std::string* dst, uint16_t value);
void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);

/// Appends base-128 varints to `dst`.
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);

/// Appends a varint length prefix followed by the bytes of `value`.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// Appends an IEEE double as 8 little-endian bytes.
void PutDouble(std::string* dst, double value);

/// CRC-32C (Castagnoli polynomial, the iSCSI/ext4 variant) of `bytes`,
/// seeded with `seed` so multi-buffer checksums chain:
/// Crc32c(b, Crc32c(a)) == Crc32c(a+b). Runs on the SSE4.2 `crc32`
/// instruction when the CPU has it, a bytewise table otherwise (same
/// result). Checksums the write-ahead log and the access-capture frames.
uint32_t Crc32c(std::string_view bytes, uint32_t seed = 0);

namespace internal {

/// The two paths `Crc32c` picks between, exposed so a test can pin
/// both on one host. Call `Crc32cHardware` only where
/// `Crc32cHardwareAvailable()` is true.
uint32_t Crc32cTable(std::string_view bytes, uint32_t seed);
uint32_t Crc32cHardware(std::string_view bytes, uint32_t seed);
bool Crc32cHardwareAvailable();

}  // namespace internal

/// Decodes fixed-width integers from raw buffers (caller checks bounds).
uint16_t DecodeFixed16(const char* ptr);
uint32_t DecodeFixed32(const char* ptr);
uint64_t DecodeFixed64(const char* ptr);

/// Sequential, bounds-checked decoder over an input buffer.
///
/// All Get* methods consume bytes from the front and fail with
/// `Corruption` if the buffer is exhausted or malformed.
class Decoder {
 public:
  explicit Decoder(std::string_view input) : input_(input) {}

  Status GetFixed16(uint16_t* value);
  Status GetFixed32(uint32_t* value);
  Status GetFixed64(uint64_t* value);
  Status GetVarint32(uint32_t* value);
  Status GetVarint64(uint64_t* value);
  Status GetDouble(double* value);
  /// Reads a varint length prefix then that many bytes into `value`
  /// (a view into the original buffer).
  Status GetLengthPrefixed(std::string_view* value);
  /// Reads exactly `n` raw bytes.
  Status GetRaw(size_t n, std::string_view* value);

  /// Bytes not yet consumed.
  std::string_view remaining() const { return input_; }
  bool empty() const { return input_.empty(); }

 private:
  std::string_view input_;
};

}  // namespace ode

#endif  // ODEVIEW_COMMON_CODING_H_
