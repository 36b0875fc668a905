// Versioned binary snapshot codec for becaused state.
//
// Format: an 8-byte magic ("BCSNAP01"), a u32 format version, then the
// daemon's sections (config, VP directory, schedules, exclude set, record
// stream, posterior entries — see Daemon::save_snapshot for the layout).
// All integers are little-endian fixed width; doubles are written as the
// raw IEEE-754 bit pattern (std::bit_cast), so every float round-trips
// exactly — the byte-identical round-trip guarantee (save -> restore ->
// save reproduces the same bytes) depends on it.
//
// Reads are hostile-input safe at the contract level: every get_* checks
// remaining length and every count field is bounds-checked against the
// remaining buffer before a vector is sized, so a truncated, corrupted or
// version-mismatched file fails a BECAUSE_CHECK (throwing under
// ContractMode::kThrow, which is how the rejection tests drive it) instead
// of reading garbage.
//
// The daemon serializes only *authoritative* state: the record stream, the
// config, and the warm posterior states. Derived state (the RIB view,
// per-prefix epochs, CSR datasets, likelihoods) is rebuilt on restore by
// replaying the records and the posterior build inputs — the same
// config-vs-state separation the reconfig layer enforces.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/contracts.hpp"

namespace because::service {

inline constexpr std::string_view kSnapshotMagic = "BCSNAP01";
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Append-only little-endian encoder.
class SnapshotWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v) {
    for (int b = 0; b < 4; ++b)
      buf_.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
  void put_u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b)
      buf_.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_string(std::string_view s) {
    put_u64(s.size());
    buf_.append(s);
  }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Sequential little-endian decoder over a borrowed buffer. Every read
/// BECAUSE_CHECKs the remaining length.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t get_u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b)
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + b]))
           << (8 * b);
    pos_ += 4;
    return v;
  }
  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b)
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + b]))
           << (8 * b);
    pos_ += 8;
    return v;
  }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  bool get_bool() { return get_u8() != 0; }
  std::string get_string() {
    const std::uint64_t n = get_u64();
    need(n);
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// A count field about to size a vector of elements each at least
  /// `min_element_bytes` long: reject counts the remaining buffer cannot
  /// possibly hold (a corrupted count must not drive a huge allocation).
  std::uint64_t get_count(std::uint64_t min_element_bytes) {
    const std::uint64_t n = get_u64();
    BECAUSE_CHECK(min_element_bytes == 0 ||
                      n <= remaining() / min_element_bytes,
                  "snapshot: count " << n << " exceeds remaining "
                                     << remaining() << " bytes");
    return n;
  }

  std::uint64_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  void need(std::uint64_t n) {
    BECAUSE_CHECK(n <= remaining(), "snapshot: truncated (need "
                                        << n << " bytes, " << remaining()
                                        << " remain)");
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Write the magic + version header.
void write_header(SnapshotWriter& writer);

/// Read and verify the header; BECAUSE_CHECKs magic and version.
void read_header(SnapshotReader& reader);

/// Whole-file helpers (std::fstream under the hood; throws
/// std::runtime_error on I/O failure).
void write_snapshot_file(const std::string& path, std::string_view bytes);
std::string read_snapshot_file(const std::string& path);

}  // namespace because::service
