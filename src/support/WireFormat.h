//===- WireFormat.h - Bounds-checked binary encoding helpers -----*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level substrate of ANEK's binary formats: the summary
/// snapshot and cache-entry blobs of src/infer/SummaryIO.h. Encoding is
/// explicit little-endian fixed width — the same bytes on every host this
/// reproduction targets — and doubles travel as bit-cast u64, so a
/// summary written to disk reads back bit-identical (what lets a warm
/// cache replay byte-identically).
///
/// Reading is defensive by design: a Reader never indexes past its
/// buffer; the first short or oversized read latches a sticky failure
/// state that every later read observes, so decoders can run a straight
/// sequence of reads and check done() once. Hostile or truncated input can
/// make a decode *fail*, never make it read out of bounds.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_WIREFORMAT_H
#define ANEK_SUPPORT_WIREFORMAT_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace anek {
namespace wire {

/// FNV-1a over \p Data — the checksum of every ANEK blob payload. Not
/// cryptographic; it detects the torn writes, truncation and bit flips
/// of a damaged cache directory.
inline uint64_t fnv1a64(std::string_view Data) {
  uint64_t Hash = 1469598103934665603ULL;
  for (unsigned char C : Data) {
    Hash ^= C;
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

/// Append-only little-endian encoder.
class Writer {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) { fixed(&V, sizeof(V)); }
  void u64(uint64_t V) { fixed(&V, sizeof(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  /// Length-prefixed (u32) byte string.
  void str(std::string_view V) {
    u32(static_cast<uint32_t>(V.size()));
    Buf.append(V.data(), V.size());
  }

  std::string take() { return std::move(Buf); }

private:
  void fixed(const void *P, size_t N) {
    // Little-endian hosts only (static_assert would need C++20 endian;
    // the toolchain this repo targets is x86-64/aarch64 LE).
    Buf.append(static_cast<const char *>(P), N);
  }

  std::string Buf;
};

/// Bounds-checked little-endian decoder with a sticky failure flag.
class Reader {
public:
  explicit Reader(std::string_view Data) : Data(Data) {}

  bool u8(uint8_t &V) { return fixed(&V, sizeof(V)); }
  bool u32(uint32_t &V) { return fixed(&V, sizeof(V)); }
  bool u64(uint64_t &V) { return fixed(&V, sizeof(V)); }
  bool f64(double &V) {
    uint64_t Bits = 0;
    if (!u64(Bits))
      return false;
    std::memcpy(&V, &Bits, sizeof(V));
    return true;
  }
  /// Length-prefixed byte string; fails (without allocating) when the
  /// declared length exceeds \p MaxLen or the remaining buffer.
  bool str(std::string &V, size_t MaxLen = DefaultMaxString) {
    uint32_t Len = 0;
    if (!u32(Len))
      return false;
    if (Len > MaxLen || Len > remaining())
      return fail();
    V.assign(Data.data() + Pos, Len);
    Pos += Len;
    return true;
  }

  /// Reads an element count and validates it against the bytes that
  /// could possibly back it (\p MinBytesPer each), so a corrupt count
  /// can never drive a giant allocation.
  bool count(uint32_t &N, size_t MinBytesPer) {
    if (!u32(N))
      return false;
    if (MinBytesPer != 0 && N > remaining() / MinBytesPer)
      return fail();
    return true;
  }

  size_t remaining() const { return Bad ? 0 : Data.size() - Pos; }
  /// True when every byte was consumed and nothing failed.
  bool done() const { return !Bad && Pos == Data.size(); }

private:
  static constexpr size_t DefaultMaxString = 1u << 24;

  bool fail() {
    Bad = true;
    return false;
  }
  bool fixed(void *P, size_t N) {
    if (Bad || N > Data.size() - Pos)
      return fail();
    std::memcpy(P, Data.data() + Pos, N);
    Pos += N;
    return true;
  }

  std::string_view Data;
  size_t Pos = 0;
  bool Bad = false;
};

} // namespace wire
} // namespace anek

#endif // ANEK_SUPPORT_WIREFORMAT_H
